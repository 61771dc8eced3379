#pragma once
// Soft-error (SEU) injection framework.
//
// Fault model (paper §2.2): transient bit-flips in *compute units* — memory
// is assumed ECC-protected and interconnect FT-MPI-protected — under the
// single-event-upset assumption: at most one flip per detection/correction
// cycle.  Kernels expose injection hooks at every computation site the paper
// identifies (GEMM I MACs, reduce-max, subtract+EXP, reduce-sum, rescale,
// GEMM II MACs, checksum pipeline) and the injector decides, deterministically
// from its configuration, which call gets corrupted and which bit flips.
//
// Two modes:
//  * `single`   — flip exactly the n-th value produced at one site (SEU
//                 campaigns, Figs. 14/15 and all correction tests);
//  * `bernoulli`— each candidate value flips with probability p (bit-error-
//                 rate sweeps, Fig. 12), using geometric skip sampling so the
//                 common no-fault path costs one counter decrement.

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "numeric/bits.hpp"

namespace ftt::fault {

/// Where in the attention pipeline a value was produced.
enum class Site {
  kGemm1 = 0,     ///< S = Q K^T accumulator output
  kReduceMax,     ///< running row-max
  kExp,           ///< exp(s - m) output
  kReduceSum,     ///< running row-sum l
  kRescale,       ///< diag(e^{m_old-m_new}) * O element
  kGemm2,         ///< O += P V accumulator output
  kChecksum,      ///< checksum-pipeline value (CCG / checksum GEMM)
  kLinear,        ///< feed-forward / projection GEMM output
  kCount,
};

constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kCount);

const char* site_name(Site s) noexcept;

/// Record of one injected flip (for assertions and reports).
struct Event {
  Site site;
  std::uint64_t call_index;  ///< per-site ordinal of the corrupted value
  unsigned bit;              ///< flipped bit position (fp32 encoding)
  float before;
  float after;
};

class FaultInjector {
 public:
  /// No faults; every hook is a no-op.  Null injectors are also accepted by
  /// all kernels.
  FaultInjector() { next_hit_.fill(kNever); }

  /// Flip bit `bit` of the `call_index`-th value produced at `site`.
  /// Throws std::invalid_argument for a site outside the eight hook sites
  /// or a bit past 31.
  static FaultInjector single(Site site, std::uint64_t call_index,
                              unsigned bit);

  /// Flip a uniformly random bit of each candidate value with probability
  /// `per_value_prob`, at any of the `sites` (empty = all sites).  Throws
  /// std::invalid_argument for a listed site outside the eight hook sites.
  static FaultInjector bernoulli(double per_value_prob, std::uint64_t seed,
                                 std::vector<Site> sites = {});

  /// Hook: pass a freshly computed value through the injector.
  float corrupt(Site site, float v) noexcept {
    const auto si = static_cast<std::size_t>(site);
    ++calls_[si];
    auto& n = next_hit_[si];
    if (n < 0) return v;  // site not armed
    if (n > 0) {
      --n;
      return v;
    }
    return do_flip(site, v);
  }

  /// Stand in for `n` corrupt() calls at `site` whose values the caller
  /// already holds (a sealed checksum is memory, not compute): advance the
  /// counters exactly as n calls that flip nothing would and return true.
  /// When one of those calls would flip, change nothing and return false;
  /// the caller then computes the values and passes each through corrupt().
  bool skip(Site site, std::uint64_t n) noexcept {
    const auto si = static_cast<std::size_t>(site);
    if (would_flip(si, n)) return false;
    advance(si, n);
    return true;
  }

  /// skip(s, probe.calls(s)) for every site at once, all or nothing: replay
  /// a computation that ran under the unarmed `probe` when none of its hook
  /// calls would have flipped here.
  bool skip(const FaultInjector& probe) noexcept;

  [[nodiscard]] bool armed() const noexcept { return mode_ != Mode::kNone; }
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t injected() const noexcept { return events_.size(); }

  /// Per-site call counters observed so far (how many candidate values the
  /// kernel produced); useful for sizing `single` campaigns.
  [[nodiscard]] std::uint64_t calls(Site s) const noexcept {
    return calls_[static_cast<std::size_t>(s)];
  }

  /// Forget recorded events and re-arm counters (for reuse across trials).
  void reset();

 private:
  enum class Mode { kNone, kSingle, kBernoulli };
  static constexpr std::int64_t kNever = -1;

  /// Whether one of the next `n` calls at site index `si` flips.
  [[nodiscard]] bool would_flip(std::size_t si,
                                std::uint64_t n) const noexcept {
    return next_hit_[si] >= 0 &&
           static_cast<std::uint64_t>(next_hit_[si]) < n;
  }
  void advance(std::size_t si, std::uint64_t n) noexcept {
    calls_[si] += n;
    if (next_hit_[si] >= 0) next_hit_[si] -= static_cast<std::int64_t>(n);
  }
  float do_flip(Site site, float v) noexcept;
  [[nodiscard]] std::int64_t draw_gap() noexcept;
  [[nodiscard]] bool site_armed(Site s) const noexcept;

  Mode mode_ = Mode::kNone;
  Site single_site_ = Site::kGemm1;
  unsigned single_bit_ = 0;
  double prob_ = 0.0;
  std::vector<Site> sites_;
  std::mt19937_64 rng_;
  std::uint64_t seed_ = 0;
  std::uint64_t single_index_ = 0;
  // Countdown until the next flip per site; negative = site not armed.
  std::array<std::int64_t, kSiteCount> next_hit_{};
  std::array<std::uint64_t, kSiteCount> calls_{};
  std::vector<Event> events_;
};

/// Convenience: pass-through when `inj` may be null.
inline float corrupt(FaultInjector* inj, Site site, float v) noexcept {
  return inj ? inj->corrupt(site, v) : v;
}

}  // namespace ftt::fault
