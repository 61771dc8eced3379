// The serving workloads: chat (open loop, shared system prompts), long_doc
// (closed loop, long unshared prompts) and chaos (a burst under one injected
// transient per tick, against an unarmed twin).  The engine is driven from
// outside through serve::DecodeEngine's public calls only; the traced pass
// additionally replays sampled ticks through the public layer calls
// (transformer::LayerNorm/Linear/FeedForward, serve::PagedKvCache,
// core::efta_decode_batch) to split a tick by layer.

#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/decode.hpp"
#include "fault/fault.hpp"
#include "serve/engine.hpp"
#include "serve/tile_pool.hpp"
#include "tensor/random.hpp"
#include "transformer/model.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace fs = ftt::serve;
namespace ft = ftt::tensor;
namespace fx = ftt::transformer;
using ftt::numeric::Half;
using RequestId = fs::DecodeEngine::RequestId;

constexpr std::uint64_t kModelSeed = 0x5eed;
constexpr std::size_t kTileRows = fs::TilePool::kTileRows;

// --- workload parameters (see README.md for why each is what it is) -------

// Requests per run are fixed, so every run of a workload measures the same
// amount of work; a full run's window is about 15 s (BENCHMARK.json's
// run_seconds) on the reference machine.
struct Count {
  std::size_t full, smoke;
  [[nodiscard]] std::size_t of(const Args& a) const {
    return a.smoke ? smoke : full;
  }
};

// chat: Poisson arrivals; eight tile-aligned system prompts, most popular
// first; log-normal user turns.  The user-turn median and sigma and the
// Zipf(1) prompt popularity are placeholders, not fitted to any trace: no
// conversation-length trace is in the repository yet.
constexpr Count kChatRequests{225, 22};  // 15 s (1.5 s) of arrivals
constexpr double kChatRate = 15.0;       // requests per second
constexpr std::size_t kSystemRows[] = {512, 256, 768, 384, 640, 320, 576, 448};
constexpr double kUserMedianRows = 48.0, kUserSigma = 1.0;
constexpr std::size_t kUserMinRows = 8, kUserMaxRows = 512;
constexpr std::size_t kChatBudgetMin = 16, kChatBudgetMax = 128;
constexpr std::size_t kChatBatch = 16;
// Holds the hot system prompts plus a full batch's private tiles, but not
// every system prompt at once: cold ones are evicted.
constexpr std::size_t kChatPoolTiles = 112;
// SLO: time to first token and mean gap between new tokens.
constexpr double kSloTtftMs = 60.0, kSloItlMs = 12.0;

// long_doc: closed loop, unshared long prompts.
constexpr Count kLongDocRequests{39, 8};
constexpr std::size_t kLongDocClients = 4;
constexpr std::size_t kLongPromptMin = 1536, kLongPromptMax = 3072;
constexpr std::size_t kLongBudgetMin = 64, kLongBudgetMax = 192;
constexpr std::size_t kLongDocBatch = 8;

// chaos: a burst of unshared chat-sized requests, one transient per tick.
constexpr Count kChaosRequests{60, 8};
constexpr std::size_t kChaosPromptMin = 128, kChaosPromptMax = 640;
constexpr std::size_t kChaosBatch = 8;
constexpr std::size_t kChaosRetries = 2;
// tests/test_recovery.cpp's chaos sites and call range; an index past a
// tick's calls at the drawn site never fires.
constexpr ff::Site kChaosSites[] = {ff::Site::kGemm1, ff::Site::kGemm2,
                                    ff::Site::kExp, ff::Site::kLinear};
constexpr std::uint64_t kChaosMaxCallIndex = 400;
// The R2 sequence's steps (inverse powers of the plastic number): two
// Weyl sequences that stay jointly even.
constexpr double kAlphaRows = 0.7548776662466927;
constexpr double kAlphaBudget = 0.5698402909980532;

constexpr std::size_t kVerifyEvery = 16;  // solo re-run of every 16th request
constexpr std::size_t kReplayTicks = 200;
/// A pass still running after this long (on its own clock) is abandoned and
/// fails its checks, so a stuck engine cannot hold the run past its limit.
constexpr double kPassDeadlineS = 75.0;

fx::ModelConfig model_config() {
  fx::ModelConfig cfg = fx::ModelConfig::tiny();
  cfg.causal = true;
  return cfg;
}

enum class Loop { kOpen, kClosed, kBurst };
enum class Faults { kNone, kChaos, kTwin };

struct Workload {
  std::string name;
  Loop loop = Loop::kBurst;
  std::size_t clients = 0;  ///< closed loop
  fs::EngineOptions opt;
  bool chaos = false;  ///< injected run plus unarmed twin
  std::uint64_t fault_seed = 0;
  std::vector<ft::MatrixF> prompts;
  std::vector<std::size_t> budgets;
  std::vector<double> due_s;  ///< open loop arrival schedule
};

/// Inverse CDF of the uniform integers on [lo, hi].
auto uniform_int(std::size_t lo, std::size_t hi) {
  return [lo, hi](double p) {
    return std::min(static_cast<double>(hi),
                    static_cast<double>(lo) +
                        std::floor(p * static_cast<double>(hi - lo + 1)));
  };
}

std::vector<std::size_t> as_sizes(const std::vector<double>& d) {
  return {d.begin(), d.end()};
}

ft::MatrixF random_rows(std::size_t rows, std::size_t hidden,
                        std::uint64_t seed) {
  ft::MatrixF m(rows, hidden);
  ft::fill_normal(m, seed);
  return m;
}

fs::EngineOptions base_options(std::size_t batch) {
  fs::EngineOptions opt;
  opt.kv_quant = false;  // fp16 tiles whatever FTT_KV_QUANT says
  opt.scheduler.max_batch_size = batch;
  return opt;
}

Workload make_chat(const Args& a, std::size_t hidden) {
  Workload w;
  w.name = "chat";
  w.loop = Loop::kOpen;
  w.opt = base_options(kChatBatch);
  w.opt.scheduler.max_kv_tiles = kChatPoolTiles;
  std::mt19937_64 rng(a.seed);
  const std::size_t n = kChatRequests.of(a);

  std::vector<ft::MatrixF> system;
  for (const std::size_t rows : kSystemRows) {
    system.push_back(random_rows(rows, hidden, rng()));
  }
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t k = 0; k < std::size(kSystemRows); ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf.push_back(total);
  }
  const auto which = stratified(n, rng, [&](double p) {
    std::size_t k = 0;
    while (k + 1 < cdf.size() && cdf[k] / total < p) ++k;
    return static_cast<double>(k);
  });
  const auto user = stratified(n, rng, [](double p) {
    const double rows =
        std::exp(std::log(kUserMedianRows) + kUserSigma * inv_norm_cdf(p));
    return std::clamp(std::round(rows), static_cast<double>(kUserMinRows),
                      static_cast<double>(kUserMaxRows));
  });
  w.budgets = as_sizes(
      stratified(n, rng, uniform_int(kChatBudgetMin, kChatBudgetMax)));
  const auto gaps = stratified(
      n, rng, [](double p) { return -std::log1p(-p) / kChatRate; });
  double due = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const ft::MatrixF& sys = system[static_cast<std::size_t>(which[i])];
    const auto user_rows = static_cast<std::size_t>(user[i]);
    const ft::MatrixF turn = random_rows(user_rows, hidden, rng());
    ft::MatrixF p(sys.rows() + user_rows, hidden);
    std::memcpy(p.data(), sys.data(), sys.size() * sizeof(float));
    std::memcpy(p.data() + sys.size(), turn.data(),
                turn.size() * sizeof(float));
    w.prompts.push_back(std::move(p));
    due += gaps[i];
    w.due_s.push_back(due);
  }
  return w;
}

Workload make_long_doc(const Args& a, std::size_t hidden) {
  Workload w;
  w.name = "long_doc";
  w.loop = Loop::kClosed;
  w.clients = kLongDocClients;
  w.opt = base_options(kLongDocBatch);
  std::mt19937_64 rng(a.seed);
  const std::size_t n = kLongDocRequests.of(a);
  const auto rows = as_sizes(
      stratified(n, rng, uniform_int(kLongPromptMin, kLongPromptMax)));
  w.budgets = as_sizes(
      stratified(n, rng, uniform_int(kLongBudgetMin, kLongBudgetMax)));
  for (std::size_t i = 0; i < n; ++i) {
    w.prompts.push_back(random_rows(rows[i], hidden, rng()));
  }
  return w;
}

Workload make_chaos(const Args& a, std::size_t hidden) {
  Workload w;
  w.name = "chaos";
  w.loop = Loop::kBurst;
  w.chaos = true;
  w.opt = base_options(kChaosBatch);
  // tests/test_recovery.cpp's thresholds.  A clean run still flags GEMM I
  // threshold noise on about one decode tick in 300 at any relative
  // threshold; that noise is deterministic, so the twin flags the same tick,
  // exhausts the same retries and serves the same flagged bits.
  w.opt.efta.abft_rel_threshold = 0.08f;
  w.opt.efta.exp_log_threshold = 0.3f;
  w.opt.efta.snvr_slack = 1e-2f;
  w.opt.recovery.max_tick_retries = kChaosRetries;
  std::mt19937_64 rng(a.seed);
  const std::size_t n = kChaosRequests.of(a);
  // All requests queue at once, so which ones share a tick follows their
  // order: low-discrepancy sizes keep every stretch of the queue alike
  // from seed to seed.
  const auto rows = as_sizes(low_discrepancy(
      n, rng, kAlphaRows, uniform_int(kChaosPromptMin, kChaosPromptMax)));
  w.budgets = as_sizes(low_discrepancy(
      n, rng, kAlphaBudget, uniform_int(kChatBudgetMin, kChatBudgetMax)));
  for (std::size_t i = 0; i < n; ++i) {
    w.prompts.push_back(random_rows(rows[i], hidden, rng()));
  }
  w.fault_seed = rng();
  return w;
}

/// Untimed warm-up on prompts unrelated to the traffic: pages in the code,
/// spins up the OpenMP team and grows the pool's first tiles.
void warm_up(fs::DecodeEngine& e, std::size_t hidden, Faults faults) {
  ff::FaultInjector unarmed;
  for (std::uint64_t s = 0; s < 2; ++s) {
    e.submit(random_rows(80, hidden, 0xa11ce + s), 4);
  }
  e.run_until_idle(faults == Faults::kNone ? nullptr : &unarmed);
}

// --- one measured pass -----------------------------------------------------

/// Per-request timeline, in seconds of the pass's clock.
struct Track {
  RequestId id = 0;
  bool refused = false;
  double due = 0, submit = -1, admit = -1, first = -1, done = -1;
  double last_new = 0;
  std::size_t hw = 0;  ///< highest context reached while decoding
  std::size_t ctx = 0, shared = 0;  ///< last polled
};

/// One request's rows in one tick: what the layer replay rebuilds.
struct Item {
  std::uint32_t q_len;
  std::uint32_t ctx;  ///< context after the tick, own rows included
};

struct TickRec {
  double dur_s = 0;
  std::vector<Item> items;
};

struct RunLog {
  std::vector<Track> tracks;
  std::vector<double> itl_ms;   ///< gaps between new tokens
  std::vector<double> step_ms;  ///< busy ticks
  std::vector<double> batch;    ///< requests advanced per busy tick
  std::vector<double> lag_ms;   ///< open loop: submit - due
  std::vector<TickRec> ticks;   ///< traced passes only
  std::vector<std::vector<float>> hidden;  ///< final hidden per request
  std::vector<fs::RequestHealth> health;   ///< final health per request
  fs::StepStats stats;          ///< merged over the pass
  double busy_s = 0, window_s = 0;
  double trace_s = 0;  ///< spent recording the trace inside the loop
  std::size_t peak_tiles = 0, peak_kv_bytes = 0;
  std::vector<double> kv_bytes_per_token;
  std::size_t injected = 0;
  /// Injected flips whose tick ran no retry: nothing detected them.
  std::size_t undetected = 0;
  /// Requests that took part in a tick with an undetected flip.
  std::vector<bool> exposed;
  std::size_t preemptions = 0;
  double peak_rss_mib = 0;
};

std::string step_args(const fs::StepStats& s, std::size_t batch) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"batch\": %zu, \"rows\": %zu, \"prefill_rows\": %zu, "
                "\"decoded\": %zu, \"admitted\": %zu, \"retired\": %zu, "
                "\"preempted\": %zu, \"evicted\": %zu, \"shared_tiles\": %zu, "
                "\"retried\": %zu",
                batch, s.active, s.prefill_rows, s.decoded, s.admitted,
                s.retired, s.preempted, s.evicted, s.shared_tiles, s.retried);
  return buf;
}

/// One measured pass of a workload through one engine, advanced a tick at a
/// time.  The pass's clock runs only inside tick(), so of two passes stepped
/// in lockstep (chaos and its twin) each times only its own ticks; the trace
/// places each pass's spans on that pass's clock.
class Pass {
 public:
  Pass(const Workload& w, fs::DecodeEngine& eng, Faults faults, Tracer* tr,
       int pid)
      : w_(w),
        eng_(eng),
        faults_(faults),
        tr_(tr),
        pid_(pid),
        n_(w.prompts.size()),
        fault_rng_(w.fault_seed),
        trace_t0_(tr ? tr->now_us() : 0.0) {
    log_.tracks.resize(n_);
    log_.exposed.assign(n_, false);
  }

  [[nodiscard]] bool done() const {
    return stalled_ || finished_ >= n_ || elapsed_ >= kPassDeadlineS;
  }
  void tick();
  /// Reads every request's final state, records the request spans and
  /// retires the finished requests (untimed) so their tiles go back.
  RunLog finish();

 private:
  [[nodiscard]] double now() const {
    return elapsed_ + seconds_since(resumed_);
  }
  void submit(std::size_t i, double due);

  const Workload& w_;
  fs::DecodeEngine& eng_;
  Faults faults_;
  Tracer* tr_;
  int pid_;
  std::size_t n_;
  std::mt19937_64 fault_rng_;
  double trace_t0_;
  RunLog log_;
  std::vector<std::size_t> inflight_, still_;
  std::size_t next_ = 0, finished_ = 0;
  bool started_ = false, stalled_ = false;
  double elapsed_ = 0.0;
  Clock::time_point resumed_;
};

void Pass::submit(std::size_t i, double due) {
  Track& k = log_.tracks[i];
  k.due = due;
  k.submit = now();
  try {
    k.id = eng_.submit(w_.prompts[i], w_.budgets[i]);
    inflight_.push_back(i);
  } catch (const std::invalid_argument&) {
    k.refused = true;
    k.done = k.submit;
    ++finished_;
  }
  if (w_.loop == Loop::kOpen) log_.lag_ms.push_back((k.submit - due) * 1e3);
}

void Pass::tick() {
  resumed_ = Clock::now();
  if (!started_) {
    started_ = true;
    if (w_.loop == Loop::kBurst) {
      for (; next_ < n_; ++next_) submit(next_, 0.0);
    } else if (w_.loop == Loop::kClosed) {
      for (; next_ < std::min(n_, w_.clients); ++next_) submit(next_, 0.0);
    }
  }
  if (w_.loop == Loop::kOpen) {
    for (; next_ < n_ && w_.due_s[next_] <= now(); ++next_) {
      submit(next_, w_.due_s[next_]);
    }
  }
  if (eng_.active() + eng_.queued() == 0) {
    if (w_.loop == Loop::kOpen && next_ < n_) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(w_.due_s[next_] - now()));
    } else {
      stalled_ = true;  // requests left, nothing to run: the checks report it
    }
    elapsed_ = now();
    return;
  }

  ff::FaultInjector inj;  // unarmed: the twin's serial path
  if (faults_ == Faults::kChaos) {
    const ff::Site site = kChaosSites[fault_rng_() % std::size(kChaosSites)];
    inj = ff::FaultInjector::single(site, fault_rng_() % kChaosMaxCallIndex,
                                    30);
  }
  const double s0 = now();
  const fs::StepStats st = eng_.step(faults_ == Faults::kNone ? nullptr : &inj);
  const double s1 = now();
  log_.stats += st;
  log_.injected += inj.injected();
  log_.busy_s += s1 - s0;
  // A flip that tripped no retry went undetected and may have changed the
  // bits of any request in the tick.
  const bool undetected = inj.injected() > 0 && st.retried == 0;
  if (undetected) ++log_.undetected;

  TickRec rec;
  std::size_t advanced = 0, live_ctx = 0;
  still_.clear();
  std::size_t newly_done = 0;
  for (const std::size_t i : inflight_) {
    Track& k = log_.tracks[i];
    const fs::RequestState st1 = eng_.state(k.id);
    const std::size_t ctx = eng_.context_length(k.id);
    const std::size_t shared = eng_.shared_tile_count(k.id);
    if (undetected && st1 != fs::RequestState::kQueued) log_.exposed[i] = true;
    const bool live = st1 == fs::RequestState::kPrefilling ||
                      st1 == fs::RequestState::kDecoding;
    if (live) {
      if (k.admit < 0) k.admit = s0;
      live_ctx += ctx;
      // Rows computed this tick: context growth minus attached prefix
      // tiles (a preempted request's context drops to 0 instead).
      const auto grew = static_cast<long long>(ctx) -
                        static_cast<long long>(k.ctx) -
                        static_cast<long long>(kTileRows * shared) +
                        static_cast<long long>(kTileRows * k.shared);
      if (grew > 0) {
        ++advanced;
        rec.items.push_back(Item{static_cast<std::uint32_t>(grew),
                                 static_cast<std::uint32_t>(ctx)});
      }
    }
    bool done = st1 == fs::RequestState::kRetired;
    if (st1 == fs::RequestState::kDecoding) {
      if (k.first < 0) {
        k.first = s1;
        k.hw = ctx;
        k.last_new = s1;
      } else if (ctx > k.hw) {
        // Tokens past the high-water mark are new; a preempted request
        // replaying below it produces none.
        const double gap =
            (s1 - k.last_new) * 1e3 / static_cast<double>(ctx - k.hw);
        for (std::size_t t = k.hw; t < ctx; ++t) log_.itl_ms.push_back(gap);
        k.hw = ctx;
        k.last_new = s1;
      }
      done = ctx >= w_.prompts[i].rows() + w_.budgets[i];
    }
    k.ctx = ctx;
    k.shared = shared;
    if (done) {
      k.done = s1;
      ++finished_;
      ++newly_done;
    } else {
      still_.push_back(i);
    }
  }
  inflight_.swap(still_);
  if (w_.loop == Loop::kClosed) {
    for (std::size_t d = 0; d < newly_done && next_ < n_; ++d, ++next_) {
      submit(next_, now());
    }
  }

  if (st.active > 0 || st.retried > 0) {
    log_.step_ms.push_back((s1 - s0) * 1e3);
    log_.batch.push_back(static_cast<double>(advanced));
    log_.peak_tiles = std::max(log_.peak_tiles, eng_.kv_tiles_in_use());
    log_.peak_kv_bytes = std::max(log_.peak_kv_bytes, eng_.kv_bytes());
    if (live_ctx > 0) {
      log_.kv_bytes_per_token.push_back(static_cast<double>(eng_.kv_bytes()) /
                                        static_cast<double>(live_ctx));
    }
    if (tr_) {
      const double r0 = now();
      tr_->span("serve.step", "serve", trace_t0_ + s0 * 1e6, (s1 - s0) * 1e6,
                pid_, 0, step_args(st, advanced));
      rec.dur_s = s1 - s0;
      log_.ticks.push_back(std::move(rec));
      log_.trace_s += now() - r0;
    }
  }
  elapsed_ = now();
}

RunLog Pass::finish() {
  log_.peak_rss_mib = peak_rss_mib();
  for (const Track& k : log_.tracks) {
    log_.window_s = std::max(log_.window_s, k.done);
  }

  log_.hidden.resize(n_);
  log_.health.assign(n_, fs::RequestHealth::kClean);
  for (std::size_t i = 0; i < n_; ++i) {
    const Track& k = log_.tracks[i];
    if (k.refused) continue;
    const auto h = eng_.hidden(k.id);
    log_.hidden[i].assign(h.begin(), h.end());
    log_.health[i] = eng_.health(k.id);
    log_.preemptions += eng_.preemption_count(k.id);
  }
  if (tr_) {
    for (std::size_t i = 0; i < n_; ++i) {
      const Track& k = log_.tracks[i];
      if (k.refused || k.admit < 0) continue;
      const auto us = [&](double s) { return trace_t0_ + s * 1e6; };
      tr_->span("queue", "request", us(k.due), (k.admit - k.due) * 1e6,
                pid_ + 1, i);
      if (k.first >= 0) {
        tr_->span("prefill", "request", us(k.admit),
                  (k.first - k.admit) * 1e6, pid_ + 1, i);
        if (k.done >= 0) {
          tr_->span("decode", "request", us(k.first),
                    (k.done - k.first) * 1e6, pid_ + 1, i);
        }
      }
    }
  }
  eng_.run_until_idle();
  return std::move(log_);
}

struct Passes {
  RunLog main;
  RunLog twin;  ///< chaos only
};

Passes run_passes(const Workload& w, fs::DecodeEngine& eng,
                  fs::DecodeEngine* twin, Tracer* tr) {
  Pass main(w, eng, w.chaos ? Faults::kChaos : Faults::kNone, tr, 1);
  if (twin == nullptr) {
    while (!main.done()) main.tick();
    return {main.finish(), {}};
  }
  // Chaos and its twin alternate ticks, so a change in the machine's speed
  // lands on both alike and recovery_overhead compares like with like.
  Pass clean(w, *twin, Faults::kTwin, tr, 3);
  while (!main.done() || !clean.done()) {
    if (!main.done()) main.tick();
    if (!clean.done()) clean.tick();
  }
  return {main.finish(), clean.finish()};
}

// --- checks ------------------------------------------------------------------

bool same_bits(const std::vector<float>& a, std::span<const float> b) {
  return a.size() == b.size() && !a.empty() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Every request committed exactly its budget; refused/failed ones fail.
std::size_t check_budgets(const Workload& w, const RunLog& log, Result& r,
                          const char* what) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < log.tracks.size(); ++i) {
    const Track& k = log.tracks[i];
    const std::size_t want = w.prompts[i].rows() + w.budgets[i];
    if (k.refused || k.done < 0 || k.ctx != want) {
      ++bad;
      r.fail(std::string(what) + ": request " + std::to_string(i) +
             (k.refused ? " refused"
                        : " committed " + std::to_string(k.ctx) + " of " +
                              std::to_string(want) + " context rows"));
    }
  }
  return bad;
}

/// Every kVerifyEvery-th request, re-run alone in a fresh engine, must end
/// on the same bits.
std::size_t check_solo(const Workload& w, const fx::Model& model,
                       const RunLog& log, Result& r) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < w.prompts.size(); i += kVerifyEvery) {
    fs::DecodeEngine solo(model, w.opt);
    const RequestId id = solo.submit(w.prompts[i], w.budgets[i]);
    solo.run_until_idle();
    if (!same_bits(log.hidden[i], solo.hidden(id))) {
      ++bad;
      r.fail(w.name + ": request " + std::to_string(i) +
             " differs from its solo re-run");
    }
  }
  return bad;
}

/// Chaos against its twin: nothing failed, faults were injected and
/// retried, and every request ends on the twin's bits and health.  A request
/// that took part in a tick whose flip went undetected may differ; it is
/// counted in `corrupted`, not failed, because no retry could recover it.
/// The twin flags its own deterministic threshold noise, so health is
/// compared with the twin's rather than required clean.
std::size_t check_twin(const Workload& w, const Passes& s, Result& r,
                       std::size_t& corrupted) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < w.prompts.size(); ++i) {
    const bool bits = same_bits(s.main.hidden[i], s.twin.hidden[i]);
    if (bits && s.main.health[i] == s.twin.health[i]) continue;
    if (s.main.exposed[i]) {
      if (!bits) ++corrupted;
      continue;
    }
    ++bad;
    r.fail("chaos: request " + std::to_string(i) + " differs from the twin" +
           (bits ? " in health" : ""));
  }
  if (s.main.stats.failed + s.twin.stats.failed != 0) {
    r.fail("chaos: " + std::to_string(s.main.stats.failed) + " failed, twin " +
           std::to_string(s.twin.stats.failed));
  }
  if (s.main.injected == 0 || s.main.stats.retried == 0) {
    r.fail("chaos: no fault was injected and retried");
  }
  return bad;
}

// --- layer replay ------------------------------------------------------------

struct ReplayTick {
  double ln_s = 0, linear_s = 0, ffn_s = 0, append_s = 0, decode_s = 0;
  double step_s = 0;
  std::size_t rows = 0;
  double kv_bytes = 0;  ///< KV bytes the decode kernel streams (computed)
};

/// Halves one (layer, head) tile streams through the kF16T decode path:
/// the pre-transposed K image with its two checksum blocks, V and its two
/// column-checksum blocks (core/decode.hpp, KvSlice::f16t).
std::size_t tile_stream_halves(std::size_t dim, std::size_t stride) {
  return kTileRows * dim + 2 * stride * dim + kTileRows * dim +
         2 * kTileRows * stride;
}

/// Rebuild ~kReplayTicks sampled ticks of a traced pass on a private pool and
/// time the public layer calls one tick makes (run_tick_solo's sequence).
/// `serial` passes an unarmed injector, as the chaos ticks do, which keeps
/// attention on its serial path.
std::vector<ReplayTick> replay_layers(const fx::Model& model,
                                      const fc::EftaOptions& efta,
                                      const RunLog& log, Tracer& tr,
                                      std::uint64_t seed, bool serial) {
  const auto& cfg = model.config();
  const std::size_t hidden = cfg.hidden, heads = cfg.heads;
  const std::size_t dim = cfg.head_dim(), layers = cfg.layers;
  const std::size_t stride = static_cast<std::size_t>(efta.stride);

  std::vector<std::size_t> picked;
  const std::size_t step = std::max<std::size_t>(1, log.ticks.size() /
                                                        kReplayTicks);
  std::size_t max_rows = 1, max_ctx = 1;
  for (std::size_t t = 0; t < log.ticks.size(); t += step) {
    if (log.ticks[t].items.empty()) continue;
    picked.push_back(t);
    std::size_t rows = 0;
    for (const Item& it : log.ticks[t].items) {
      rows += it.q_len;
      max_ctx = std::max<std::size_t>(max_ctx, it.ctx);
    }
    max_rows = std::max(max_rows, rows);
  }

  ft::MatrixF x_src(max_rows, hidden);
  ft::fill_normal(x_src, seed);
  // Cached K/V per layer: random rows through the layer's own ln1 and K/V
  // projections, so cached scores sit in the range the engine's do.
  std::vector<ft::MatrixH> k_src, v_src;
  {
    ft::MatrixF rows(max_ctx, hidden);
    ft::fill_normal(rows, seed + 1);
    for (const fx::Block& blk : model.blocks()) {
      ft::MatrixF h = rows, km(max_ctx, hidden), vm(max_ctx, hidden);
      blk.ln1().forward(h);
      blk.wk().forward(h, km);
      blk.wv().forward(h, vm);
      k_src.emplace_back(max_ctx, hidden);
      v_src.emplace_back(max_ctx, hidden);
      ft::narrow(km, {k_src.back().data(), k_src.back().size()});
      ft::narrow(vm, {v_src.back().data(), v_src.back().size()});
    }
  }
  fs::TilePool pool(fs::TilePoolOptions{layers, heads, dim, 0, efta.stride,
                                        fc::ImagePolicy::kF16T});
  const auto mode = ftt::transformer::LinearProtect::kStridedAbft;
  ff::FaultInjector unarmed;
  ff::FaultInjector* const inj = serial ? &unarmed : nullptr;

  std::vector<ReplayTick> out;
  for (const std::size_t t : picked) {
    const TickRec& rec = log.ticks[t];
    ReplayTick rt;
    rt.step_s = rec.dur_s;
    std::vector<std::unique_ptr<fs::PagedKvCache>> caches;
    std::vector<std::size_t> row0;
    for (const Item& it : rec.items) {
      auto c = std::make_unique<fs::PagedKvCache>(pool, fc::TileFmt::kF16);
      if (!c->ensure_capacity(it.ctx)) {
        throw std::logic_error("replay: unbounded pool refused a tile");
      }
      const std::size_t before = it.ctx - it.q_len;
      if (before > 0) {
        for (std::size_t l = 0; l < layers; ++l) {
          c->append_chunk(l, {k_src[l].data(), before * hidden},
                          {v_src[l].data(), before * hidden}, before);
        }
      }
      caches.push_back(std::move(c));
      row0.push_back(rt.rows);
      rt.rows += it.q_len;
      rt.kv_bytes += static_cast<double>(
          ((it.ctx + kTileRows - 1) / kTileRows) * layers * heads *
          tile_stream_halves(dim, stride) * sizeof(Half));
    }
    const std::size_t T = rt.rows;
    ft::MatrixF X(T, hidden);
    std::memcpy(X.data(), x_src.data(), X.size() * sizeof(float));

    const double tick_us = tr.now_us();
    const auto timed = [&](const char* name, double& acc, auto&& f) {
      const double us0 = tr.now_us();
      const double s = time_s(f);
      acc += s;
      tr.span(name, "replay", us0, s * 1e6, 5, 0);
    };
    for (std::size_t l = 0; l < layers; ++l) {
      const fx::Block& blk = model.blocks()[l];
      ft::MatrixF h = X;
      timed("layernorm", rt.ln_s, [&] { blk.ln1().forward(h); });
      ft::MatrixF qm(T, hidden), km(T, hidden), vm(T, hidden);
      timed("linear.qkv", rt.linear_s, [&] {
        blk.wq().forward(h, qm, mode, inj);
        blk.wk().forward(h, km, mode, inj);
        blk.wv().forward(h, vm, mode, inj);
      });
      ft::MatrixH qh(T, hidden), kh(T, hidden), vh(T, hidden);
      ft::narrow(qm, {qh.data(), qh.size()});
      ft::narrow(km, {kh.data(), kh.size()});
      ft::narrow(vm, {vh.data(), vh.size()});
      timed("append", rt.append_s, [&] {
        for (std::size_t e = 0; e < caches.size(); ++e) {
          const std::size_t q = rec.items[e].q_len;
          caches[e]->append_chunk(l, {&kh(row0[e], 0), q * hidden},
                                  {&vh(row0[e], 0), q * hidden}, q);
        }
      });
      ft::MatrixF attn(T, hidden);
      std::vector<fc::DecodeWorkItem> items;
      for (std::size_t e = 0; e < caches.size(); ++e) {
        for (std::size_t hd = 0; hd < heads; ++hd) {
          items.push_back(fc::DecodeWorkItem{
              caches[e]->slice(l, hd), &qh(row0[e], hd * dim),
              &attn(row0[e], hd * dim), rec.items[e].q_len, hidden, hidden});
        }
      }
      timed("decode", rt.decode_s,
            [&] { fc::efta_decode_batch(items, efta, inj); });
      ft::MatrixF proj(T, hidden);
      timed("linear.wo", rt.linear_s,
            [&] { blk.wo().forward(attn, proj, mode, inj); });
      for (std::size_t i = 0; i < X.size(); ++i) X.data()[i] += proj.data()[i];
      ft::MatrixF h2 = X;
      timed("layernorm", rt.ln_s, [&] { blk.ln2().forward(h2); });
      ft::MatrixF f(T, hidden);
      timed("ffn", rt.ffn_s, [&] { blk.ffn().forward(h2, f, true, inj); });
      for (std::size_t i = 0; i < X.size(); ++i) X.data()[i] += f.data()[i];
    }
    timed("layernorm", rt.ln_s, [&] { model.final_ln().forward(X); });
    tr.span("replay.tick", "replay", tick_us, tr.now_us() - tick_us, 5, 1);
    out.push_back(rt);
  }
  return out;
}

// --- metrics -----------------------------------------------------------------

std::vector<double> ttft_ms(const RunLog& log) {
  std::vector<double> v;
  for (const Track& k : log.tracks) {
    if (!k.refused && k.first >= 0) v.push_back((k.first - k.due) * 1e3);
  }
  return v;
}

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

/// The serving metrics read straight off the measured pass.
void add_serving_metrics(const Workload& w, const Passes& s, Result& r) {
  const RunLog& m = s.main;
  const auto ttft = ttft_ms(m);
  r.add("tokens_per_s", static_cast<double>(m.stats.active) / m.busy_s, "1/s",
        m.step_ms.size());
  // The latency a user of the workload waits on: time to first token, or
  // in a burst (where that is only queue position) the gap between tokens.
  r.add_quantile("latency_p50_ms", w.loop == Loop::kBurst ? m.itl_ms : ttft,
                 0.5, "ms");
  r.add("peak_rss_mib", m.peak_rss_mib, "MiB");
  r.add_quantile("ttft_p90_ms", ttft, 0.9, "ms");
  r.add_quantile("itl_p50_ms", m.itl_ms, 0.5, "ms");
  r.add_quantile("itl_p99_ms", m.itl_ms, 0.99, "ms");
  if (w.loop == Loop::kOpen) {
    // Refused and unfinished requests count as misses.
    std::size_t met = 0;
    for (std::size_t i = 0; i < m.tracks.size(); ++i) {
      const Track& k = m.tracks[i];
      if (k.refused || k.first < 0 || k.done < 0) continue;
      const double mean_itl_ms =
          (k.done - k.first) * 1e3 / static_cast<double>(w.budgets[i]);
      if ((k.first - k.due) * 1e3 <= kSloTtftMs && mean_itl_ms <= kSloItlMs) {
        ++met;
      }
    }
    r.add("slo_attainment", static_cast<double>(met) /
                                static_cast<double>(m.tracks.size()),
          "fraction", m.tracks.size());
  }
  r.add("peak_kv_mib", mib(static_cast<double>(m.peak_kv_bytes)), "MiB");
  if (w.chaos) {
    r.add("recovery_overhead", m.busy_s / s.twin.busy_s, "ratio");
  }
}

/// Per-layer metrics of a traced pass plus its layer replay.
void add_layer_metrics(const Workload& w, const fx::Model& model,
                       const Passes& s, const std::vector<ReplayTick>& rep,
                       double stream_gbps, std::size_t corrupted, Result& r) {
  const RunLog& m = s.main;
  const auto& st = m.stats;
  const double ticks = static_cast<double>(m.step_ms.size());

  r.add_quantile("serve.step_ms_p50", m.step_ms, 0.5, "ms");
  r.add_quantile("serve.step_ms_p99", m.step_ms, 0.99, "ms");
  r.add("serve.ticks", ticks, "count");
  r.add("serve.rows_per_tick", static_cast<double>(st.active) / ticks, "rows",
        m.step_ms.size());
  r.add("serve.batch_mean", mean(m.batch), "requests", m.batch.size());
  r.add("serve.idle_frac", 1.0 - m.busy_s / m.window_s, "fraction");

  std::vector<double> queue, prefill;
  for (const Track& k : m.tracks) {
    if (k.refused || k.admit < 0) continue;
    queue.push_back((k.admit - k.due) * 1e3);
    if (k.first >= 0) prefill.push_back((k.first - k.admit) * 1e3);
  }
  r.add_quantile("sched.queue_wait_p50_ms", queue, 0.5, "ms");
  r.add_quantile("sched.queue_wait_p90_ms", queue, 0.9, "ms");
  r.add_quantile("sched.prefill_ms_p50", prefill, 0.5, "ms");
  r.add("sched.preempted", static_cast<double>(st.preempted), "count");
  r.add("sched.preempt_frac", static_cast<double>(m.preemptions) /
                                  static_cast<double>(m.tracks.size()),
        "fraction", m.tracks.size());
  r.add_quantile("gen.lag_p99_ms", m.lag_ms, 0.99, "ms");

  const double attached = static_cast<double>(st.shared_tiles * kTileRows);
  r.add("pool.prefix_hit_frac",
        attached / (attached + static_cast<double>(st.prefill_rows)),
        "fraction");
  r.add("pool.evicted", static_cast<double>(st.evicted), "count");
  r.add("pool.peak_tiles", static_cast<double>(m.peak_tiles), "tiles");
  r.add("pool.kv_bytes_per_token", mean(m.kv_bytes_per_token), "B",
        m.kv_bytes_per_token.size());

  ReplayTick sum;
  std::size_t appended = 0;
  for (const ReplayTick& t : rep) {
    sum.ln_s += t.ln_s;
    sum.linear_s += t.linear_s;
    sum.ffn_s += t.ffn_s;
    sum.append_s += t.append_s;
    sum.decode_s += t.decode_s;
    sum.step_s += t.step_s;
    sum.kv_bytes += t.kv_bytes;
    appended += t.rows * model.config().layers;
  }
  const double n = std::max<double>(1.0, static_cast<double>(rep.size()));
  const double per_tick_ms = 1e3 / n;
  const std::size_t samples = rep.size();
  const double layers_s =
      sum.ln_s + sum.linear_s + sum.ffn_s + sum.append_s + sum.decode_s;
  r.add("serve.other_ms_per_tick", (sum.step_s - layers_s) * per_tick_ms,
        "ms", samples);
  r.add("pool.append_us_per_row",
        sum.append_s * 1e6 /
            std::max<double>(1.0, static_cast<double>(appended)),
        "us", samples);

  double weights = 0.0;
  for (const fx::Block& b : model.blocks()) {
    weights += static_cast<double>(
        b.wq().weight().size() + b.wk().weight().size() +
        b.wv().weight().size() + b.wo().weight().size() +
        b.ffn().w1().weight().size() + b.ffn().w2().weight().size());
  }
  double rows = 0.0;
  for (const ReplayTick& t : rep) rows += static_cast<double>(t.rows);
  r.add("linear.ms_per_tick", sum.linear_s * per_tick_ms, "ms", samples);
  r.add("ffn.ms_per_tick", sum.ffn_s * per_tick_ms, "ms", samples);
  r.add("layernorm.ms_per_tick", sum.ln_s * per_tick_ms, "ms", samples);
  // Shares are of the replayed tick: numerator and denominator come from
  // the same pass, so machine drift between window and replay cancels.
  r.add("linear.share", (sum.linear_s + sum.ffn_s) / layers_s, "fraction",
        samples);
  r.add("linear.weight_mib_per_tick", mib(weights * sizeof(Half)), "MiB");
  r.add("linear.gflops", 2.0 * rows * weights / (sum.linear_s + sum.ffn_s) /
                             1e9,
        "GFLOP/s", samples);

  const double gbps = sum.kv_bytes / sum.decode_s / 1e9;
  r.add("decode.ms_per_tick", sum.decode_s * per_tick_ms, "ms", samples);
  r.add("decode.share", sum.decode_s / layers_s, "fraction", samples);
  r.add("decode.kv_mib_per_tick", mib(sum.kv_bytes / n), "MiB", samples);
  r.add("decode.gbps", gbps, "GB/s", samples);
  r.add("decode.gbps_frac", gbps / stream_gbps, "fraction", samples);
  r.add("machine.stream_gbps", stream_gbps, "GB/s");

  // Recovery and ABFT outcomes; `clean` is the pass without injection.
  const RunLog& clean = w.chaos ? s.twin : m;
  const auto& ct = clean.stats;
  r.add("recovery.ticks_retried", static_cast<double>(st.retried), "count");
  r.add("recovery.retry_frac", static_cast<double>(st.retried) / ticks,
        "fraction");
  r.add("recovery.ticks_recovered", static_cast<double>(st.recovered),
        "count");
  r.add("fault.injected", static_cast<double>(m.injected), "count");
  r.add("fault.undetected", static_cast<double>(m.undetected), "count");
  r.add("fault.silent_corruptions", static_cast<double>(corrupted), "count");
  r.add("abft.attention_detected",
        static_cast<double>(st.attention.total_detected()), "count");
  r.add("abft.attention_corrected",
        static_cast<double>(st.attention.total_corrected()), "count");
  r.add("abft.linear_detected", static_cast<double>(st.linear.flagged),
        "count");
  r.add("abft.linear_corrected",
        static_cast<double>(st.linear.corrected + st.linear.recomputed +
                            st.linear.checksum_repairs),
        "count");
  r.add("abft.clean_flags_per_ktick",
        1e3 *
            static_cast<double>(ct.attention.total_detected() +
                                ct.linear.flagged) /
            static_cast<double>(std::max<std::size_t>(1, clean.step_ms.size())),
        "1/ktick");
}

void print_pass(const char* what, const RunLog& log) {
  std::printf("  %-8s %zu requests, %zu busy ticks, %.3f s busy of %.3f s, "
              "%zu rows, %zu preemptions, %zu evictions, %zu retries\n",
              what, log.tracks.size(), log.step_ms.size(), log.busy_s,
              log.window_s, log.stats.active, log.stats.preempted,
              log.stats.evicted, log.stats.retried);
}

Result run_serving(const Args& a,
                   Workload (*make)(const Args&, std::size_t)) {
  Result r;
  const fx::ModelConfig cfg = model_config();
  std::unique_ptr<fx::Model> model;
  Workload w;
  std::unique_ptr<fs::DecodeEngine> eng, twin;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    eng.reset();
    twin.reset();
    setup.push_back(time_s([&] {
      model = std::make_unique<fx::Model>(cfg, kModelSeed);
      w = make(a, cfg.hidden);
      eng = std::make_unique<fs::DecodeEngine>(*model, w.opt);
      warm_up(*eng, cfg.hidden, w.chaos ? Faults::kChaos : Faults::kNone);
      if (w.chaos) {
        twin = std::make_unique<fs::DecodeEngine>(*model, w.opt);
        warm_up(*twin, cfg.hidden, Faults::kTwin);
      }
    }));
  }
  r.add("setup_s", median(setup), "s", setup.size());

  // With a trace path the one measured pass is traced: spans are recorded
  // outside step(), and the layer replay runs after the window.
  Tracer tr(!a.trace.empty());
  const Passes s =
      run_passes(w, *eng, twin.get(), tr.enabled() ? &tr : nullptr);
  print_pass(w.chaos ? "chaos" : "run", s.main);
  if (w.chaos) print_pass("twin", s.twin);

  // Checks: budgets, and bit-identity with solo re-runs or, under chaos,
  // with the twin.
  std::size_t failed = check_budgets(w, s.main, r, w.name.c_str());
  std::size_t corrupted = 0;
  if (w.chaos) {
    failed += check_budgets(w, s.twin, r, "twin");
    failed += check_twin(w, s, r, corrupted);
  } else {
    failed += check_solo(w, *model, s.main, r);
  }
  r.attempted = w.prompts.size();
  r.failed = std::min(failed, r.attempted);
  add_serving_metrics(w, s, r);

  if (tr.enabled()) {
    const double stream = stream_triad_gbps();
    // The first replay pass faults in the private pool's tiles and warms
    // the code; the second is the one timed.
    Tracer untraced(false);
    (void)replay_layers(*model, w.opt.efta, s.main, untraced, a.seed, w.chaos);
    const auto rep =
        replay_layers(*model, w.opt.efta, s.main, tr, a.seed, w.chaos);
    add_layer_metrics(w, *model, s, rep, stream, corrupted, r);
    r.add("trace.overhead_pct", 100.0 * s.main.trace_s / s.main.busy_s, "%");
    if (!tr.write(a.trace)) r.fail("cannot write trace " + a.trace);
  }
  return r;
}

}  // namespace

Result run_chat(const Args& a) { return run_serving(a, make_chat); }
Result run_long_doc(const Args& a) { return run_serving(a, make_long_doc); }
Result run_chaos(const Args& a) { return run_serving(a, make_chaos); }

}  // namespace ftbench
