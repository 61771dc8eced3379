#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftt::fault {

const char* site_name(Site s) noexcept {
  switch (s) {
    case Site::kGemm1:
      return "GEMM-I";
    case Site::kReduceMax:
      return "reduce-max";
    case Site::kExp:
      return "EXP";
    case Site::kReduceSum:
      return "reduce-sum";
    case Site::kRescale:
      return "rescale";
    case Site::kGemm2:
      return "GEMM-II";
    case Site::kChecksum:
      return "checksum";
    case Site::kLinear:
      return "linear";
    case Site::kCount:
      break;
  }
  return "?";
}

namespace {

void check_site(Site site) {
  if (static_cast<std::size_t>(site) >= kSiteCount) {
    throw std::invalid_argument(
        "FaultInjector: site is not one of the eight hook sites");
  }
}

}  // namespace

FaultInjector FaultInjector::single(Site site, std::uint64_t call_index,
                                    unsigned bit) {
  check_site(site);
  if (bit > 31) {
    throw std::invalid_argument("FaultInjector::single: bit must be 0..31");
  }
  FaultInjector f;
  f.mode_ = Mode::kSingle;
  f.single_site_ = site;
  f.single_index_ = call_index;
  f.single_bit_ = bit;
  f.next_hit_.fill(kNever);
  f.next_hit_[static_cast<std::size_t>(site)] =
      static_cast<std::int64_t>(call_index);
  return f;
}

FaultInjector FaultInjector::bernoulli(double per_value_prob,
                                       std::uint64_t seed,
                                       std::vector<Site> sites) {
  for (const Site s : sites) check_site(s);
  FaultInjector f;
  f.mode_ = Mode::kBernoulli;
  f.prob_ = std::clamp(per_value_prob, 0.0, 1.0);
  f.seed_ = seed;
  f.sites_ = std::move(sites);
  f.rng_.seed(seed);
  f.next_hit_.fill(kNever);
  if (f.prob_ > 0.0) {
    for (std::size_t i = 0; i < kSiteCount; ++i) {
      if (f.site_armed(static_cast<Site>(i))) f.next_hit_[i] = f.draw_gap();
    }
  }
  return f;
}

bool FaultInjector::skip(const FaultInjector& probe) noexcept {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (would_flip(i, probe.calls_[i])) return false;
  }
  for (std::size_t i = 0; i < kSiteCount; ++i) advance(i, probe.calls_[i]);
  return true;
}

bool FaultInjector::site_armed(Site s) const noexcept {
  if (sites_.empty()) return true;
  return std::find(sites_.begin(), sites_.end(), s) != sites_.end();
}

std::int64_t FaultInjector::draw_gap() noexcept {
  // Geometric skip: number of unaffected values before the next flip.
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double x = u(rng_);
  if (prob_ >= 1.0) return 0;
  const double g = std::floor(std::log1p(-x) / std::log1p(-prob_));
  if (!std::isfinite(g) || g > 4e18) return kNever;
  return static_cast<std::int64_t>(g);
}

float FaultInjector::do_flip(Site site, float v) noexcept {
  unsigned bit;
  if (mode_ == Mode::kSingle) {
    bit = single_bit_;
  } else {
    std::uniform_int_distribution<unsigned> bits(0, 31);
    bit = bits(rng_);
  }
  const float flipped = numeric::flip_bit_f32(v, bit);
  events_.push_back(Event{site, calls_[static_cast<std::size_t>(site)] - 1, bit,
                          v, flipped});
  auto& n = next_hit_[static_cast<std::size_t>(site)];
  n = (mode_ == Mode::kBernoulli) ? draw_gap() : kNever;
  return flipped;
}

void FaultInjector::reset() {
  events_.clear();
  calls_.fill(0);
  next_hit_.fill(kNever);
  if (mode_ == Mode::kSingle) {
    next_hit_[static_cast<std::size_t>(single_site_)] =
        static_cast<std::int64_t>(single_index_);
  } else if (mode_ == Mode::kBernoulli && prob_ > 0.0) {
    rng_.seed(seed_);
    for (std::size_t i = 0; i < kSiteCount; ++i) {
      if (site_armed(static_cast<Site>(i))) next_hit_[i] = draw_gap();
    }
  }
}

}  // namespace ftt::fault
