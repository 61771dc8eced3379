#include "transformer/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftt::transformer {

using tensor::MatrixF;

void LayerNorm::forward(MatrixF& x) const { forward(x, 0, x.rows()); }

void LayerNorm::forward(MatrixF& x, std::size_t row0, std::size_t rows) const {
  const std::size_t C = x.cols();
  if (C != gamma_.size() || C != beta_.size()) {
    throw std::invalid_argument(
        "LayerNorm: x.cols() must equal the feature count of gamma and beta");
  }
  // Written so that row0 + rows cannot wrap.
  if (row0 > x.rows() || rows > x.rows() - row0) {
    throw std::out_of_range("LayerNorm: row range past the end of x");
  }
  const std::size_t R = row0 + rows;
  for (std::size_t r = row0; r < R; ++r) {
    float* row = &x(r, 0);
    float mean = 0.0f;
    for (std::size_t c = 0; c < C; ++c) mean += row[c];
    mean /= static_cast<float>(C);
    float var = 0.0f;
    for (std::size_t c = 0; c < C; ++c) {
      const float d = row[c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(C);
    const float inv = 1.0f / std::sqrt(var + eps_);
    for (std::size_t c = 0; c < C; ++c) {
      row[c] = (row[c] - mean) * inv * gamma_[c] + beta_[c];
    }
  }
}

std::size_t RangeRestrictedGelu::forward(MatrixF& x,
                                         fault::FaultInjector* inj) const {
  std::size_t clipped = 0;
  constexpr float kSqrt2OverPi = 0.7978845608f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    float g = 0.5f * v *
              (1.0f + std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v)));
    g = fault::corrupt(inj, fault::Site::kLinear, g);
    if (restrict_range) {
      // GELU's global minimum is ~-0.1700 at x ~ -0.7588; anything below is
      // impossible, anything above clamp_hi exceeds the bounded input range.
      if (g < -0.1701f || g > clamp_hi || !std::isfinite(g)) {
        g = std::clamp(std::isfinite(g) ? g : 0.0f, -0.1701f, clamp_hi);
        ++clipped;
      }
    }
    x.data()[i] = g;
  }
  return clipped;
}

FeedForward::FeedForward(std::size_t hidden, std::size_t inner,
                         std::uint64_t seed)
    : w1_(hidden, inner, seed), w2_(inner, hidden, seed + 1) {}

FeedForward::Result FeedForward::forward(const MatrixF& x, MatrixF& y,
                                         bool protect,
                                         fault::FaultInjector* inj) const {
  Result res;
  const auto mode =
      protect ? LinearProtect::kStridedAbft : LinearProtect::kNone;
  MatrixF h(x.rows(), w1_.out_features());
  res.abft += w1_.forward(x, h, mode, inj);
  RangeRestrictedGelu act = act_;
  act.restrict_range = protect;
  res.activations_clipped = act.forward(h, inj);
  res.abft += w2_.forward(h, y, mode, inj);
  return res;
}

sim::CostBreakdown FeedForward::costs(double m) const {
  sim::CostBreakdown b = w1_.costs(m) + w2_.costs(m);
  b[sim::Phase::kSoftmax].sfu_ops +=
      m * static_cast<double>(w1_.out_features());  // GELU tanh
  return b;
}

sim::CostBreakdown FeedForward::protection_costs(double m) const {
  sim::CostBreakdown b = w1_.protection_costs(m) + w2_.protection_costs(m);
  // Range restriction: one compare-and-clamp per activation.
  b[sim::Phase::kVerify].fp32_flops +=
      m * static_cast<double>(w1_.out_features());
  return b;
}

}  // namespace ftt::transformer
