#pragma once
// Non-GEMM transformer layers: layer normalization, GELU with activation
// range restriction, and the feed-forward block of Fig. 1 (linear projection
// with ABFT -> activation range restriction -> linear projection with ABFT).

#include "abft/report.hpp"
#include "fault/fault.hpp"
#include "transformer/linear.hpp"

namespace ftt::transformer {

/// Standard layer normalization over the feature dimension.
class LayerNorm {
 public:
  explicit LayerNorm(std::size_t features, float eps = 1e-5f)
      : gamma_(features, 1.0f), beta_(features, 0.0f), eps_(eps) {}

  /// Throws std::invalid_argument unless x.cols() equals the feature count
  /// (the sizes of gamma and beta).
  void forward(tensor::MatrixF& x) const;
  /// Normalize only rows [row0, row0 + rows).  LayerNorm is strictly
  /// per-row, so a row-range partition is bit-identical to the
  /// whole-matrix call for any split.  Throws std::out_of_range when
  /// the range runs past x's rows, and std::invalid_argument as above.
  void forward(tensor::MatrixF& x, std::size_t row0, std::size_t rows) const;

  std::vector<float>& gamma() noexcept { return gamma_; }
  std::vector<float>& beta() noexcept { return beta_; }

 private:
  std::vector<float> gamma_, beta_;
  float eps_;
};

/// tanh-approximation GELU with optional range restriction: outputs are
/// clamped to [-0.17, clamp_hi], the activation's theoretical range given a
/// bound on |x| — a corrupted activation outside that range is pinned back
/// (the paper's "activation range restriction", Fig. 1).
struct RangeRestrictedGelu {
  bool restrict_range = true;
  float clamp_hi = 64.0f;  ///< GELU(x) <= x, and post-LN inputs are bounded

  /// Returns the number of values the restriction clipped.
  std::size_t forward(tensor::MatrixF& x,
                      fault::FaultInjector* inj = nullptr) const;
};

/// Feed-forward block: Linear -> GELU(+restriction) -> Linear, both linears
/// under strided ABFT when `protect` is set.
class FeedForward {
 public:
  FeedForward(std::size_t hidden, std::size_t inner, std::uint64_t seed);

  struct Result {
    abft::Report abft;
    std::size_t activations_clipped = 0;
  };

  Result forward(const tensor::MatrixF& x, tensor::MatrixF& y, bool protect,
                 fault::FaultInjector* inj = nullptr) const;

  [[nodiscard]] sim::CostBreakdown costs(double m) const;
  [[nodiscard]] sim::CostBreakdown protection_costs(double m) const;

  [[nodiscard]] std::size_t hidden() const noexcept { return w1_.in_features(); }
  [[nodiscard]] std::size_t inner() const noexcept { return w1_.out_features(); }

  // Sub-module access: the reference checks in tests/test_linear.cpp call
  // the two linears and the GELU one by one (bit-identical to forward()),
  // and the benchmark reads the weight sizes.
  [[nodiscard]] const Linear& w1() const noexcept { return w1_; }
  [[nodiscard]] const Linear& w2() const noexcept { return w2_; }
  [[nodiscard]] const RangeRestrictedGelu& act() const noexcept {
    return act_;
  }

 private:
  Linear w1_, w2_;
  RangeRestrictedGelu act_;
};

}  // namespace ftt::transformer
