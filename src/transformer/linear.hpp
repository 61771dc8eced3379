#pragma once
// Linear (projection / feed-forward) layers with strided-ABFT protection.
//
// The paper protects every linear module — QKV/output projections and the
// feed-forward GEMMs — with the same tensor-checksum strided ABFT used inside
// EFTA (Fig. 1, right panel).  Weights are fp16 (tensor-core operands),
// activations are fp32 rounded through fp16 at the GEMM boundary, and the
// checksum tiles follow the 64-row TiledMMA footprint.
//
// Weights are constant, so each layer seals them once, at construction, into
// an abft::StridedAbft::Sealed operand: the k-major fp16
// image W^T plus every tile's strided checksum columns.  forward() then runs
// one GEMM over the image and, when protected, one over the checksum columns
// — no per-call widen or transpose, and no per-call encode unless an
// injector's flip lands in one (abft::StridedAbft::apply).

#include <cstdint>
#include <span>

#include "abft/report.hpp"
#include "abft/strided_abft.hpp"
#include "fault/fault.hpp"
#include "sim/cost.hpp"
#include "tensor/tensor.hpp"

namespace ftt::transformer {

enum class LinearProtect { kNone, kStridedAbft };

class Linear {
 public:
  /// out_features must be a multiple of 64 (the checksum tile).
  Linear(std::size_t in_features, std::size_t out_features, std::uint64_t seed,
         bool bias = true);

  /// y = x W^T + b.  x: M x in, y: M x out.  Returns the ABFT report when
  /// protection is enabled.
  abft::Report forward(const tensor::MatrixF& x, tensor::MatrixF& y,
                       LinearProtect protect = LinearProtect::kNone,
                       fault::FaultInjector* inj = nullptr,
                       float rel_threshold = 0.02f) const;

  [[nodiscard]] std::size_t in_features() const noexcept {
    return w_.image.rows();
  }
  [[nodiscard]] std::size_t out_features() const noexcept {
    return w_.image.cols();
  }
  /// The sealed weight image W^T (in x out, k-major fp16) — the layer's
  /// only copy of its weights, read-only so the seal never goes stale.
  [[nodiscard]] const tensor::MatrixH& weight() const noexcept {
    return w_.image;
  }
  /// Empty when bias is disabled.
  [[nodiscard]] std::span<const float> bias() const noexcept { return bias_; }

  /// Counts for one forward pass over M rows (unprotected payload).
  [[nodiscard]] sim::CostBreakdown costs(double m) const;
  /// Protection overhead for one forward pass.
  [[nodiscard]] sim::CostBreakdown protection_costs(double m) const;

 private:
  abft::StridedAbft::Sealed w_;  ///< W^T image + checksum columns
  std::vector<float> bias_;      ///< empty when bias is disabled
};

}  // namespace ftt::transformer
