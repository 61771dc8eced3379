#pragma once
// Linear (projection / feed-forward) layers with strided-ABFT protection.
//
// The paper protects every linear module — QKV/output projections and the
// feed-forward GEMMs — with the same tensor-checksum strided ABFT used inside
// EFTA (Fig. 1, right panel).  Weights are fp16 (tensor-core operands),
// activations are fp32 rounded through fp16 at the GEMM boundary, and the
// checksum tiles follow the 64-row TiledMMA footprint.
//
// Weights are constant, so each layer seals them once, at construction (and
// slice_out), into an abft::StridedAbft::Sealed operand: the k-major fp16
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

  /// Column-parallel shard: a Linear computing out-features
  /// [col0, col0 + cols) of this layer (the sealed image and checksum
  /// columns are copied once, at slice time).  Both col0 and cols must be
  /// multiples of the 64-column ABFT tile, so the shard's checksum tiles are
  /// exactly a subset of the full layer's — its forward() output values AND
  /// its per-tile ABFT report counters are bitwise/integer-exactly the full
  /// layer's restriction to those columns, which is what makes a
  /// column-sharded projection bit-identical to the solo engine for any
  /// shard count.  cols == 0 yields a valid empty shard whose forward() is
  /// a no-op.
  [[nodiscard]] Linear slice_out(std::size_t col0, std::size_t cols) const;

  /// Counts for one forward pass over M rows (unprotected payload).
  [[nodiscard]] sim::CostBreakdown costs(double m) const;
  /// Protection overhead for one forward pass.
  [[nodiscard]] sim::CostBreakdown protection_costs(double m) const;

 private:
  /// Slice constructor: adopt a pre-sealed operand and bias (slice_out).
  Linear(abft::StridedAbft::Sealed w, std::vector<float> bias);

  abft::StridedAbft::Sealed w_;  ///< W^T image + checksum columns
  std::vector<float> bias_;      ///< empty when bias is disabled
};

}  // namespace ftt::transformer
