#pragma once
// Per-slice fp32 operand images for flash_attention.
//
// Flash streams every K/V column block against every Q row block, so
// copying and widening a block per (row-block, column-block) pair would
// convert the same data nblk times.  Each (batch, head) slice is staged
// once instead: K is widened and each column block transposed k-major — the
// B operand layout numeric::gemm_f32_nn consumes — and V is widened
// row-major.  Widening is exact and transposition is pure data movement,
// and the GEMMs keep their ascending-k accumulation order, so products over
// the images are bit-identical to sim::gemm_fp16_nt / gemm_f32h_nn over the
// fp16 operands.

#include <cstddef>
#include <vector>

#include "numeric/fp16.hpp"

namespace ftt::attention {

class KvStage {
 public:
  /// Stage one seq x dim K/V slice (dense row-major fp16) in column blocks
  /// of `block` rows; the last block may be ragged.  Buffers are reused
  /// across calls, so one stage per thread serves all its slices.
  void stage(const numeric::Half* k, const numeric::Half* v, std::size_t seq,
             std::size_t dim, std::size_t block);

  /// K rows [c0, c0 + rows) transposed, dim x rows (k-major); c0 must be a
  /// block start and `rows` that block's height.
  [[nodiscard]] const float* kt(std::size_t c0) const noexcept {
    return kt_.data() + c0 * dim_;
  }
  /// V rows from c0, row-major with row stride dim.
  [[nodiscard]] const float* v(std::size_t c0) const noexcept {
    return v_.data() + c0 * dim_;
  }

 private:
  std::vector<float> kt_, v_;
  std::size_t dim_ = 0;
};

}  // namespace ftt::attention
