#include "attention/kv_stage.hpp"

#include <algorithm>

#include "numeric/gemm_simd.hpp"

namespace ftt::attention {

void KvStage::stage(const numeric::Half* k, const numeric::Half* v,
                    std::size_t seq, std::size_t dim, std::size_t block) {
  dim_ = dim;
  kt_.resize(seq * dim);
  v_.resize(seq * dim);
  // Widen all of K into the V buffer first (it is overwritten right after),
  // then transpose block by block out of it.
  numeric::halves_to_floats(k, v_.data(), seq * dim);
  for (std::size_t c0 = 0; c0 < seq; c0 += block) {
    const std::size_t rows = std::min(block, seq - c0);
    numeric::transpose_f32(v_.data() + c0 * dim, rows, dim,
                           kt_.data() + c0 * dim);
  }
  numeric::halves_to_floats(v, v_.data(), seq * dim);
}

}  // namespace ftt::attention
