#include "attention/attention.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "numeric/gemm_simd.hpp"
#include "sim/mma.hpp"
#include "softmax/softmax.hpp"

namespace ftt::attention {

using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;
using tensor::Tensor4F;
using tensor::Tensor4H;
using tensor::load_slice;

namespace {

void store_slice(const MatrixF& m, Tensor4F& T, std::size_t b, std::size_t h) {
  auto dst = T.slice(b, h);
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = m.data()[i];
}

}  // namespace

void check_shapes(const Tensor4H& Q, const Tensor4H& K, const Tensor4H& V,
                  const Tensor4F& O, const char* fn) {
  const auto same = [&Q](const auto& T) {
    return T.batch() == Q.batch() && T.heads() == Q.heads() &&
           T.seq() == Q.seq() && T.dim() == Q.dim();
  };
  if (!same(K) || !same(V) || !same(O)) {
    throw std::invalid_argument(
        std::string(fn) +
        ": Q, K, V and O must share batch x heads x seq x dim");
  }
  if (Q.dim() == 0) {
    throw std::invalid_argument(std::string(fn) + ": dim must be positive");
  }
}

void standard_attention(const Tensor4H& Q, const Tensor4H& K,
                        const Tensor4H& V, Tensor4F& O, bool causal) {
  check_shapes(Q, K, V, O, "standard_attention");
  const float scale = 1.0f / std::sqrt(static_cast<float>(Q.dim()));
  const std::size_t slices = Q.batch() * Q.heads();

#pragma omp parallel for schedule(dynamic)
  for (std::size_t sl = 0; sl < slices; ++sl) {
    const std::size_t b = sl / Q.heads();
    const std::size_t h = sl % Q.heads();
    const MatrixH q = load_slice(Q, b, h, scale);
    const MatrixH k = load_slice(K, b, h);
    const MatrixH v = load_slice(V, b, h);

    MatrixF S(Q.seq(), Q.seq());
    sim::gemm_fp16_nt(q, k, S);
    if (causal) {
      for (std::size_t r = 0; r < Q.seq(); ++r) {
        for (std::size_t c = r + 1; c < Q.seq(); ++c) {
          S(r, c) = -std::numeric_limits<float>::infinity();
        }
      }
    }
    softmax::row_softmax(S);
    MatrixF out(Q.seq(), Q.dim());
    sim::gemm_f32h_nn(S, v, out);
    store_slice(out, O, b, h);
  }
}

void flash_attention(const Tensor4H& Q, const Tensor4H& K, const Tensor4H& V,
                     Tensor4F& O, std::size_t block, bool causal) {
  check_shapes(Q, K, V, O, "flash_attention");
  if (block == 0) {
    throw std::invalid_argument("flash_attention: block must be at least 1");
  }
  const std::size_t seq = Q.seq(), dim = Q.dim();
  if (seq == 0) return;
  const std::size_t B = std::min(block, seq);
  const std::size_t nblk = (seq + B - 1) / B;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
  const std::size_t slices = Q.batch() * Q.heads();

#pragma omp parallel
  {
    // Per-thread staging, reused across this thread's slices: K^T of every
    // column block at half width (dim x bc from c0 * dim on, the k-major B
    // operand gemm_f32_nnh widens in registers), the widened Q row block,
    // and the score / fp16-rounded probability tiles.  V is read in place:
    // row-major V already is GEMM II's k-major B operand.  Widening is
    // exact and transposition is pure data movement, so the products are
    // those of sim::gemm_fp16_nt / gemm_f32h_nn over the fp16 operands.
    std::vector<Half> kt(seq * dim);
    std::vector<float> qf(B * dim), sij(B * B), pf(B * B);
    std::vector<Half> ph(B * B);
#pragma omp for schedule(dynamic)
    for (std::size_t sl = 0; sl < slices; ++sl) {
      const std::size_t bb = sl / Q.heads();
      const std::size_t hh = sl % Q.heads();
      const MatrixH q = load_slice(Q, bb, hh, scale);
      const Half* k = K.slice(bb, hh).data();
      const Half* v = V.slice(bb, hh).data();
      for (std::size_t c0 = 0; c0 < seq; c0 += B) {
        numeric::transpose_h(k + c0 * dim, std::min(B, seq - c0), dim,
                             kt.data() + c0 * dim);
      }

      for (std::size_t i = 0; i < nblk; ++i) {
        const std::size_t r0 = i * B;
        const std::size_t br = std::min(B, seq - r0);
        numeric::halves_to_floats(q.data() + r0 * dim, qf.data(), br * dim);

        std::vector<float> m(br, -std::numeric_limits<float>::infinity());
        std::vector<float> l(br, 0.0f);
        MatrixF oacc(br, dim, 0.0f);

        for (std::size_t j = 0; j < nblk; ++j) {
          const std::size_t c0 = j * B;
          // Causal: block columns strictly above the diagonal never
          // contribute.
          if (causal && c0 > r0 + br - 1) break;
          const std::size_t bc = std::min(B, seq - c0);
          // Score tile, br x bc with row stride bc.
          numeric::gemm_f32_nnh(qf.data(), br, dim, kt.data() + c0 * dim, bc,
                                sij.data(), bc, /*accumulate=*/false);
          if (causal && c0 + bc > r0) {
            // Mask the diagonal block: column c0+c visible to row r0+r only
            // when c0+c <= r0+r.
            for (std::size_t r = 0; r < br; ++r) {
              for (std::size_t c = 0; c < bc; ++c) {
                if (c0 + c > r0 + r) {
                  sij[r * bc + c] = -std::numeric_limits<float>::infinity();
                }
              }
            }
          }

          for (std::size_t r = 0; r < br; ++r) {
            float* srow = sij.data() + r * bc;
            const float mnew = std::max(m[r], softmax::row_max(srow, bc));
            // exp(-inf) == 0 on the first pass.
            const float f = softmax::exp_shifted(m[r], mnew);
            softmax::exp_shifted(srow, mnew, srow, bc);
            float rowsum = 0.0f;
            for (std::size_t c = 0; c < bc; ++c) rowsum += srow[c];
            l[r] = f * l[r] + rowsum;
            for (std::size_t c = 0; c < dim; ++c) oacc(r, c) *= f;
            m[r] = mnew;
          }
          // P rounds through fp16 at the tensor-core boundary, once.
          numeric::floats_to_halves(sij.data(), ph.data(), br * bc);
          numeric::halves_to_floats(ph.data(), pf.data(), br * bc);
          numeric::gemm_f32_nnh(pf.data(), br, bc, v + c0 * dim, dim,
                                &oacc(0, 0), dim, /*accumulate=*/true);
        }

        for (std::size_t r = 0; r < br; ++r) {
          const float inv = 1.0f / l[r];
          for (std::size_t c = 0; c < dim; ++c) {
            O.at(bb, hh, r0 + r, c) = oacc(r, c) * inv;
          }
        }
      }
    }
  }
}

sim::CostBreakdown flash_attention_costs(const AttnShape& s,
                                         std::size_t block) {
  sim::CostBreakdown b;
  const double S = static_cast<double>(s.seq);
  const double D = static_cast<double>(s.dim);
  const double slices = static_cast<double>(s.slices());
  const double nblk = S / static_cast<double>(block);

  // LD/ST: Q/K/V read once from HBM, O written.  The per-row-block K/V
  // re-reads (nblk passes) are absorbed by the 40 MB L2 — the per-slice K/V
  // working set is a few hundred KB — so they do not hit HBM.
  (void)nblk;
  auto& mem = b[sim::Phase::kMemory];
  mem.hbm_bytes = slices * 4.0 * S * D * 2.0;
  mem.launches = 1;

  // GEMM I + GEMM II.
  b[sim::Phase::kGemm].tc_flops = slices * 4.0 * S * S * D;

  // Block softmax: max-compare, subtract, exp, sum-add over every score.
  auto& sm = b[sim::Phase::kSoftmax];
  sm.fp32_flops = slices * 3.0 * S * S;
  sm.sfu_ops = slices * S * S;

  // Rescale of the O accumulator each iteration + final normalization.
  b[sim::Phase::kRescale].fp32_flops = slices * (nblk * S * D + S * D);
  return b;
}

sim::CostBreakdown decoupled_attention_costs(const AttnShape& s) {
  sim::CostBreakdown b;
  const double S = static_cast<double>(s.seq);
  const double D = static_cast<double>(s.dim);
  const double slices = static_cast<double>(s.slices());

  // Three kernels; S and P round-trip HBM in fp32 (write + read each).
  auto& mem = b[sim::Phase::kMemory];
  mem.launches = 3;
  const double qkvo = 4.0 * S * D * 2.0;
  const double s_traffic = 2.0 * S * S * 4.0;  // S: written by K1, read by K2
  const double p_traffic = 2.0 * S * S * 4.0;  // P: written by K2, read by K3
  mem.hbm_bytes = slices * (qkvo + s_traffic + p_traffic);

  b[sim::Phase::kGemm].tc_flops = slices * 4.0 * S * S * D;

  auto& sm = b[sim::Phase::kSoftmax];
  sm.fp32_flops = slices * 3.0 * S * S;
  sm.sfu_ops = slices * S * S;
  b[sim::Phase::kRescale].fp32_flops = slices * S * S;  // 1/sum scaling
  return b;
}

double decoupled_workspace_bytes(const AttnShape& s) {
  const double S = static_cast<double>(s.seq);
  const double D = static_cast<double>(s.dim);
  const double slices = static_cast<double>(s.slices());
  const double qkvo = slices * 4.0 * S * D * 2.0;   // fp16 tensors
  const double inter = slices * 2.0 * S * S * 4.0;  // S and P in fp32
  return qkvo + inter;
}

}  // namespace ftt::attention
