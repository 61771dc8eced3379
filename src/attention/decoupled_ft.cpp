#include "attention/decoupled_ft.hpp"

#include <cmath>
#include <omp.h>

#include "abft/element_abft.hpp"
#include "numeric/fp16.hpp"
#include "sim/mma.hpp"
#include "softmax/softmax.hpp"

namespace ftt::attention {

using tensor::MatrixF;
using tensor::MatrixH;
using tensor::Tensor4F;
using tensor::Tensor4H;
using tensor::load_slice;

namespace {

/// Kernel III building block: element-ABFT-protected O = P * V where P is the
/// fp32 softmax output (rounded through fp16 at the tensor-core boundary).
abft::Report element_abft_gemm_f32h(const MatrixF& P, const MatrixH& V,
                                    MatrixF& O, float threshold,
                                    fault::FaultInjector* inj) {
  const std::size_t M = P.rows(), K = P.cols(), N = V.cols();

  // CCG: two weighted column-sum rows of P (fp16-rounded like the payload).
  MatrixF p_chk(2, K);
  for (std::size_t k = 0; k < K; ++k) {
    float s1 = 0.0f, s2 = 0.0f;
    for (std::size_t i = 0; i < M; ++i) {
      const float v = numeric::round_to_half(P(i, k));
      s1 += v;
      s2 += static_cast<float>(i + 1) * v;
    }
    p_chk(0, k) = fault::corrupt(inj, fault::Site::kChecksum, s1);
    p_chk(1, k) = fault::corrupt(inj, fault::Site::kChecksum, s2);
  }

  sim::gemm_f32h_nn(P, V, O);
  if (inj) {
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        O(i, j) = inj->corrupt(fault::Site::kGemm2, O(i, j));
      }
    }
  }

  MatrixF col_chk(2, N);
  sim::gemm_f32h_nn(p_chk, V, col_chk);
  if (inj) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t j = 0; j < N; ++j) {
        col_chk(r, j) = inj->corrupt(fault::Site::kChecksum, col_chk(r, j));
      }
    }
  }
  return abft::ElementAbft::verify_correct(O, col_chk, threshold);
}

FtReport run_slice(const MatrixH& q, const MatrixH& k, const MatrixH& v,
                   Tensor4F& O, std::size_t bb, std::size_t hh,
                   const DecoupledFtOptions& opt, fault::FaultInjector* inj) {
  FtReport rep;
  const std::size_t seq = q.rows(), dim = q.cols();

  // --- Kernel I: ABFT-GEMM S = QK^T (element checksums, Eq. 8-9). ---
  MatrixF S(seq, seq);
  rep.gemm1 = abft::ElementAbft::gemm_nt(q, k, S, opt.abft_rel_threshold, inj,
                                         fault::Site::kGemm1);

  // --- Kernel II: DMR row softmax (Eq. 10-11). ---
  const softmax::DmrResult dmr = softmax::dmr_row_softmax(S, opt.dmr_eps, inj);
  rep.dmr_recomputes = dmr.recomputes;

  // --- Kernel III: ABFT-GEMM O = PV. ---
  MatrixF out(seq, dim);
  rep.gemm2 =
      element_abft_gemm_f32h(S, v, out, opt.abft_rel_threshold, inj);

  for (std::size_t r = 0; r < seq; ++r) {
    for (std::size_t c = 0; c < dim; ++c) O.at(bb, hh, r, c) = out(r, c);
  }
  return rep;
}

}  // namespace

FtReport decoupled_ft_attention(const Tensor4H& Q, const Tensor4H& K,
                                const Tensor4H& V, Tensor4F& O,
                                const DecoupledFtOptions& opt,
                                fault::FaultInjector* inj) {
  check_shapes(Q, K, V, O, "decoupled_ft_attention");
  const float scale = 1.0f / std::sqrt(static_cast<float>(Q.dim()));
  const std::size_t slices = Q.batch() * Q.heads();
  FtReport total;

  if (inj) {
    // Per-call delta, matching efta_attention / efta_decode_step: merged
    // reports sharing one injector must not double count flips.
    const std::size_t before = inj->injected();
    for (std::size_t sl = 0; sl < slices; ++sl) {
      const std::size_t b = sl / Q.heads(), h = sl % Q.heads();
      total += run_slice(load_slice(Q, b, h, scale), load_slice(K, b, h),
                         load_slice(V, b, h), O, b, h, opt, inj);
    }
    total.faults_injected = inj->injected() - before;
    return total;
  }

#pragma omp parallel
  {
    FtReport local;
#pragma omp for schedule(dynamic) nowait
    for (std::size_t sl = 0; sl < slices; ++sl) {
      const std::size_t b = sl / Q.heads(), h = sl % Q.heads();
      local += run_slice(load_slice(Q, b, h, scale), load_slice(K, b, h),
                         load_slice(V, b, h), O, b, h, opt, nullptr);
    }
#pragma omp critical
    total += local;
  }
  return total;
}

sim::CostBreakdown decoupled_ft_costs(const AttnShape& s) {
  const double S = static_cast<double>(s.seq);
  const double D = static_cast<double>(s.dim);
  const double slices = static_cast<double>(s.slices());

  sim::CostBreakdown b = decoupled_attention_costs(s);

  // Element ABFT on GEMM I (S = QK^T: M = N = seq, K = dim) and GEMM III
  // (O = PV: M = seq, N = dim, K = seq), per slice.
  sim::CostBreakdown abft1 = abft::ElementAbft::costs(S, S, D);
  sim::CostBreakdown abft2 = abft::ElementAbft::costs(S, D, S);
  for (std::size_t p = 0; p < sim::kPhaseCount; ++p) {
    abft1.by_phase[p].scale(slices);
    abft2.by_phase[p].scale(slices);
  }
  b += abft1;
  b += abft2;

  // DMR on the row softmax.
  sim::CostBreakdown dmr = softmax::dmr_overhead_costs(S * slices, S);
  b += dmr;

  // Checksum rows/columns also ride through HBM with the intermediates.
  b[sim::Phase::kMemory].hbm_bytes += slices * (4.0 * S * 4.0 + 4.0 * D * 4.0);

  // Each block's CCV and each DMR comparison is a pipeline sync.
  const double blocks1 = (S / 64.0) * (S / 64.0);
  b[sim::Phase::kVerify].syncs = slices * (blocks1 + 2.0 * (S / 64.0));
  b[sim::Phase::kDmr].syncs = slices * (S / 64.0);
  return b;
}

}  // namespace ftt::attention
