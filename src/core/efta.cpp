#include "core/efta.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "abft/strided_abft.hpp"

namespace ftt::core {

using attention::AttnShape;
using numeric::Half;

template <typename T>
void encode_tile_checksums(const T* kt, const T* v, std::size_t rows,
                           std::size_t d, int s, fault::FaultInjector* inj,
                           Half* out) {
  const auto su = static_cast<std::size_t>(s);
  const std::size_t n = tile_checksum_halves(rows, d, s);
  // fp32 sums in the block's layout, thread_local: no allocation per call.
  thread_local std::vector<float> sums;
  if (sums.size() < n) sums.resize(n);
  float* kc1 = sums.data();
  float* vc1 = kc1 + 2 * d * su;
  abft::StridedAbft::class_sums(kt, d, rows, rows, s, kc1, kc1 + d * su, su);
  abft::StridedAbft::class_sums(v, rows, d, d, s, vc1, vc1 + rows * su, su);
  if (inj) {
    for (std::size_t q = 0; q < 2 * su; ++q) {  // Kc1 (jc, c), then Kc2
      float* col = kc1 + q / su * d * su + q % su;
      for (std::size_t c = 0; c < d; ++c) {
        col[c * su] = inj->corrupt(fault::Site::kChecksum, col[c * su]);
      }
    }
    for (std::size_t i = 0; i < 2 * rows * su; ++i) {
      vc1[i] = inj->corrupt(fault::Site::kChecksum, vc1[i]);
    }
  }
  numeric::floats_to_halves(sums.data(), out, n);
}
template void encode_tile_checksums(const Half*, const Half*, std::size_t,
                                    std::size_t, int, fault::FaultInjector*,
                                    Half*);
template void encode_tile_checksums(const float*, const float*, std::size_t,
                                    std::size_t, int, fault::FaultInjector*,
                                    Half*);

EftaOverheadByTarget efta_overhead_by_target(const AttnShape& shape,
                                             const EftaOptions& opt) {
  EftaOverheadByTarget t;
  const double S = static_cast<double>(shape.seq);
  const double D = static_cast<double>(shape.dim);
  // The kernel's 64-row tile (KvSlice::kTileRows), B_r = B_c.
  const double B = static_cast<double>(std::min<std::size_t>(64, shape.seq));
  const double s = opt.stride;
  const double slices = static_cast<double>(shape.slices());
  const double nblk = S / B;
  const double pairs = nblk * nblk;

  if (opt.gemm == GemmProtect::kStrided) {
    // --- QK^T protection ---
    // K c1/c2 encode (strided row sums, intra-thread).
    t.qkt[sim::Phase::kChecksumGen].fp32_flops = slices * pairs * 4.0 * B * D;
    // S checksum GEMM: two s-wide virtual-row blocks.
    t.qkt[sim::Phase::kGemm].tc_flops = slices * pairs * 4.0 * B * s * D;
    if (!opt.unified_verification) {
      // Per-iteration linear S verification (one sync point per tile pass).
      t.qkt[sim::Phase::kVerify].fp32_flops =
          slices * pairs * (2.0 * B * B + B * s);
      t.qkt[sim::Phase::kVerify].syncs = slices * pairs;
    }

    // --- PV (+rescale +normalize) protection ---
    t.pv[sim::Phase::kChecksumGen].fp32_flops = slices * pairs * 4.0 * B * D;
    t.pv[sim::Phase::kGemm].tc_flops = slices * pairs * 4.0 * B * s * B;
    t.pv[sim::Phase::kRescale].fp32_flops = slices * pairs * 2.0 * B * s;
    if (!opt.unified_verification) {
      t.pv[sim::Phase::kVerify].fp32_flops =
          slices * pairs * (2.0 * B * D + B * s);
      t.pv[sim::Phase::kVerify].syncs = slices * pairs;
    }
    // Final O verification once per row block (both modes).
    t.pv[sim::Phase::kVerify].fp32_flops +=
        slices * nblk * (2.0 * B * D + B * s);
    t.pv[sim::Phase::kVerify].syncs += slices * nblk;
  } else if (opt.gemm == GemmProtect::kElement) {
    // Traditional element checksums: cross-thread sums charged as shuffles.
    auto& g1 = t.qkt[sim::Phase::kChecksumGen];
    g1.fp32_flops = slices * pairs * 4.0 * B * D;
    g1.shuffles = slices * pairs * 2.0 * B * D;
    t.qkt[sim::Phase::kGemm].tc_flops = slices * pairs * 4.0 * D * B;
    t.qkt[sim::Phase::kVerify].fp32_flops = slices * pairs * 4.0 * B * B;
    t.qkt[sim::Phase::kVerify].shuffles = slices * pairs * 2.0 * B * B;
    t.qkt[sim::Phase::kVerify].syncs = slices * pairs;

    auto& g2 = t.pv[sim::Phase::kChecksumGen];
    g2.fp32_flops = slices * pairs * 4.0 * B * B;
    g2.shuffles = slices * pairs * 2.0 * B * B;
    t.pv[sim::Phase::kGemm].tc_flops = slices * pairs * 4.0 * B * D;
    t.pv[sim::Phase::kVerify].fp32_flops = slices * pairs * 4.0 * B * D;
    t.pv[sim::Phase::kVerify].shuffles = slices * pairs * 2.0 * B * D;
    t.pv[sim::Phase::kVerify].syncs = slices * pairs;
  }

  // --- softmax protection ---
  if (opt.softmax == SoftmaxProtect::kDMR) {
    auto& d = t.softmax[sim::Phase::kDmr];
    d.sfu_ops = slices * pairs * B * B;           // replica EXP
    d.fp32_flops = slices * pairs * 4.0 * B * B;  // replica adds + compare
    d.syncs = slices * pairs;                     // the agreement check
  } else if (opt.softmax == SoftmaxProtect::kSNVR) {
    auto& v = t.softmax[sim::Phase::kVerify];
    if (opt.gemm == GemmProtect::kStrided) {
      // Case-2 checksum-reuse product check, per iteration in both modes
      // (P is consumed in place): one multiply per element to form the
      // residue-class products, one exp per class for the checksum side,
      // and s compares per row.  This is what makes SNVR far cheaper than
      // DMR's full EXP replica.  (The host implementation evaluates the
      // same product scheme in double and closes it with a log instead of
      // an exp: every class of a row at once in AVX2 lanes,
      // softmax::log_product_screen, and the scalar softmax::log_product
      // only for the classes the screen does not pass.  Its EXP runs
      // beside the scores, softmax::exp_shifted writing P from S in AVX2
      // lanes of glibc's expf, so the pre-EXP scores the repairs read are
      // the GEMM I output itself, with no copy.)
      v.fp32_flops += slices * pairs * (B * B + 2.0 * B * s);
      v.sfu_ops += slices * pairs * B * s;
      v.syncs += slices * pairs;
    }
    // Case-3 range restriction.
    if (!opt.unified_verification) {
      // "CCV and NVR are performed simultaneously" — the per-iteration range
      // check shares the product check's sync point, so it adds flops only.
      v.fp32_flops += slices * pairs * B;
      v.sfu_ops += slices * pairs * B;  // incremental lower bound
    }
    v.sfu_ops += slices * S * nblk;  // final bound: exp over max history
    v.fp32_flops += slices * 2.0 * S;
  }
  return t;
}

sim::CostBreakdown efta_protection_costs(const AttnShape& shape,
                                         const EftaOptions& opt) {
  return efta_overhead_by_target(shape, opt).total();
}

sim::CostBreakdown efta_costs(const AttnShape& shape, const EftaOptions& opt) {
  return attention::flash_attention_costs(shape) +
         efta_protection_costs(shape, opt);
}

sim::CostBreakdown efta_decode_block_costs(std::size_t context,
                                           std::size_t rows, std::size_t dim,
                                           const EftaOptions& opt) {
  sim::CostBreakdown b;
  constexpr double B = 64.0;  // KvSlice::kTileRows
  const double n = static_cast<double>(context);
  const double R = static_cast<double>(rows);
  const double D = static_cast<double>(dim);
  const double s = opt.stride;
  const double nblk = std::ceil(n / B);

  // Payload: per tile, the R x B score GEMM and the R x D PV GEMM; loads of
  // the K/V tiles and the chunk's q rows; EXP over the visible lanes
  // (bounded above by R*B per tile).
  b[sim::Phase::kMemory].hbm_bytes = nblk * 2.0 * B * D * 2.0 + R * D * 2.0;
  b[sim::Phase::kGemm].tc_flops = nblk * (2.0 * R * B * D + 2.0 * R * B * D);
  b[sim::Phase::kSoftmax].sfu_ops = nblk * R * B;
  b[sim::Phase::kRescale].fp32_flops = nblk * R * (D + 2.0 * B + 2.0);

  // Protection: K row / V column checksum encodes once per tile per chunk
  // (the amortization over decode, which pays them once per *token*), the
  // s-wide checksum GEMMs riding both payload GEMMs, the per-tile linear S
  // verify, the per-row EXP product check, and the final O verify.
  b[sim::Phase::kChecksumGen].fp32_flops = nblk * 8.0 * B * D;
  b[sim::Phase::kGemm].tc_flops += nblk * (4.0 * R * s * D + 4.0 * R * s * B);
  b[sim::Phase::kVerify].fp32_flops =
      nblk * R * (2.0 * B + s) +         // linear S verify per tile
      nblk * R * (B + 2.0 * s) +         // EXP product check per row
      R * (2.0 * D + s) +                // final unified O verify
      2.0 * R;                           // SNVR rowsum bound compare
  b[sim::Phase::kVerify].sfu_ops = R * nblk;  // SNVR bound: exp over maxima
  b[sim::Phase::kVerify].syncs = nblk + 1.0;
  return b;
}

}  // namespace ftt::core
