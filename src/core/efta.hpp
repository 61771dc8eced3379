#pragma once
// End-to-End Fault Tolerant Attention (EFTA) — the paper's core contribution
// (§3.2-3.4, Figs. 4-5, Algorithm 1).
//
// One fused kernel streams K/V blocks against each Q row-block, exactly like
// flash attention, and carries fault tolerance *through* the computation:
//
//   GEMM I     S_ij = Q_i K_j^T          strided tensor checksums ride the
//   subtract   S_ij - m_ij                same per-row checksum (linear)
//   EXP        P_ij = exp(...)            multiplicative checksum relation
//   GEMM II    O_i += P_ij V_j            V column checksums; per-row scaling
//   rescale    diag(e^{m_old-m_new}) O_i  commutes with row checksums
//   reduce-sum l_ij                       SNVR range restriction (Case 3)
//   normalize  O_i / l_i                  rides the O checksum
//
// Because the tensor checksums are *per row*, the diagonal rescale and the
// final 1/l normalization commute with them — this is what lets one checksum
// witness GEMM II + rescale + normalization end-to-end (Algorithm 1, lines
// 18-28), which classic column checksums cannot do (each row is scaled by a
// different factor, breaking any sum across rows).
//
// The kernel is core/decode.hpp's query-block kernel: efta_attention runs
// each 64-row Q block as one block over its slice's 64-row KV tiles, so the
// paper's full-sequence attention and the serving decode, speculation and
// prefill share one protected code path.
//
// What each mode verifies.  Both check GEMM I on every tile, before the
// causal mask (a non-finite or huge score would otherwise poison the
// running max before any later check could see it), and, under strided
// ABFT + SNVR, P on every row of every tile (P is consumed in place by
// GEMM II, so its errors must not propagate — Algorithm 1 line 13).
// `unified_verification = true`, EFTA-optimized, then checks the O
// checksum and the SNVR rowsum range once, after the last tile; `false`,
// the per-iteration EFTA of Tables 1-2 (left columns), checks both on
// every tile too.

#include "attention/attention.hpp"
#include "attention/ft_report.hpp"
#include "fault/fault.hpp"

namespace ftt::core {

/// Which ABFT scheme protects the two GEMMs (Fig. 11 comparison).
enum class GemmProtect {
  kNone,     ///< unprotected (pure flash attention)
  kStrided,  ///< tensor checksums, intra-thread (the paper's design)
  kElement,  ///< classic element checksums (traditional ABFT)
};

/// How the softmax chain is protected (Fig. 13 comparison).
enum class SoftmaxProtect {
  kNone,
  kSNVR,  ///< checksum reuse for EXP + range restriction for rowsum
  kDMR,   ///< duplicated block-softmax evaluation
};

/// The protection of efta_attention, whose Q and KV blocks are the kernel's
/// 64-row tiles.  The serving entry points (core/decode.hpp) read only the
/// stride and the thresholds: they always run causal, strided ABFT + SNVR,
/// unified.
struct EftaOptions {
  int stride = 8;  ///< checksum width s (the MMA atom's N)
  /// Decoder (causal) masking.  Masked lanes fire no GEMM I or EXP hook and
  /// carry zero weight; GEMM I is verified before the mask, and the EXP
  /// check counts masked lanes in score space.
  bool causal = false;
  GemmProtect gemm = GemmProtect::kStrided;
  SoftmaxProtect softmax = SoftmaxProtect::kSNVR;
  bool unified_verification = false;  ///< EFTA-optimized (Algorithm 1)
  float abft_rel_threshold = 0.02f;  ///< L1-relative checksum compare (Fig. 12 sweep)
  /// Absolute residual threshold of the log-domain EXP product check: the
  /// residual equals the score perturbation itself, so this bounds the
  /// worst undetected attention-weight distortion to e^threshold (Fig. 14).
  float exp_log_threshold = 0.1f;
  float dmr_eps = 1e-3f;
  float snvr_slack = 1e-3f;
};

/// Halves in one KV block's checksum block (encode_tile_checksums).
[[nodiscard]] constexpr std::size_t tile_checksum_halves(std::size_t rows,
                                                         std::size_t d,
                                                         int s) noexcept {
  return 2 * (d + rows) * static_cast<std::size_t>(s);
}

/// The strided checksums of one rows x d K/V block pair (rows % s == 0,
/// d % s == 0, s dividing 64), written to `out` as one block of
/// tile_checksum_halves(rows, d, s) halves:
///   [ Kc1^T d x s | Kc2^T d x s | Vc1 rows x s | Vc2 rows x s ]
/// — the k-major B operands the four checksum GEMMs stream (Eq. 14), from
/// abft::StridedAbft::class_sums over `kt`, K^T (d x rows), and over V's
/// rows.  The kChecksum hooks fire on the fp32 sums in the order Kc1
/// (jc, c), Kc2, Vc1 (r, jc), Vc2; then the block narrows to fp16.  Every
/// consumer derives the block here (EFTA's staged slices, the decode
/// kernel's fresh tiles, the pool's sealed fp16 and int8 tiles), so a
/// sealed block equals a fresh encode bit for bit.  T is numeric::Half, or
/// float for an int8 tile's exactly dequantized payload (same bits as fp16
/// rows of equal value).  No heap allocation once the calling thread has
/// encoded a block of this size.
template <typename T>
void encode_tile_checksums(const T* kt, const T* v, std::size_t rows,
                           std::size_t d, int s, fault::FaultInjector* inj,
                           numeric::Half* out);

/// Run EFTA.  O receives the normalized attention output in fp32.  Each
/// (batch, head) slice is staged once as 64-row KV tiles with their K^T
/// images and checksum blocks, and each 64-row Q block runs as one item of
/// efta_decode_batch's runner: OpenMP-parallel with or without an injector,
/// and bit for bit a serial loop over the blocks in slice order.
/// Mismatched Q/K/V/O shapes, a stride that does not divide dim and the
/// 64-row tile, and a seq past 64 that is not a multiple of 64 throw
/// std::invalid_argument before any block runs.  (Defined beside the
/// kernel, in decode.cpp.)
attention::FtReport efta_attention(const tensor::Tensor4H& Q,
                                   const tensor::Tensor4H& K,
                                   const tensor::Tensor4H& V,
                                   tensor::Tensor4F& O,
                                   const EftaOptions& opt = {},
                                   fault::FaultInjector* inj = nullptr);

/// Protection overhead split by protected target, matching the paper's
/// breakdown figures: Fig. 10 stacks QK^T / softmax / PV protection, Fig. 11
/// compares ABFT variants (qkt + pv only), Fig. 13 compares softmax
/// protection (softmax only).
struct EftaOverheadByTarget {
  sim::CostBreakdown qkt;      ///< K encode + S checksum GEMM + S verify
  sim::CostBreakdown softmax;  ///< EXP product check, range checks, DMR
  sim::CostBreakdown pv;       ///< V encode + O checksum GEMM/rescale/verify
  [[nodiscard]] sim::CostBreakdown total() const { return qkt + softmax + pv; }
};
EftaOverheadByTarget efta_overhead_by_target(const attention::AttnShape& s,
                                             const EftaOptions& opt);

/// Modeled cost of the *protection only* (CCG + checksum GEMM + CCV/NVR +
/// DMR), phase-split per Fig. 5.  Add `flash_attention_costs` for the total.
sim::CostBreakdown efta_protection_costs(const attention::AttnShape& s,
                                         const EftaOptions& opt);

/// Full modeled cost: unprotected flash attention + protection.
sim::CostBreakdown efta_costs(const attention::AttnShape& s,
                              const EftaOptions& opt);

/// Modeled cost of one protected causal query block (efta_decode_block):
/// `rows` query rows at positions [context - rows, context) streaming over
/// ceil(context/64) KV tiles, including the per-block checksum encodes, the
/// per-row EXP product check, and the final unified O verification.  One
/// formula covers all three serving workloads — rows = 1 is a decode step,
/// rows = k+1 a speculative draft block, rows = 64 a prefill chunk — and
/// dividing the token-by-token sum by the block cost is the modeled
/// amortization win (tile loads + encodes paid once per block instead of
/// once per token), the speculative-decode term of the serving cost model.
sim::CostBreakdown efta_decode_block_costs(std::size_t context,
                                           std::size_t rows, std::size_t dim,
                                           const EftaOptions& opt);

}  // namespace ftt::core
