#include "core/decode.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "abft/element_abft.hpp"
#include "abft/strided_abft.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"
#include "sim/mma.hpp"
#include "softmax/snvr.hpp"
#include "softmax/softmax.hpp"

namespace ftt::core {

using attention::FtReport;
using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;
using tensor::Tensor4F;
using tensor::Tensor4H;

namespace testing {
std::size_t& tiles_materialized() noexcept {
  thread_local std::size_t count = 0;
  return count;
}
std::size_t& tiles_encoded() noexcept {
  thread_local std::size_t count = 0;
  return count;
}
}  // namespace testing

namespace {

void validate_item(const DecodeWorkItem& it, const EftaOptions& opt) {
  const KvSlice& kv = it.kv;
  if (kv.n == 0) {
    throw std::invalid_argument("efta decode: empty context (n == 0)");
  }
  for (std::size_t j = 0; j < kv.tiles(); ++j) {
    const bool ok =
        kv.fmt != nullptr && kv.fmt[j] == TileFmt::kI8
            ? kv.k_i8 != nullptr && kv.v_i8 != nullptr &&
                  kv.k_scale != nullptr && kv.v_scale != nullptr &&
                  kv.k_i8[j] != nullptr && kv.v_i8[j] != nullptr
            : kv.k_tiles != nullptr && kv.v_tiles != nullptr &&
                  kv.k_tiles[j] != nullptr && kv.v_tiles[j] != nullptr;
    if (!ok) {
      throw std::invalid_argument(
          "efta decode: tile " + std::to_string(j) +
          " lacks the payload pointers its format reads");
    }
  }
  if (it.q == nullptr || it.out == nullptr) {
    throw std::invalid_argument("efta decode: null q/out pointers");
  }
  if (it.q_len == 0 || it.q_len > KvSlice::kTileRows) {
    throw std::invalid_argument(
        "efta decode: block must hold 1..64 query rows");
  }
  if (it.q_len > it.kv.n) {
    throw std::invalid_argument(
        "efta decode: cache must already hold the block's K/V rows "
        "(q_len <= n)");
  }
  // The strided checksums tile both axes of a 64 x d KV tile.
  if (opt.stride <= 0 ||
      it.kv.d % static_cast<std::size_t>(opt.stride) != 0 ||
      KvSlice::kTileRows % static_cast<std::size_t>(opt.stride) != 0) {
    throw std::invalid_argument(
        "efta decode: the checksum stride must divide d and the 64-row tile");
  }
  const std::size_t d = it.kv.d;
  if ((it.q_stride != 0 && it.q_stride < d) ||
      (it.out_stride != 0 && it.out_stride < d)) {
    throw std::invalid_argument("efta decode: row stride below d");
  }
}

/// The serving contract: causal, strided ABFT + SNVR, unified, whatever
/// the caller's protection fields say.  Only the stride and the thresholds
/// pass through.
EftaOptions serving(EftaOptions opt) {
  opt.causal = true;
  opt.gemm = GemmProtect::kStrided;
  opt.softmax = SoftmaxProtect::kSNVR;
  opt.unified_verification = true;
  return opt;
}

/// P[0, n) = exp(S - m), then one EXP hook per lane in order.
void exp_row(const float* s, float m, float* p, std::size_t n,
             fault::FaultInjector* inj) {
  softmax::exp_shifted(s, m, p, n);
  if (inj) {
    for (std::size_t c = 0; c < n; ++c) {
      p[c] = inj->corrupt(fault::Site::kExp, p[c]);
    }
  }
}

/// DMR replication of one row's EXP (Eq. 10): evaluate through the hooks
/// until two consecutive evaluations agree (at most four), leaving the
/// agreeing one in `p`; returns the evaluations past the first pair.
std::size_t dmr_exp_row(const float* s, float m, float* p, std::size_t n,
                        float eps, fault::FaultInjector* inj, float* spare) {
  constexpr std::size_t kMaxRounds = 4;
  float* a = p;
  float* b = spare;
  exp_row(s, m, a, n, inj);
  for (std::size_t round = 1; round < kMaxRounds; ++round) {
    exp_row(s, m, b, n, inj);
    float diff = 0.0f;
    for (std::size_t c = 0; c < n; ++c) {
      diff = std::max(diff, std::fabs(a[c] - b[c]));
    }
    if (diff < eps) {
      if (b != p) std::copy_n(b, n, p);
      return round - 1;  // agreement on the first re-evaluation is free
    }
    std::swap(a, b);
  }
  if (a != p) std::copy_n(a, n, p);
  return kMaxRounds - 1;
}

/// sums[r] = P(r, 0) + P(r, 1) + ... in ascending order for rows [r0, R),
/// eight rows at a time: independent chains side by side instead of one
/// latency-bound chain.
void row_sums(const MatrixF& P, std::size_t r0, float* sums) {
  const std::size_t R = P.rows(), C = P.cols();
  constexpr std::size_t kRows = 8;
  std::size_t r = r0;
  for (; r + kRows <= R; r += kRows) {
    float acc[kRows] = {};
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t k = 0; k < kRows; ++k) acc[k] += P(r + k, c);
    }
    std::copy_n(acc, kRows, sums + r);
  }
  for (; r < R; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < C; ++c) acc += P(r, c);
    sums[r] = acc;
  }
}

/// The one protected attention kernel: a query block of 1..64 rows over one
/// tiled KV slice.  Causal (`opt.causal`), the block sits at the end of the
/// context: query row r (global position p = base + r with base = n -
/// q_len) attends rows [0, p] of the cache.  Otherwise every row attends
/// all n rows (efta_attention's full-sequence blocks).  The loop structure
/// runs every row through the same GEMM routines, the same valid-lane
/// masking, the same GEMM II accumulation order and the same fault hooks on
/// the visible lanes — so each causal output row is bit-identical to
/// efta_decode_step over a context of p+1 tokens, whether the block is a
/// 1-row decode step, a speculative draft block or a 64-row prefill chunk,
/// and to the same row of causal efta_attention and flash_attention.  The
/// block's win is amortization: K/V tiles are loaded and checksum-encoded
/// once per block instead of once per token, and the score GEMMs and GEMM
/// II each cover all rows of a tile in one call.
///
/// Protection follows `opt`: efta_decode_* pass serving(opt), and only
/// efta_attention reaches the paper's ablation variants (element ABFT, DMR,
/// kNone, per-iteration verification).  Per tile, GEMM I is verified
/// pre-mask; the rows visiting the tile then run the per-row softmax, the
/// EXP check and the rescale; one GEMM II over their fp16-rounded weights
/// accumulates straight into the running outputs and their O checksums
/// (element ABFT verifies the tile's product first).
/// Each hook site fires in row-major order.  Across sites, a tile's
/// reduce-max and EXP hooks all fire before its reduce-sum and rescale
/// hooks, and those before its GEMM II hooks, so a multi-row block
/// interleaves sites differently from running its rows one at a time —
/// visible only to a multi-site Bernoulli campaign, whose sites share one
/// RNG.
///
/// Hot-path layout: full 64-row tiles are consumed zero-copy straight from
/// the cache storage (only the ragged tail is pad-and-copied into scratch),
/// and every tile runs one operand path, whatever its format.  The score
/// GEMM and GEMM II stream the payload at storage width — an int8 tile
/// through the fused dequantizing kernels, an fp16 tile through the fused
/// fp16-operand kernels over its sealed K^T image, or over a per-call
/// transpose where it has none (the ragged tail, a raw slice).  The four
/// checksum GEMMs stream the tile's checksum block: its sealed one, or one
/// encoded fresh through the hooks (the ragged tail, a raw slice, a block
/// sealed at another stride, a sealed tile whose encode hooks would flip)
/// from the k-major rows the score GEMM reads: K^T, or an int8 tile's
/// exactly dequantized payload.  Every kernel widens exactly and keeps the
/// ascending-k order, and transposes are pure data movement, so all of
/// these give the same bits.  An injector changes hooks, never operands: a
/// sealed block stands in whenever `skip` vouches that none of the encode
/// hooks it replaces would flip.
FtReport block_slice(const DecodeWorkItem& it, const EftaOptions& opt,
                     fault::FaultInjector* inj) {
  const std::size_t n = it.kv.n, d = it.kv.d, R = it.q_len;
  const std::size_t base = n - R;
  const std::size_t B = KvSlice::kTileRows;
  const int s = opt.stride;
  const auto su = static_cast<std::size_t>(s);
  const std::size_t L = B / su;
  const std::size_t nblk = it.kv.tiles();
  const std::size_t qs = it.q_stride == 0 ? d : it.q_stride;
  const std::size_t os = it.out_stride == 0 ? d : it.out_stride;
  const bool strided = opt.gemm == GemmProtect::kStrided;
  const bool element = opt.gemm == GemmProtect::kElement;
  const bool snvr = opt.softmax == SoftmaxProtect::kSNVR;
  const bool dmr = opt.softmax == SoftmaxProtect::kDMR;
  const bool unified = opt.unified_verification;
  const float thr = opt.abft_rel_threshold;
  FtReport rep;

  // Sealed checksum blocks are usable when they were built with this call's
  // stride.  They are sealed memory, which the fault model treats as
  // ECC-protected; under an injector a tile's block stands in for its fresh
  // encode (one kChecksum hook per block element) only when skip() vouches
  // that none of those hooks would flip.
  const bool sealed_ok = it.kv.enc != nullptr && it.kv.enc_stride == s;
  const std::size_t enc_n = tile_checksum_halves(B, d, s);

  // Pre-scaled fp16 queries (the MMA operand rows), exactly as decode does
  // per token, then widened once: every GEMM below consumes the exact fp32
  // image instead of re-converting per GEMM.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<Half> qh(R * d);
  std::vector<float> qf(R * d);
  for (std::size_t r = 0; r < R; ++r) {
    numeric::halves_to_floats(it.q + r * qs, qf.data() + r * d, d);
    for (std::size_t c = 0; c < d; ++c) qf[r * d + c] *= scale;
  }
  numeric::floats_to_halves(qf.data(), qh.data(), R * d);
  numeric::halves_to_floats(qh.data(), qf.data(), R * d);

  std::vector<float> m(R, -std::numeric_limits<float>::infinity());
  std::vector<float> l(R, 0.0f), mn(R), rowsum(R);
  MatrixF oacc(R, d, 0.0f);
  MatrixF oc1(R, su, 0.0f), oc2(R, su, 0.0f);
  MatrixF blockmax(R, nblk);
  // Lanes of tiles [0, tiles) row r sees.
  const auto seen = [&](std::size_t r, std::size_t tiles) {
    return std::min(tiles * B, opt.causal ? base + r + 1 : n);
  };

  // Scores and softmax weights side by side: S stays the pre-EXP row the
  // product check and its repair read.
  MatrixF S(R, B), P(R, B), schk1(R, su), schk2(R, su);
  // fp16 scratch for the ragged tail only; full tiles are read in place.
  std::vector<Half> ktail(B * d), vtail(B * d);
  // K^T of an fp16 tile without a sealed image.
  std::vector<Half> kt_fresh(B * d);
  // A checksum block encoded fresh, when no sealed one can serve.
  std::vector<Half> enc_fresh(enc_n);
  // An int8 tile's exactly dequantized K^T and V, for its fresh encode only.
  std::vector<float> ktdq, vdq;
  // GEMM II's A operand: the fp16-rounded softmax weights of the rows
  // visiting a tile.
  std::vector<Half> ph(R * B);
  std::vector<float> pf(R * B);
  std::vector<float> spare(dmr ? B : 0);  // the DMR replica's row
  std::vector<double> rhs(su);  // EXP screen: per-class checksum side
  for (std::size_t j = 0; j < nblk; ++j) {
    // Rows of this tile holding real context; the remainder is zero padding,
    // exactly the view decode reconstructs per token.
    const std::size_t tile_valid = std::min(B, n - j * B);
    const bool full = tile_valid == B;
    const bool is_i8 = it.kv.fmt != nullptr && it.kv.fmt[j] == TileFmt::kI8;
    const Half* kt = is_i8 ? nullptr : it.kv.k_tiles[j];
    const Half* vt = is_i8 ? nullptr : it.kv.v_tiles[j];
    if (!full && !is_i8) {
      // Only the ragged tail tile is materialized: its storage may hold
      // fewer than 64 readable rows (contiguous-cache views), so pad-and-
      // copy it into the zero-filled checksum footprint.
      std::memcpy(ktail.data(), kt, tile_valid * d * sizeof(Half));
      std::memcpy(vtail.data(), vt, tile_valid * d * sizeof(Half));
      std::fill(ktail.begin() + tile_valid * d, ktail.end(), Half());
      std::fill(vtail.begin() + tile_valid * d, vtail.end(), Half());
      kt = ktail.data();
      vt = vtail.data();
      ++testing::tiles_materialized();
    }
    // K^T (the sealed image, or a transpose of the tile or padded tail),
    // resolved first so a fresh encode reads it; transposes fire no hooks.
    const Half* kimg =
        full && !is_i8 && it.kv.f16t != nullptr ? it.kv.f16t[j] : nullptr;
    if (kimg == nullptr && !is_i8) {
      numeric::transpose_h(kt, B, d, kt_fresh.data());
      kimg = kt_fresh.data();
    }
    // The checksum block, enc = [Kc1^T d x su | Kc2^T d x su | Vc1 B x su |
    // Vc2 B x su].  The skip sits where the tile's encode hooks would fire,
    // before any other hook of the tile.
    const Half *enc = nullptr, *kc2t = nullptr, *vc1 = nullptr, *vc2 = nullptr;
    if (strided) {
      if (sealed_ok && full && it.kv.enc[j] != nullptr &&
          (inj == nullptr || inj->skip(fault::Site::kChecksum, enc_n))) {
        enc = it.kv.enc[j];
      } else {
        if (is_i8) {
          ktdq.resize(B * d);
          vdq.resize(B * d);
          numeric::dequantize_i8_to_f32(it.kv.k_i8[j], ktdq.data(), B * d,
                                        it.kv.k_scale[j]);
          numeric::dequantize_i8_to_f32(it.kv.v_i8[j], vdq.data(), B * d,
                                        it.kv.v_scale[j]);
          encode_tile_checksums(ktdq.data(), vdq.data(), B, d, s, inj,
                                enc_fresh.data());
        } else {
          encode_tile_checksums(kimg, vt, B, d, s, inj, enc_fresh.data());
        }
        ++testing::tiles_encoded();
        enc = enc_fresh.data();
      }
      kc2t = enc + d * su;
      vc1 = kc2t + d * su;
      vc2 = vc1 + B * su;
    }

    // Rows [r0, R) visit this tile, row r seeing lanes [0, visible(r)).
    // Causally, row r (global position p = base + r) sees lanes
    // [0, min(B, p + 1 - jB)) once its prefix reaches the tile: a block
    // never starts past the cache end, so visibility is a per-row prefix of
    // lanes and a per-row prefix of tiles.
    const std::size_t r0 = opt.causal && j * B > base ? j * B - base : 0;
    const std::size_t rows = R - r0;
    const auto visible = [&](std::size_t r) {
      return opt.causal ? std::min(B, base + r + 1 - j * B) : tile_valid;
    };

    // GEMM I.  Element ABFT encodes Q's checksum rows first, as the extra
    // operand rows of the same tensor-core pass.
    MatrixF a_chk;
    if (element) {
      a_chk = abft::ElementAbft::checksum_rows(qf.data(), R, d, inj);
    }
    if (is_i8) {
      numeric::gemm_f32_nn_i8(qf.data(), R, d, it.kv.k_i8[j], B,
                              it.kv.k_scale[j], &S(0, 0), S.cols(), false);
    } else {
      sim::gemm_f32_nnh(qf.data(), R, d, kimg, B, S);
    }
    if (inj) {
      for (std::size_t r = r0; r < R; ++r) {
        for (std::size_t c = 0; c < visible(r); ++c) {
          S(r, c) = inj->corrupt(fault::Site::kGemm1, S(r, c));
        }
      }
    }
    // Verification runs pre-mask over the whole block: every lane —
    // visible, causally masked, or padding — satisfies the checksum relation
    // against this tile, so one block verify witnesses all rows at once.
    // (Element ABFT runs over efta_attention's fp16 tiles only.)
    if (element) {
      rep.gemm1 += abft::ElementAbft::verify_nnh(a_chk, kimg, B, S, thr, inj);
    }
    if (strided) {
      sim::gemm_f32_nnh(qf.data(), R, d, enc, su, schk1);
      sim::gemm_f32_nnh(qf.data(), R, d, kc2t, su, schk2);
      if (inj) {
        for (std::size_t r = r0; r < R; ++r) {
          for (std::size_t c = 0; c < su; ++c) {
            schk1(r, c) = inj->corrupt(fault::Site::kChecksum, schk1(r, c));
            schk2(r, c) = inj->corrupt(fault::Site::kChecksum, schk2(r, c));
          }
        }
      }
      // The EXP check below reads schk1, so a flipped schk1 class is
      // rewritten from the scores here rather than poisoning that check.
      rep.gemm1 +=
          abft::StridedAbft::verify_correct_fix_c1(S, schk1, schk2, s, thr);
    }

    for (std::size_t r = r0; r < R; ++r) {
      const std::size_t vis = visible(r);

      // Streaming softmax update, the single-row decode loop verbatim:
      // the running max sees only the row's visible lanes.
      const float bmax = fault::corrupt(inj, fault::Site::kReduceMax,
                                        softmax::row_max(&S(r, 0), vis));
      blockmax(r, j) = bmax;
      const float mnew = mn[r] = std::max(m[r], bmax);

      if (dmr) {
        rep.dmr_recomputes += dmr_exp_row(&S(r, 0), mnew, &P(r, 0), vis,
                                          opt.dmr_eps, inj, spare.data());
      } else {
        exp_row(&S(r, 0), mnew, &P(r, 0), vis, inj);
      }
      // Lanes past the causal horizon carry zero softmax weight, exactly
      // like decode's padded lanes.
      for (std::size_t c = vis; c < B; ++c) P(r, c) = 0.0f;

      // Case-2 product check on the row (log domain, double).  Masked and
      // padded lanes participate in score space — decode's convention for
      // lanes that were never exponentiated.  A class's visible lanes are a
      // prefix of its l-order (columns jc + l*s ascend), so the product form
      // covers lanes [0, nvis) and the masked remainder adds after it.  A
      // full-width row first goes through the residue-class screen; a class
      // it passes is one the scalar test below passes too.
      if (strided && snvr) {
        for (std::size_t jc = 0; jc < su; ++jc) {
          rhs[jc] = static_cast<double>(schk1(r, jc)) -
                    static_cast<double>(L) * mnew;
        }
        const std::uint64_t pass =
            vis == B ? softmax::log_product_screen(&P(r, 0), su, L,
                                                   rhs.data(),
                                                   opt.exp_log_threshold)
                     : 0;
        for (std::size_t jc = 0; jc < su; ++jc) {
          ++rep.exp_check.checks;
          if ((pass >> jc) & 1u) continue;
          const std::size_t nvis = vis > jc ? (vis - jc + su - 1) / su : 0;
          const auto lg = softmax::log_product(&P(r, jc), su, nvis);
          const bool bad = !lg;
          double lhs = bad ? 0.0 : *lg;
          for (std::size_t ll = nvis; ll < L && !bad; ++ll) {
            lhs += static_cast<double>(S(r, jc + ll * su)) - mnew;
          }
          if (bad || std::fabs(lhs - rhs[jc]) > opt.exp_log_threshold) {
            ++rep.exp_check.flagged;
            // Repair the scores via the linear checksum, then
            // re-exponentiate the visible lanes (per-row temporaries: this
            // path only runs under a fault).
            MatrixF srow(1, B), c1row(1, su), c2row(1, su);
            for (std::size_t c = 0; c < B; ++c) srow(0, c) = S(r, c);
            for (std::size_t c = 0; c < su; ++c) {
              c1row(0, c) = schk1(r, c);
              c2row(0, c) = schk2(r, c);
            }
            abft::StridedAbft::verify_correct(srow, c1row, c2row, s, thr);
            softmax::exp_shifted(&srow(0, 0), mnew, &P(r, 0), vis);
            ++rep.exp_check.recomputed;
            break;
          }
        }
      }
    }

    // Rescale + reduce-sum.  The row sums run first, eight rows' serial
    // chains side by side (each still adds its lanes in ascending order);
    // their hooks fire below in row order.
    row_sums(P, r0, rowsum.data());
    for (std::size_t r = r0; r < R; ++r) {
      const float sum =
          fault::corrupt(inj, fault::Site::kReduceSum, rowsum[r]);
      // The hooks fire after the row's multiplies, in the same order.
      const float f = softmax::exp_shifted(m[r], mn[r]);
      for (std::size_t c = 0; c < d; ++c) oacc(r, c) *= f;
      for (std::size_t jc = 0; jc < su; ++jc) {
        oc1(r, jc) *= f;
        oc2(r, jc) *= f;
      }
      if (inj) {
        for (std::size_t c = 0; c < d; ++c) {
          oacc(r, c) = inj->corrupt(fault::Site::kRescale, oacc(r, c));
        }
        for (std::size_t jc = 0; strided && jc < su; ++jc) {
          oc1(r, jc) = inj->corrupt(fault::Site::kChecksum, oc1(r, jc));
          oc2(r, jc) = inj->corrupt(fault::Site::kChecksum, oc2(r, jc));
        }
      }
      l[r] = f * l[r] + sum;
      m[r] = mn[r];
    }

    // GEMM II over the whole tile: P (the visiting rows' softmax weights,
    // rounded to fp16 once) times V and both V checksum blocks, accumulated
    // straight into the running outputs — flash attention's grouping.
    // Every output sums its terms in ascending order (the vector FMA form
    // is bit-identical under the exact-product precondition: fp16 weights
    // against fp16-valued or exactly dequantized V), and masked lanes
    // contribute exact zeros: P is exactly 0.0f there, and 0 * v adds a
    // signed zero that cannot change the accumulator.  Only the V payload's
    // operand kernel differs per format.
    numeric::floats_to_halves(&P(r0, 0), ph.data(), rows * B);
    numeric::halves_to_floats(ph.data(), pf.data(), rows * B);
    if (element) {
      // Classic checksums cannot ride the per-row rescale, so traditional
      // ABFT verifies each product P_ij V_j before accumulating it.
      const MatrixF p_chk =
          abft::ElementAbft::checksum_rows(pf.data(), rows, B, inj);
      MatrixF t(rows, d), col_chk(2, d);
      sim::gemm_f32_nnh(pf.data(), rows, B, vt, d, t);
      if (inj) {
        for (std::size_t i = 0; i < t.size(); ++i) {
          t.data()[i] = inj->corrupt(fault::Site::kGemm2, t.data()[i]);
        }
      }
      sim::gemm_f32_nnh(p_chk.data(), 2, B, vt, d, col_chk);
      rep.gemm2 += abft::ElementAbft::verify_correct(t, col_chk, thr);
      for (std::size_t i = 0; i < t.size(); ++i) {
        oacc.data()[r0 * d + i] += t.data()[i];
      }
    } else {
      if (is_i8) {
        numeric::gemm_f32_nn_i8(pf.data(), rows, B, it.kv.v_i8[j], d,
                                it.kv.v_scale[j], &oacc(r0, 0), d, true);
      } else {
        numeric::gemm_f32_nnh(pf.data(), rows, B, vt, d, &oacc(r0, 0), d,
                              true);
      }
      if (inj) {
        for (std::size_t i = r0 * d; i < R * d; ++i) {
          oacc.data()[i] = inj->corrupt(fault::Site::kGemm2, oacc.data()[i]);
        }
      }
    }
    if (strided) {
      numeric::gemm_f32_nnh(pf.data(), rows, B, vc1, su, &oc1(r0, 0), su,
                            true);
      numeric::gemm_f32_nnh(pf.data(), rows, B, vc2, su, &oc2(r0, 0), su,
                            true);
      if (inj) {
        for (std::size_t r = r0; r < R; ++r) {
          for (std::size_t jc = 0; jc < su; ++jc) {
            oc1(r, jc) = inj->corrupt(fault::Site::kChecksum, oc1(r, jc));
            oc2(r, jc) = inj->corrupt(fault::Site::kChecksum, oc2(r, jc));
          }
        }
      }
      if (!unified) {
        rep.gemm2 += abft::StridedAbft::verify_correct(oacc, oc1, oc2, s, thr);
      }
    }
    // Per-tile SNVR range check (unified_verification off).
    if (snvr && !unified) {
      for (std::size_t r = r0; r < R; ++r) {
        const auto res = softmax::snvr_check_rowsum(
            l[r], std::span<const float>(&blockmax(r, 0), j + 1), m[r],
            seen(r, j + 1), opt.snvr_slack);
        if (res.violated) {
          l[r] = res.corrected_value;
          ++rep.range_corrections;
        }
      }
    }
  }

  // SNVR range restriction per row over its own tile-max history
  // (Algorithm 1 lines 22-24).
  if (snvr && unified) {
    for (std::size_t r = 0; r < R; ++r) {
      const std::size_t row_tiles = opt.causal ? (base + r) / B + 1 : nblk;
      const auto res = softmax::snvr_check_rowsum(
          l[r], std::span<const float>(&blockmax(r, 0), row_tiles), m[r],
          seen(r, row_tiles), opt.snvr_slack);
      if (res.violated) {
        l[r] = res.corrected_value;
        ++rep.range_corrections;
      }
    }
  }

  // Normalize (it rides the O checksum; the hooks fire after the
  // multiplies, row-major), then the final O verification over the block.
  for (std::size_t r = 0; r < R; ++r) {
    const float inv = 1.0f / l[r];
    for (std::size_t c = 0; c < d; ++c) oacc(r, c) *= inv;
    for (std::size_t jc = 0; jc < su; ++jc) {
      oc1(r, jc) *= inv;
      oc2(r, jc) *= inv;
    }
  }
  if (inj) {
    for (std::size_t i = 0; i < oacc.size(); ++i) {
      oacc.data()[i] = inj->corrupt(fault::Site::kRescale, oacc.data()[i]);
    }
  }
  if (strided) {
    rep.gemm2 += abft::StridedAbft::verify_correct(oacc, oc1, oc2, s, thr);
  }
  for (std::size_t r = 0; r < R; ++r) {
    std::copy_n(&oacc(r, 0), d, it.out + r * os);
  }
  return rep;
}

/// Runs every item through block_slice under `opt`, OpenMP-parallel with or
/// without an injector (efta_decode_batch's contract).
FtReport run_items(std::span<const DecodeWorkItem> items,
                   const EftaOptions& opt, fault::FaultInjector* inj,
                   std::span<FtReport> per_item) {
  // Every item runs in parallel.  An injector is stateful and call-order
  // dependent, so under one each item speculates under its own unarmed
  // probe; the walk below then replays the serial order.  Where none of an
  // item's hook calls would flip, skip() advances the injector exactly as
  // the serial run would have, and the speculative output and report are
  // that run's bits (an unflipped hook returns its input).  Otherwise the
  // item re-runs serially with the injector and overwrites both.
  std::vector<FtReport> reps(items.size());
  std::vector<fault::FaultInjector> probes(inj ? items.size() : 0);
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < items.size(); ++i) {
    reps[i] = block_slice(items[i], opt, inj ? &probes[i] : nullptr);
  }
  FtReport total;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (inj && !inj->skip(probes[i])) {
      const std::size_t before = inj->injected();
      reps[i] = block_slice(items[i], opt, inj);
      reps[i].faults_injected = inj->injected() - before;
    }
    if (!per_item.empty()) per_item[i] = reps[i];
    total += reps[i];
  }
  return total;
}

}  // namespace

FtReport efta_decode_block(const DecodeWorkItem& item, const EftaOptions& opt,
                           fault::FaultInjector* inj) {
  validate_item(item, opt);
  const std::size_t before = inj ? inj->injected() : 0;
  FtReport rep = block_slice(item, serving(opt), inj);
  if (inj) rep.faults_injected = inj->injected() - before;
  return rep;
}

FtReport efta_decode_step(const KvSlice& kv, std::span<const Half> q,
                          std::span<float> out, const EftaOptions& opt,
                          fault::FaultInjector* inj) {
  if (q.size() != kv.d || out.size() != kv.d) {
    throw std::invalid_argument(
        "efta decode: q/out spans must hold d values");
  }
  return efta_decode_block(DecodeWorkItem{kv, q.data(), out.data(), 1, 0, 0},
                           opt, inj);
}

FtReport efta_decode_step(const MatrixH& k_cache, const MatrixH& v_cache,
                          std::span<const Half> q, std::span<float> out,
                          const EftaOptions& opt, fault::FaultInjector* inj) {
  const std::size_t n = k_cache.rows(), d = k_cache.cols();
  if (v_cache.rows() != n || v_cache.cols() != d) {
    throw std::invalid_argument("efta_decode_step: shape mismatch");
  }
  // A contiguous n x d cache is a degenerate tiled view: tile t starts at
  // row 64t, and the kernel never reads past the valid rows of the ragged
  // final tile.
  const std::size_t B = KvSlice::kTileRows;
  const std::size_t nblk = (n + B - 1) / B;
  std::vector<const Half*> kt(nblk), vt(nblk);
  for (std::size_t j = 0; j < nblk; ++j) {
    kt[j] = k_cache.data() + j * B * d;
    vt[j] = v_cache.data() + j * B * d;
  }
  const KvSlice kv{kt.data(), vt.data(), n, d};
  return efta_decode_step(kv, q, out, opt, inj);
}

namespace {

/// Validate every item before any computes: an exception must not be raised
/// inside an OpenMP worksharing region (that would terminate the process),
/// and a malformed batch must throw before any item writes its output or
/// fires a hook.
void validate_items(std::span<const DecodeWorkItem> items,
                    const EftaOptions& opt) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    try {
      validate_item(items[i], opt);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("efta_decode_batch: item " +
                                  std::to_string(i) + ": " + e.what());
    }
  }
}

}  // namespace

FtReport efta_decode_batch(std::span<const DecodeWorkItem> items,
                           const EftaOptions& opt, fault::FaultInjector* inj,
                           std::span<FtReport> per_item) {
  if (!per_item.empty() && per_item.size() != items.size()) {
    throw std::invalid_argument(
        "efta_decode_batch: per_item size must match items");
  }
  // An idle tick must be free: spinning up an OpenMP team for zero items
  // costs a barrier per call, which a scheduler polling an empty queue pays
  // on every tick.
  if (items.empty()) return {};
  validate_items(items, opt);

  return run_items(items, serving(opt), inj, per_item);
}

FtReport efta_attention(const Tensor4H& Q, const Tensor4H& K,
                        const Tensor4H& V, Tensor4F& O, const EftaOptions& opt,
                        fault::FaultInjector* inj) {
  attention::check_shapes(Q, K, V, O, "efta_attention");
  const std::size_t seq = Q.seq(), d = Q.dim(), B = KvSlice::kTileRows;
  const int s = opt.stride;
  if (s <= 0 || d % static_cast<std::size_t>(s) != 0 ||
      B % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument(
        "efta_attention: the checksum stride must divide dim and the 64-row "
        "tile");
  }
  if (seq > B && seq % B != 0) {
    throw std::invalid_argument(
        "efta_attention: a seq past one 64-row tile must be whole tiles");
  }
  if (seq == 0) return {};

  // Stage each (batch, head) slice once as a KV cache of 64-row tiles: a
  // full tile gets its K^T image and its checksum block, the sealed
  // operands of a serve::TilePool tile.  A slice shorter than one tile is
  // a ragged tail, which the kernel pads, transposes and encodes per call.
  const std::size_t heads = Q.heads(), slices = Q.batch() * heads;
  const std::size_t nblk = (seq + B - 1) / B, tiles = slices * nblk;
  const bool whole = seq % B == 0;
  const bool strided = opt.gemm == GemmProtect::kStrided;
  const std::size_t enc_n = tile_checksum_halves(B, d, s);
  std::vector<const Half*> kp(tiles), vp(tiles), img(tiles), enc(tiles);
  std::vector<Half> images(whole ? tiles * B * d : 0);
  std::vector<Half> blocks(whole && strided ? tiles * enc_n : 0);
#pragma omp parallel for schedule(static)
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t sl = t / nblk, j = t % nblk;
    kp[t] = K.slice(sl / heads, sl % heads).data() + j * B * d;
    vp[t] = V.slice(sl / heads, sl % heads).data() + j * B * d;
    if (!whole) continue;
    numeric::transpose_h(kp[t], B, d, images.data() + t * B * d);
    img[t] = images.data() + t * B * d;
    if (strided) {
      encode_tile_checksums(img[t], vp[t], B, d, s, nullptr,
                            blocks.data() + t * enc_n);
      enc[t] = blocks.data() + t * enc_n;
    }
  }

  // Query block i of a slice is one item over the slice's tiles: all seq
  // rows, or causally its prefix [0, 64(i+1)), where the block sits at the
  // end of its context like a prefill chunk.
  std::vector<DecodeWorkItem> items;
  items.reserve(tiles);
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t sl = t / nblk, first = t - t % nblk;
    const std::size_t r0 = (t % nblk) * B;
    KvSlice kv{&kp[first], &vp[first],
               opt.causal ? std::min(seq, r0 + B) : seq, d};
    kv.enc = &enc[first];
    kv.enc_stride = s;
    kv.f16t = &img[first];
    items.push_back(DecodeWorkItem{
        kv, Q.slice(sl / heads, sl % heads).data() + r0 * d,
        O.slice(sl / heads, sl % heads).data() + r0 * d,
        std::min(B, seq - r0)});
  }
  return run_items(items, opt, inj, {});
}

}  // namespace ftt::core
