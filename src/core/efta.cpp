#include "core/efta.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include <omp.h>

#include "abft/element_abft.hpp"
#include "abft/strided_abft.hpp"
#include "attention/kv_stage.hpp"
#include "numeric/fp16.hpp"
#include "numeric/gemm_simd.hpp"
#include "sim/mma.hpp"
#include "softmax/snvr.hpp"
#include "softmax/softmax.hpp"

namespace ftt::core {

using attention::AttnShape;
using attention::FtReport;
using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;
using tensor::Tensor4F;
using tensor::Tensor4H;

namespace {

bool near_integer(double x, double tol = 0.05) {
  return std::fabs(x - std::round(x)) < tol;
}

/// Case-2 verification with the unified checksum (Algorithm 1 lines 12-16):
/// the linear checksum Schk1/Schk2 of GEMM I, transformed by the same
/// subtract-max, witnesses the EXP output multiplicatively:
///     prod_l P[r][jc+s*l]  ==  exp(Schk1[r][jc] - L * m_r).
/// Evaluated in the log domain (double) to avoid fp32 underflow of 8-term
/// products, in product form (softmax::log_product: one multiply per
/// element, one log per residue class).  Only a flagged class pays for the
/// weighted log-residual that locates the column.
/// `Spre` is the pre-EXP score block P was exponentiated from, used for
/// recovery: checksum-correctable flips repair Spre then re-exponentiate,
/// EXP-unit flips are recomputed from Spre.
abft::Report verify_exp_block(MatrixF& P, MatrixF& Spre, const MatrixF& Schk1,
                              const MatrixF& Schk2,
                              const std::vector<float>& mnew, int s,
                              float exp_log_threshold) {
  abft::Report rep;
  const std::size_t R = P.rows(), C = P.cols();
  const auto su = static_cast<std::size_t>(s);
  const std::size_t L = C / su;
  const double w2sum = static_cast<double>(L) * (L + 1) / 2.0;
  std::vector<double> rhs(su);

  for (std::size_t r = 0; r < R; ++r) {
    const double m = mnew[r];
    // The checksum side of every class, then the residue-class screen: a
    // class it passes is one the scalar test below passes too; the others
    // run that test unchanged.
    for (std::size_t jc = 0; jc < su; ++jc) {
      rhs[jc] = static_cast<double>(Schk1(r, jc)) - static_cast<double>(L) * m;
    }
    const std::uint64_t pass = softmax::log_product_screen(
        &P(r, 0), su, L, rhs.data(), exp_log_threshold);
    for (std::size_t jc = 0; jc < su; ++jc) {
      ++rep.checks;
      if ((pass >> jc) & 1u) continue;
      const auto lhs1 = softmax::log_product(&P(r, jc), su, L);
      if (!lhs1) {
        // exp output must be a positive finite value: a sign/exponent flip
        // in the EXP unit — or a non-finite score that propagated through.
        ++rep.flagged;
        // Repair a non-finite score first (linear reconstruction).
        std::size_t bad = L, bad_count = 0;
        float others = 0.0f;
        for (std::size_t l = 0; l < L; ++l) {
          const float sv = Spre(r, jc + l * s);
          if (!std::isfinite(sv)) {
            bad = l;
            ++bad_count;
          } else {
            others += sv;
          }
        }
        if (bad_count == 1 && std::isfinite(Schk1(r, jc))) {
          Spre(r, jc + bad * s) = Schk1(r, jc) - others;
          ++rep.corrected;
        }
        for (std::size_t l = 0; l < L; ++l) {
          P(r, jc + l * s) = softmax::exp_shifted(Spre(r, jc + l * s), mnew[r]);
        }
        ++rep.recomputed;
        continue;
      }

      // The log-domain residual equals the score-space perturbation, so an
      // absolute threshold directly bounds the undetected error magnitude.
      const double d1 = *lhs1 - rhs[jc];
      if (std::fabs(d1) <= exp_log_threshold) {
        continue;
      }
      ++rep.flagged;

      double lhs2 = 0.0;
      for (std::size_t l = 0; l < L; ++l) {
        lhs2 += static_cast<double>(l + 1) *
                std::log(static_cast<double>(P(r, jc + l * s)));
      }
      const double rhs2 =
          static_cast<double>(Schk2(r, jc)) - w2sum * m;
      const double d2 = lhs2 - rhs2;
      const double ratio = d2 / d1;  // = l* + 1 for one corrupted element
      const double lstar = ratio - 1.0;

      if (std::isfinite(lstar) && near_integer(lstar, 0.1) && lstar >= -0.5 &&
          lstar < static_cast<double>(L) - 0.5) {
        const auto l = static_cast<std::size_t>(std::lround(lstar));
        const std::size_t col = jc + l * s;
        // Was the flip in the linear path (GEMM I / subtract) or in EXP?
        float sum1 = 0.0f;
        for (std::size_t ll = 0; ll < L; ++ll) sum1 += Spre(r, jc + ll * s);
        const float dlin = Schk1(r, jc) - sum1;
        if (std::fabs(dlin) > 0.5f * std::fabs(static_cast<float>(d1))) {
          // Linear error: reconstruct the score from the checksum (exact
          // even for huge corruptions), then re-exponentiate.
          float others = 0.0f;
          for (std::size_t ll = 0; ll < L; ++ll) {
            if (ll != l) others += Spre(r, jc + ll * s);
          }
          Spre(r, col) = Schk1(r, jc) - others;
          P(r, col) = softmax::exp_shifted(Spre(r, col), mnew[r]);
          ++rep.corrected;
        } else {
          // EXP-unit error: recompute from the intact score.
          P(r, col) = softmax::exp_shifted(Spre(r, col), mnew[r]);
          ++rep.recomputed;
        }
      } else if (std::isfinite(ratio) && std::fabs(ratio) < 0.5) {
        // c2 residual ~0, c1 residual large: the c1 checksum itself flipped.
        ++rep.checksum_repairs;
      } else {
        // Cannot locate (multi-error in a residue class or weighted-checksum
        // flip): recompute the class; if the linear sums still disagree the
        // scores themselves are unrecoverable.
        float sum1 = 0.0f;
        for (std::size_t ll = 0; ll < L; ++ll) sum1 += Spre(r, jc + ll * s);
        const float dlin = Schk1(r, jc) - sum1;
        for (std::size_t ll = 0; ll < L; ++ll) {
          P(r, jc + ll * s) =
              softmax::exp_shifted(Spre(r, jc + ll * s), mnew[r]);
        }
        if (std::fabs(dlin) > exp_log_threshold) {
          ++rep.uncorrectable;
        } else {
          ++rep.recomputed;
        }
      }
    }
  }
  return rep;
}

/// The EXP stage: P = exp(S - mnew) row by row through the bulk lanes, then
/// the EXP hooks per element in row-major order, so per-site call indices
/// match an element-at-a-time loop.
void exp_block(const MatrixF& S, const std::vector<float>& mnew, MatrixF& P,
               fault::FaultInjector* inj) {
  const std::size_t C = S.cols();
  for (std::size_t r = 0; r < S.rows(); ++r) {
    softmax::exp_shifted(&S(r, 0), mnew[r], &P(r, 0), C);
  }
  if (inj) {
    for (std::size_t i = 0; i < P.size(); ++i) {
      P.data()[i] = inj->corrupt(fault::Site::kExp, P.data()[i]);
    }
  }
}

/// DMR replication of the EXP stage (Eq. 10): evaluate twice through the
/// fault hooks, retry until two consecutive evaluations agree.
std::size_t dmr_exp_block(const MatrixF& S, MatrixF& P,
                          const std::vector<float>& mnew, float eps,
                          fault::FaultInjector* inj,
                          std::size_t max_rounds = 4) {
  MatrixF a(S.rows(), S.cols()), b(S.rows(), S.cols());
  exp_block(S, mnew, a, inj);
  std::size_t recomputes = 0;
  for (std::size_t round = 1; round < max_rounds; ++round) {
    exp_block(S, mnew, b, inj);
    ++recomputes;
    float diff = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i) {
      diff = std::max(diff, std::fabs(a.data()[i] - b.data()[i]));
    }
    if (diff < eps) {
      P = b;
      return recomputes - 1;  // agreement on the first re-evaluation is free
    }
    std::swap(a, b);
  }
  P = a;
  return recomputes;
}

/// sums[r] = P(r, 0) + P(r, 1) + ... in ascending order, for eight rows at a
/// time: independent chains side by side instead of one latency-bound chain.
void row_sums(const MatrixF& P, std::vector<float>& sums) {
  const std::size_t R = P.rows(), C = P.cols();
  constexpr std::size_t kRows = 8;
  std::size_t r = 0;
  for (; r + kRows <= R; r += kRows) {
    float acc[kRows] = {};
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t k = 0; k < kRows; ++k) acc[k] += P(r + k, c);
    }
    std::copy_n(acc, kRows, sums.begin() + static_cast<std::ptrdiff_t>(r));
  }
  for (; r < R; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < C; ++c) acc += P(r, c);
    sums[r] = acc;
  }
}

/// Per-thread staging for efta_slice, reused across the slices one thread
/// runs.
struct SliceStage {
  attention::KvStage kv;  ///< K^T blocks + widened V, once per slice
  /// Widened checksum blocks (encode_tile_checksums layout), block j at
  /// j * tile_checksum_halves(B, dim, s), plus one spare slot past the last
  /// block that a pair whose encode hooks would flip re-encodes into.
  std::vector<float> enc;
  std::vector<Half> enc_h;  ///< one block's fp16 encoder output
  std::vector<float> qf;    ///< current Q row block, widened
  std::vector<Half> ph;     ///< P rounded to fp16 ...
  std::vector<float> pf;    ///< ... and widened back: GEMM II's A operand
};

/// Derive one KV block's checksum block from its stored fp16 rows and widen
/// it into staging slot `slot`.
void encode_block(const Half* kb, const Half* vb, std::size_t B,
                  std::size_t dim, int s, fault::FaultInjector* inj,
                  SliceStage& st, std::size_t slot) {
  const std::size_t n = tile_checksum_halves(B, dim, s);
  st.enc_h.resize(n);
  encode_tile_checksums(kb, vb, B, dim, s, inj, st.enc_h.data());
  numeric::halves_to_floats(st.enc_h.data(), st.enc.data() + slot * n, n);
}

/// One (batch, head) slice.  The slice is staged once: K/V images via
/// attention::KvStage, each Q row block widened once per row block, and
/// each KV block's checksum encodings derived once instead of once per
/// (row-block, column-block) pair.  The per-pair encode hooks still count:
/// under an injector each pair skip()s them, and only a pair one of whose
/// encode hooks would flip re-encodes through the hooks, into the spare
/// slot, so campaign call indices do not move.  Every GEMM
/// runs over the fp32 images through numeric::gemm_f32_nn in ascending-k
/// order, and P rounds to fp16 once per pair for all of GEMM II's products,
/// so the output is bit-identical to per-pair gemm_fp16_nt / gemm_f32h_nn.
FtReport efta_slice(const Tensor4H& Q, const Tensor4H& K, const Tensor4H& V,
                    Tensor4F& O, std::size_t bb, std::size_t hh, float scale,
                    const EftaOptions& opt, SliceStage& st,
                    fault::FaultInjector* inj) {
  FtReport rep;
  const std::size_t seq = Q.seq(), dim = Q.dim();
  const std::size_t B = std::min(opt.block, seq);
  const std::size_t nblk = seq / B;
  const int s = opt.stride;
  const bool strided = opt.gemm == GemmProtect::kStrided;
  const bool element = opt.gemm == GemmProtect::kElement;
  const bool snvr = opt.softmax == SoftmaxProtect::kSNVR;
  const auto su = static_cast<std::size_t>(s);

  const MatrixH q = tensor::load_slice(Q, bb, hh, scale);
  const Half* k = K.slice(bb, hh).data();
  const Half* v = V.slice(bb, hh).data();
  st.kv.stage(k, v, seq, dim, B);
  // One pair's encode fires one kChecksum hook per checksum-block element.
  const std::size_t enc_n = tile_checksum_halves(B, dim, s);
  if (strided) {
    st.enc.resize((nblk + 1) * enc_n);
    for (std::size_t j = 0; j < nblk; ++j) {
      encode_block(k + j * B * dim, v + j * B * dim, B, dim, s, nullptr, st,
                   j);
    }
  }
  st.qf.resize(B * dim);
  st.ph.resize(B * B);
  st.pf.resize(B * B);
  const float* qf = st.qf.data();
  const float* pf = st.pf.data();

  std::vector<float> m(B), mnew(B), l(B), f(B), rowsums(B);
  MatrixF oacc(B, dim), oc1(B, su), oc2(B, su);
  MatrixF blockmax(B, nblk);  // per-row history of block maxima (SNVR)
  MatrixF S(B, B), P(B, B), schk1(B, su), schk2(B, su);
  MatrixF t, col_chk, p_chk;  // element-ABFT GEMM II scratch
  if (element) {
    t = MatrixF(B, dim);
    col_chk = MatrixF(2, dim);
    p_chk = MatrixF(2, B);
  }

  for (std::size_t i = 0; i < nblk; ++i) {
    const std::size_t r0 = i * B;
    numeric::halves_to_floats(q.data() + r0 * dim, st.qf.data(), B * dim);

    std::fill(m.begin(), m.end(), -std::numeric_limits<float>::infinity());
    std::fill(l.begin(), l.end(), 0.0f);
    oacc.fill(0.0f);
    oc1.fill(0.0f);
    oc2.fill(0.0f);

    std::size_t processed = 0;
    for (std::size_t j = 0; j < nblk; ++j) {
      const std::size_t c0 = j * B;
      if (opt.causal && c0 > r0 + B - 1) break;  // strictly above the diagonal
      const bool diagonal = opt.causal && j == i;
      ++processed;
      const float* vj = st.kv.v(c0);

      // ---- CCG + GEMM I (+ immediate verify in non-unified mode) ----
      const float *kc1t = nullptr, *kc2t = nullptr;
      const float *vc1 = nullptr, *vc2 = nullptr;
      if (strided) {
        std::size_t slot = j;
        if (inj && !inj->skip(fault::Site::kChecksum, enc_n)) {
          encode_block(k + c0 * dim, v + c0 * dim, B, dim, s, inj, st, nblk);
          slot = nblk;
        }
        kc1t = st.enc.data() + slot * enc_n;
        kc2t = kc1t + dim * su;
        vc1 = kc2t + dim * su;
        vc2 = vc1 + B * su;
      }
      if (element) {
        rep.gemm1 += abft::ElementAbft::gemm_nn_widened(
            qf, B, dim, st.kv.kt(c0), B, S, opt.abft_rel_threshold, inj,
            fault::Site::kGemm1);
      } else {
        sim::gemm_f32_nn(qf, B, dim, st.kv.kt(c0), B, S);
        if (inj) {
          for (std::size_t r = 0; r < B; ++r) {
            for (std::size_t c = 0; c < B; ++c) {
              S(r, c) = inj->corrupt(fault::Site::kGemm1, S(r, c));
            }
          }
        }
      }
      if (strided) {
        sim::gemm_f32_nn(qf, B, dim, kc1t, su, schk1);
        sim::gemm_f32_nn(qf, B, dim, kc2t, su, schk2);
        if (inj) {
          for (std::size_t r = 0; r < B; ++r) {
            for (std::size_t c = 0; c < su; ++c) {
              schk1(r, c) = inj->corrupt(fault::Site::kChecksum, schk1(r, c));
              schk2(r, c) = inj->corrupt(fault::Site::kChecksum, schk2(r, c));
            }
          }
        }
        if (!opt.unified_verification || diagonal) {
          // The causal mask destroys the checksum relation on the diagonal
          // block, so that block is always verified pre-mask.
          rep.gemm1 += abft::StridedAbft::verify_correct(
              S, schk1, schk2, s, opt.abft_rel_threshold);
        } else {
          // NVR on the scores: a non-finite or absurd score would poison the
          // running max and underflow the whole row before the deferred
          // EXP check could see it.  Range violations trigger an immediate
          // checksum repair (scores from post-layernorm fp16 inputs are
          // bounded far below score_bound).
          if (!softmax::scores_in_range(S.data(), B * B, opt.score_bound)) {
            rep.gemm1 += abft::StridedAbft::verify_correct(
                S, schk1, schk2, s, opt.abft_rel_threshold);
          }
        }
      }

      if (diagonal) {
        for (std::size_t r = 0; r < B; ++r) {
          for (std::size_t c = 0; c < B; ++c) {
            if (c0 + c > r0 + r) {
              S(r, c) = -std::numeric_limits<float>::infinity();
            }
          }
        }
      }

      // ---- reduce-max (Case 1: errors cancel through the rescale) ----
      for (std::size_t r = 0; r < B; ++r) {
        const float bmax = fault::corrupt(inj, fault::Site::kReduceMax,
                                          softmax::row_max(&S(r, 0), B));
        blockmax(r, j) = bmax;
        mnew[r] = std::max(m[r], bmax);
      }

      // ---- EXP (with SNVR checksum reuse or DMR replication) ----
      // P is written beside the scores, so S stays the pre-EXP block the
      // product check repairs from.
      if (opt.softmax == SoftmaxProtect::kDMR) {
        rep.dmr_recomputes += dmr_exp_block(S, P, mnew, opt.dmr_eps, inj);
      } else {
        exp_block(S, mnew, P, inj);
      }
      if (strided && snvr && !diagonal) {
        rep.exp_check += verify_exp_block(P, S, schk1, schk2, mnew, s,
                                          opt.exp_log_threshold);
      }

      // ---- rescale + reduce-sum ----
      // The row sums run first, eight rows' serial chains side by side (each
      // still adds its lanes in ascending order); their hooks fire below in
      // the per-row order.
      row_sums(P, rowsums);
      for (std::size_t r = 0; r < B; ++r) {
        // exp(-inf) == 0 on the first block.
        f[r] = softmax::exp_shifted(m[r], mnew[r]);
        for (std::size_t c = 0; c < dim; ++c) {
          oacc(r, c) = fault::corrupt(inj, fault::Site::kRescale,
                                      f[r] * oacc(r, c));
        }
        if (strided) {
          for (std::size_t jc = 0; jc < su; ++jc) {
            oc1(r, jc) = fault::corrupt(inj, fault::Site::kChecksum,
                                        f[r] * oc1(r, jc));
            oc2(r, jc) = fault::corrupt(inj, fault::Site::kChecksum,
                                        f[r] * oc2(r, jc));
          }
        }
        const float rowsum =
            fault::corrupt(inj, fault::Site::kReduceSum, rowsums[r]);
        l[r] = f[r] * l[r] + rowsum;
        m[r] = mnew[r];
      }

      // ---- GEMM II ----
      // P rounds through fp16 at the tensor-core boundary once per pair;
      // the payload and both checksum products share the rounded operand.
      numeric::floats_to_halves(&P(0, 0), st.ph.data(), B * B);
      numeric::halves_to_floats(st.ph.data(), st.pf.data(), B * B);
      if (element) {
        // Classic checksums cannot ride the per-row rescale, so traditional
        // ABFT must verify each product P_ij V_j before accumulation.
        for (std::size_t kk = 0; kk < B; ++kk) {
          float s1 = 0.0f, s2 = 0.0f;
          for (std::size_t r = 0; r < B; ++r) {
            const float pv = pf[r * B + kk];
            s1 += pv;
            s2 += static_cast<float>(r + 1) * pv;
          }
          p_chk(0, kk) = fault::corrupt(inj, fault::Site::kChecksum, s1);
          p_chk(1, kk) = fault::corrupt(inj, fault::Site::kChecksum, s2);
        }
        sim::gemm_f32_nn(pf, B, B, vj, dim, t);
        if (inj) {
          for (std::size_t r = 0; r < B; ++r) {
            for (std::size_t c = 0; c < dim; ++c) {
              t(r, c) = inj->corrupt(fault::Site::kGemm2, t(r, c));
            }
          }
        }
        // The checksum rows enter the tensor core as fp16 operands too.
        for (std::size_t kk = 0; kk < 2 * B; ++kk) {
          p_chk.data()[kk] = numeric::round_to_half(p_chk.data()[kk]);
        }
        sim::gemm_f32_nn(p_chk.data(), 2, B, vj, dim, col_chk);
        rep.gemm2 += abft::ElementAbft::verify_correct(t, col_chk,
                                                       opt.abft_rel_threshold);
        for (std::size_t r = 0; r < B; ++r) {
          for (std::size_t c = 0; c < dim; ++c) oacc(r, c) += t(r, c);
        }
      } else {
        sim::gemm_f32_nn(pf, B, B, vj, dim, oacc, /*accumulate=*/true);
        if (inj) {
          for (std::size_t r = 0; r < B; ++r) {
            for (std::size_t c = 0; c < dim; ++c) {
              oacc(r, c) = inj->corrupt(fault::Site::kGemm2, oacc(r, c));
            }
          }
        }
        if (strided) {
          sim::gemm_f32_nn(pf, B, B, vc1, su, oc1, /*accumulate=*/true);
          sim::gemm_f32_nn(pf, B, B, vc2, su, oc2, /*accumulate=*/true);
          if (inj) {
            for (std::size_t r = 0; r < B; ++r) {
              for (std::size_t jc = 0; jc < su; ++jc) {
                oc1(r, jc) = inj->corrupt(fault::Site::kChecksum, oc1(r, jc));
                oc2(r, jc) = inj->corrupt(fault::Site::kChecksum, oc2(r, jc));
              }
            }
          }
          if (!opt.unified_verification) {
            rep.gemm2 += abft::StridedAbft::verify_correct(
                oacc, oc1, oc2, s, opt.abft_rel_threshold);
          }
        }
      }

      // ---- per-iteration SNVR range check (non-unified mode) ----
      if (snvr && !opt.unified_verification) {
        for (std::size_t r = 0; r < B; ++r) {
          const auto hist = std::span<const float>(&blockmax(r, 0), j + 1);
          const std::size_t visible =
              opt.causal ? std::min((j + 1) * B, r0 + r + 1) : (j + 1) * B;
          const auto res = softmax::snvr_check_rowsum(
              l[r], hist, m[r], visible, opt.snvr_slack);
          if (res.violated) {
            l[r] = res.corrected_value;
            ++rep.range_corrections;
          }
        }
      }
    }  // j loop

    // ---- final SNVR range restriction (Algorithm 1 lines 22-24) ----
    if (snvr && opt.unified_verification) {
      for (std::size_t r = 0; r < B; ++r) {
        const auto hist = std::span<const float>(&blockmax(r, 0), processed);
        const std::size_t visible = opt.causal ? (r0 + r + 1) : seq;
        const auto res = softmax::snvr_check_rowsum(l[r], hist, m[r], visible,
                                                    opt.snvr_slack);
        if (res.violated) {
          l[r] = res.corrected_value;
          ++rep.range_corrections;
        }
      }
    }

    // ---- normalization (rides the O checksum) ----
    for (std::size_t r = 0; r < B; ++r) {
      const float inv = 1.0f / l[r];
      for (std::size_t c = 0; c < dim; ++c) {
        oacc(r, c) =
            fault::corrupt(inj, fault::Site::kRescale, oacc(r, c) * inv);
      }
      if (strided) {
        for (std::size_t jc = 0; jc < su; ++jc) {
          oc1(r, jc) *= inv;
          oc2(r, jc) *= inv;
        }
      }
    }

    // ---- final unified verification of GEMM II + rescale + normalize ----
    if (strided) {
      rep.gemm2 += abft::StridedAbft::verify_correct(oacc, oc1, oc2, s,
                                                     opt.abft_rel_threshold);
    }

    for (std::size_t r = 0; r < B; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        O.at(bb, hh, r0 + r, c) = oacc(r, c);
      }
    }
  }  // i loop
  return rep;
}

template <typename T>
void encode_tile(const T* k, const T* v, std::size_t rows, std::size_t d,
                 int s, fault::FaultInjector* inj, Half* out) {
  using Enc = abft::StridedAbft;
  // The Half encoders widen in registers, so fp16 rows and exactly
  // dequantized fp32 rows of equal value give equal sums.
  const auto encode = [&](const T* x, bool along_rows, bool weighted) {
    if constexpr (std::is_same_v<T, Half>) {
      return along_rows
                 ? Enc::encode_rows_strided_h(x, rows, d, s, weighted, inj)
                 : Enc::encode_cols_strided_h(x, rows, d, s, weighted, inj);
    } else {
      return along_rows ? Enc::encode_rows_strided_widened(x, rows, d, s,
                                                           weighted, inj)
                        : Enc::encode_cols_strided_widened(x, rows, d, s,
                                                           weighted, inj);
    }
  };
  const auto su = static_cast<std::size_t>(s);
  const std::size_t vcn = rows * su;
  // Statement order is hook order: Kc1, Kc2, Vc1, Vc2.  The K row checksums
  // (s x d) land transposed; the V column checksums are already k-major.
  numeric::transpose_h(encode(k, true, false).data(), su, d, out);
  numeric::transpose_h(encode(k, true, true).data(), su, d, out + d * su);
  Half* vc = out + 2 * d * su;
  std::copy_n(encode(v, false, false).data(), vcn, vc);
  std::copy_n(encode(v, false, true).data(), vcn, vc + vcn);
}

}  // namespace

void encode_tile_checksums(const Half* k, const Half* v, std::size_t rows,
                           std::size_t d, int s, fault::FaultInjector* inj,
                           Half* out) {
  encode_tile(k, v, rows, d, s, inj, out);
}

void encode_tile_checksums(const float* k, const float* v, std::size_t rows,
                           std::size_t d, int s, fault::FaultInjector* inj,
                           Half* out) {
  encode_tile(k, v, rows, d, s, inj, out);
}

FtReport efta_attention(const Tensor4H& Q, const Tensor4H& K,
                        const Tensor4H& V, Tensor4F& O, const EftaOptions& opt,
                        fault::FaultInjector* inj) {
  attention::check_shapes(Q, K, V, O, "efta_attention");
  if (opt.block == 0 || opt.stride <= 0) {
    throw std::invalid_argument(
        "efta_attention: block and stride must be at least 1");
  }
  if (Q.seq() == 0) return {};
  const float scale = 1.0f / std::sqrt(static_cast<float>(Q.dim()));
  const std::size_t slices = Q.batch() * Q.heads();
  const std::size_t B = std::min(opt.block, Q.seq());
  if (Q.seq() % B != 0 || B % static_cast<std::size_t>(opt.stride) != 0 ||
      Q.dim() % static_cast<std::size_t>(opt.stride) != 0) {
    throw std::invalid_argument(
        "efta_attention: seq must be a multiple of block, and block/dim "
        "multiples of the checksum stride");
  }
  FtReport total;

  if (inj) {
    // Per-call delta, not the injector's lifetime total: reports from
    // consecutive calls sharing one injector (e.g. Model::forward summing
    // per-block reports) must merge without double counting.
    const std::size_t before = inj->injected();
    SliceStage st;
    for (std::size_t sl = 0; sl < slices; ++sl) {
      total += efta_slice(Q, K, V, O, sl / Q.heads(), sl % Q.heads(), scale,
                          opt, st, inj);
    }
    total.faults_injected = inj->injected() - before;
    return total;
  }

#pragma omp parallel
  {
    SliceStage st;
    FtReport local;
#pragma omp for schedule(dynamic) nowait
    for (std::size_t sl = 0; sl < slices; ++sl) {
      local += efta_slice(Q, K, V, O, sl / Q.heads(), sl % Q.heads(), scale,
                          opt, st, nullptr);
    }
#pragma omp critical
    total += local;
  }
  return total;
}

EftaOverheadByTarget efta_overhead_by_target(const AttnShape& shape,
                                             const EftaOptions& opt) {
  EftaOverheadByTarget t;
  const double S = static_cast<double>(shape.seq);
  const double D = static_cast<double>(shape.dim);
  const double B = static_cast<double>(std::min(opt.block, shape.seq));
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
  return attention::flash_attention_costs(shape, opt.block) +
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
