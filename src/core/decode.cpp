#include "core/decode.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

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

/// Core causal query block over one tiled KV slice.  The block sits at the
/// end of the context: query row r (global position p = base + r with
/// base = n - q_len) attends rows [0, p] of the cache.  The loop structure
/// runs every row through the same GEMM routines, the same valid-lane
/// masking, the same GEMM II grouping and accumulation order and the same
/// fault hooks on the visible lanes — so each output row is bit-identical
/// to efta_decode_step over a context of p+1 tokens, whether the block is a
/// 1-row decode step, a speculative draft block or a 64-row prefill chunk.
/// The block's win is amortization: K/V tiles are loaded and checksum-
/// encoded once per block instead of once per token, and the score
/// GEMMs and GEMM II each cover all rows of a tile in one call.
///
/// Per tile, the rows visiting it run in three phases: the per-row softmax
/// and rescale, one GEMM II over their fp16-rounded weights (P·V, P·Vc1,
/// P·Vc2), then the adds into the running outputs.  Each hook site fires in
/// row-major order.  Across sites, a tile's rescale hooks all fire before
/// its GEMM II hooks, so a multi-row block interleaves sites differently
/// from running its rows one at a time — visible only to a multi-site
/// Bernoulli campaign, whose sites share one RNG.
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
/// sealed at another stride, a sealed tile whose encode hooks would flip;
/// an int8 tile's fresh encode reads its exactly dequantized rows).  Every
/// kernel widens exactly and keeps the ascending-k order, and transposes
/// are pure data movement, so all of these give the same bits.  An injector
/// changes hooks, never operands: a sealed block stands in whenever `skip`
/// vouches that none of the encode hooks it replaces would flip.
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
  std::vector<float> l(R, 0.0f);
  MatrixF oacc(R, d, 0.0f);
  MatrixF oc1(R, su, 0.0f), oc2(R, su, 0.0f);
  MatrixF blockmax(R, nblk);

  // Scores and softmax weights side by side: S stays the pre-EXP row the
  // product check and its repair read.
  MatrixF S(R, B), P(R, B), schk1(R, su), schk2(R, su);
  // fp16 scratch for the ragged tail only; full tiles are read in place.
  std::vector<Half> ktail(B * d), vtail(B * d);
  // K^T of an fp16 tile without a sealed image.
  std::vector<Half> kt_fresh(B * d);
  // A checksum block encoded fresh, when no sealed one can serve.
  std::vector<Half> enc_fresh(enc_n);
  // An int8 tile's exactly dequantized rows, for its fresh encode only.
  std::vector<float> kdq, vdq, ktdq;
  // GEMM II scratch for one tile: the fp16-rounded softmax weights of the
  // rows visiting it (the A operand), their P·V and P·Vc products.
  std::vector<Half> ph(R * B);
  std::vector<float> pf(R * B);
  std::vector<float> acc2(R * d);
  std::vector<float> tchk1(R * su), tchk2(R * su);
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
    // The checksum block.  The skip sits where the tile's encode hooks would
    // fire, before any other hook of the tile.
    const Half* enc =
        sealed_ok && full && it.kv.enc[j] != nullptr &&
                (inj == nullptr || inj->skip(fault::Site::kChecksum, enc_n))
            ? it.kv.enc[j]
            : nullptr;
    if (enc == nullptr) {
      if (is_i8) {
        if (kdq.empty()) {
          kdq.resize(B * d);
          vdq.resize(B * d);
          ktdq.resize(B * d);
        }
        numeric::dequantize_i8_to_f32(it.kv.k_i8[j], ktdq.data(), B * d,
                                      it.kv.k_scale[j]);
        numeric::transpose_f32(ktdq.data(), d, B, kdq.data());
        numeric::dequantize_i8_to_f32(it.kv.v_i8[j], vdq.data(), B * d,
                                      it.kv.v_scale[j]);
        encode_tile_checksums(kdq.data(), vdq.data(), B, d, s, inj,
                              enc_fresh.data());
      } else {
        encode_tile_checksums(kt, vt, B, d, s, inj, enc_fresh.data());
      }
      ++testing::tiles_encoded();
      enc = enc_fresh.data();
    }
    // enc = [Kc1^T d x su | Kc2^T d x su | Vc1 B x su | Vc2 B x su]
    const Half* kc2t = enc + d * su;
    const Half* vc1 = kc2t + d * su;
    const Half* vc2 = vc1 + B * su;

    if (is_i8) {
      numeric::gemm_f32_nn_i8(qf.data(), R, d, it.kv.k_i8[j], B,
                              it.kv.k_scale[j], &S(0, 0), S.cols(), false);
    } else {
      const Half* kimg =
          full && it.kv.f16t != nullptr ? it.kv.f16t[j] : nullptr;
      if (kimg == nullptr) {
        numeric::transpose_h(kt, B, d, kt_fresh.data());
        kimg = kt_fresh.data();
      }
      sim::gemm_f32_nnh(qf.data(), R, d, kimg, B, S);
    }
    sim::gemm_f32_nnh(qf.data(), R, d, enc, su, schk1);
    sim::gemm_f32_nnh(qf.data(), R, d, kc2t, su, schk2);
    // Rows [r0, R) visit this tile: row r (global position p = base + r)
    // sees lanes [0, min(B, p + 1 - jB)) of it once its causal prefix
    // reaches it.  A block never starts past the cache end, so visibility is
    // a per-row prefix of lanes and a per-row prefix of tiles.
    const std::size_t r0 = j * B > base ? j * B - base : 0;
    const std::size_t rows = R - r0;
    const auto visible = [&](std::size_t r) {
      return std::min(B, base + r + 1 - j * B);
    };
    if (inj) {
      for (std::size_t r = r0; r < R; ++r) {
        for (std::size_t c = 0; c < visible(r); ++c) {
          S(r, c) = inj->corrupt(fault::Site::kGemm1, S(r, c));
        }
      }
    }
    // Linear verification runs pre-mask over the whole block: every lane —
    // visible, causally masked, or padding — satisfies the checksum relation
    // against this tile, so one block verify witnesses all rows at once.
    rep.gemm1 += abft::StridedAbft::verify_correct(S, schk1, schk2, s,
                                                   opt.abft_rel_threshold);

    for (std::size_t r = r0; r < R; ++r) {
      const std::size_t vis = visible(r);

      // Streaming softmax update, the single-row decode loop verbatim:
      // the running max sees only the row's visible lanes.
      const float bmax = fault::corrupt(inj, fault::Site::kReduceMax,
                                        softmax::row_max(&S(r, 0), vis));
      blockmax(r, j) = bmax;
      const float mnew = std::max(m[r], bmax);

      // The EXP hooks fire after the bulk exp, per lane in order.
      softmax::exp_shifted(&S(r, 0), mnew, &P(r, 0), vis);
      if (inj) {
        for (std::size_t c = 0; c < vis; ++c) {
          P(r, c) = inj->corrupt(fault::Site::kExp, P(r, c));
        }
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
      for (std::size_t jc = 0; jc < su; ++jc) {
        rhs[jc] =
            static_cast<double>(schk1(r, jc)) - static_cast<double>(L) * mnew;
      }
      const std::uint64_t pass =
          vis == B ? softmax::log_product_screen(&P(r, 0), su, L, rhs.data(),
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
          // Repair the scores via the linear checksum, then re-exponentiate
          // the visible lanes (per-row temporaries: this path only runs
          // under a fault).
          MatrixF srow(1, B), c1row(1, su), c2row(1, su);
          for (std::size_t c = 0; c < B; ++c) srow(0, c) = S(r, c);
          for (std::size_t c = 0; c < su; ++c) {
            c1row(0, c) = schk1(r, c);
            c2row(0, c) = schk2(r, c);
          }
          abft::StridedAbft::verify_correct(srow, c1row, c2row, s,
                                            opt.abft_rel_threshold);
          softmax::exp_shifted(&srow(0, 0), mnew, &P(r, 0), vis);
          ++rep.exp_check.recomputed;
          break;
        }
      }

      float rowsum = 0.0f;
      for (std::size_t c = 0; c < B; ++c) rowsum += P(r, c);
      rowsum = fault::corrupt(inj, fault::Site::kReduceSum, rowsum);

      const float f = softmax::exp_shifted(m[r], mnew);
      for (std::size_t c = 0; c < d; ++c) {
        oacc(r, c) = fault::corrupt(inj, fault::Site::kRescale,
                                    f * oacc(r, c));
      }
      for (std::size_t jc = 0; jc < su; ++jc) {
        oc1(r, jc) *= f;
        oc2(r, jc) *= f;
      }
      l[r] = f * l[r] + rowsum;
      m[r] = mnew;
    }

    // GEMM II over the whole tile: P (the visiting rows' softmax weights,
    // rounded to fp16 once) times V and both V checksum blocks, each
    // product summed from zero and added once into the running outputs
    // below — decode's per-row grouping.  Every output still sums its r2
    // terms in ascending order (the vector FMA form is bit-identical under
    // the exact-product precondition: fp16 weights against fp16-valued or
    // exactly dequantized V), and masked lanes contribute exact zeros: P is
    // exactly 0.0f there, and 0 * v adds a signed zero that cannot change
    // the accumulator.  Only the V payload's operand kernel differs per
    // format.
    numeric::floats_to_halves(&P(r0, 0), ph.data(), rows * B);
    numeric::halves_to_floats(ph.data(), pf.data(), rows * B);
    if (is_i8) {
      numeric::gemm_f32_nn_i8(pf.data(), rows, B, it.kv.v_i8[j], d,
                              it.kv.v_scale[j], acc2.data(), d, false);
    } else {
      numeric::gemm_f32_nnh(pf.data(), rows, B, vt, d, acc2.data(), d, false);
    }
    numeric::gemm_f32_nnh(pf.data(), rows, B, vc1, su, tchk1.data(), su,
                          false);
    numeric::gemm_f32_nnh(pf.data(), rows, B, vc2, su, tchk2.data(), su,
                          false);
    for (std::size_t r = r0; r < R; ++r) {
      const std::size_t t = r - r0;
      for (std::size_t c = 0; c < d; ++c) {
        oacc(r, c) = fault::corrupt(inj, fault::Site::kGemm2,
                                    oacc(r, c) + acc2[t * d + c]);
      }
      for (std::size_t jc = 0; jc < su; ++jc) {
        oc1(r, jc) += tchk1[t * su + jc];
        oc2(r, jc) += tchk2[t * su + jc];
      }
    }
  }

  // SNVR range restriction per row over its own tile-max history.
  for (std::size_t r = 0; r < R; ++r) {
    const std::size_t p = base + r;
    const std::size_t row_tiles = p / B + 1;
    const auto res = softmax::snvr_check_rowsum(
        l[r], std::span<const float>(&blockmax(r, 0), row_tiles), m[r], p + 1,
        opt.snvr_slack);
    if (res.violated) {
      l[r] = res.corrected_value;
      ++rep.range_corrections;
    }
  }

  // Normalize + final unified O verification over the whole block.
  MatrixF ofin(R, d);
  for (std::size_t r = 0; r < R; ++r) {
    const float inv = 1.0f / l[r];
    for (std::size_t c = 0; c < d; ++c) {
      ofin(r, c) = oacc(r, c) * inv;
    }
    for (std::size_t jc = 0; jc < su; ++jc) {
      oc1(r, jc) *= inv;
      oc2(r, jc) *= inv;
    }
  }
  rep.gemm2 += abft::StridedAbft::verify_correct(ofin, oc1, oc2, s,
                                                 opt.abft_rel_threshold);
  for (std::size_t r = 0; r < R; ++r) {
    float* dst = it.out + r * os;
    for (std::size_t c = 0; c < d; ++c) dst[c] = ofin(r, c);
  }
  return rep;
}

}  // namespace

FtReport efta_decode_block(const DecodeWorkItem& item, const EftaOptions& opt,
                           fault::FaultInjector* inj) {
  validate_item(item, opt);
  const std::size_t before = inj ? inj->injected() : 0;
  FtReport rep = block_slice(item, opt, inj);
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

std::pair<std::size_t, std::size_t> shard_range(std::size_t shard,
                                                std::size_t nshards,
                                                std::size_t total) {
  if (nshards == 0 || shard >= nshards) {
    throw std::invalid_argument("shard_range: shard index out of range");
  }
  const std::size_t base = total / nshards;
  const std::size_t rem = total % nshards;
  const std::size_t begin = shard * base + std::min(shard, rem);
  return {begin, begin + base + (shard < rem ? 1 : 0)};
}

ShardSpec ShardSpec::for_shard(std::size_t shard, std::size_t nshards,
                               std::size_t total_heads) {
  const auto [begin, end] = shard_range(shard, nshards, total_heads);
  return ShardSpec{begin, end};
}

}  // namespace ftt::core
