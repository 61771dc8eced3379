#include "abft/strided_abft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "numeric/gemm_simd.hpp"
#include "numeric/simd.hpp"
#include "sim/mma.hpp"

namespace ftt::abft {

using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;

namespace {

bool near_integer(float x, float tol = 0.02f) {
  return std::fabs(x - std::round(x)) < tol;
}

/// Widen a view into dense R x C fp32 scratch (bulk SIMD conversion).
/// Exact, so the accumulations below stay bit-identical to per-element
/// table conversion.
std::vector<float> widen_view(tensor::MatrixHView X) {
  std::vector<float> xf(X.rows * X.cols);
  tensor::widen(X, xf.data());
  return xf;
}

/// y += a * x over n elements of an fp32 image or of the fp16 payload: the
/// fp16 axpy widens exactly in registers, so both give the same sums.
template <typename T>
void axpy(float a, const T* x, float* y, std::size_t n) noexcept {
  if constexpr (std::is_same_v<T, Half>) {
    numeric::axpy_f32_h(a, x, y, n);
  } else {
    numeric::axpy_f32(a, x, y, n);
  }
}

/// encode_rows_strided over a dense row-major fp32 image or fp16 payload.
/// Accumulates a whole checksum row at a time: each output element is
/// summed over ascending l exactly as a scalar l-inner loop would (each
/// axpy adds one l-term to every column), so the vector and scalar paths
/// and both element formats are bit-identical, and the fault hooks still
/// fire once per output element in (jc, c) order after the accumulation.
template <typename T>
MatrixH encode_rows(const T* x, std::size_t rows, std::size_t cols, int s,
                    bool weighted, fault::FaultInjector* inj) {
  if (s <= 0 || rows % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument("encode_rows_strided: rows % stride != 0");
  }
  const std::size_t loops = rows / static_cast<std::size_t>(s);
  MatrixH out(static_cast<std::size_t>(s), cols);
  std::vector<float> acc(cols);
  for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
    for (std::size_t c = 0; c < cols; ++c) acc[c] = 0.0f;
    for (std::size_t l = 0; l < loops; ++l) {
      const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
      axpy(w, x + (jc + l * static_cast<std::size_t>(s)) * cols, acc.data(),
           cols);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      out(jc, c) = Half(fault::corrupt(inj, fault::Site::kChecksum, acc[c]));
    }
  }
  return out;
}

/// encode_cols_strided over the same two formats: the s outputs of a row
/// accumulate their l-terms in ascending order (each axpy adds one
/// contiguous s-wide group), hooks fire per element in (r, jc) order.
template <typename T>
MatrixH encode_cols(const T* x, std::size_t rows, std::size_t cols, int s,
                    bool weighted, fault::FaultInjector* inj) {
  if (s <= 0 || cols % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument("encode_cols_strided: cols % stride != 0");
  }
  const std::size_t loops = cols / static_cast<std::size_t>(s);
  MatrixH out(rows, static_cast<std::size_t>(s));
  std::vector<float> acc(static_cast<std::size_t>(s));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      acc[jc] = 0.0f;
    }
    for (std::size_t l = 0; l < loops; ++l) {
      const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
      axpy(w, x + r * cols + l * static_cast<std::size_t>(s), acc.data(),
           static_cast<std::size_t>(s));
    }
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      out(r, jc) = Half(fault::corrupt(inj, fault::Site::kChecksum, acc[jc]));
    }
  }
  return out;
}

}  // namespace

MatrixH StridedAbft::encode_rows_strided_widened(const float* xf,
                                                 std::size_t rows,
                                                 std::size_t cols, int s,
                                                 bool weighted,
                                                 fault::FaultInjector* inj) {
  return encode_rows(xf, rows, cols, s, weighted, inj);
}

MatrixH StridedAbft::encode_rows_strided_h(const Half* x, std::size_t rows,
                                           std::size_t cols, int s,
                                           bool weighted,
                                           fault::FaultInjector* inj) {
  return encode_rows(x, rows, cols, s, weighted, inj);
}

MatrixH StridedAbft::encode_rows_strided(tensor::MatrixHView X, int s,
                                         bool weighted,
                                         fault::FaultInjector* inj) {
  const std::vector<float> xf = widen_view(X);
  return encode_rows(xf.data(), X.rows, X.cols, s, weighted, inj);
}

MatrixH StridedAbft::encode_rows_strided(const MatrixH& X, int s, bool weighted,
                                         fault::FaultInjector* inj) {
  return encode_rows_strided(tensor::view(X), s, weighted, inj);
}

MatrixH StridedAbft::encode_cols_strided_widened(const float* xf,
                                                 std::size_t rows,
                                                 std::size_t cols, int s,
                                                 bool weighted,
                                                 fault::FaultInjector* inj) {
  return encode_cols(xf, rows, cols, s, weighted, inj);
}

MatrixH StridedAbft::encode_cols_strided_h(const Half* x, std::size_t rows,
                                           std::size_t cols, int s,
                                           bool weighted,
                                           fault::FaultInjector* inj) {
  return encode_cols(x, rows, cols, s, weighted, inj);
}

MatrixH StridedAbft::encode_cols_strided(tensor::MatrixHView X, int s,
                                         bool weighted,
                                         fault::FaultInjector* inj) {
  const std::vector<float> xf = widen_view(X);
  return encode_cols(xf.data(), X.rows, X.cols, s, weighted, inj);
}

MatrixH StridedAbft::encode_cols_strided(const MatrixH& X, int s, bool weighted,
                                         fault::FaultInjector* inj) {
  return encode_cols_strided(tensor::view(X), s, weighted, inj);
}

namespace {

#ifdef FTT_SIMD_X86

/// Pass test of eight residue classes in lanes: the scalar body's finite
/// sum1, d1 = k1 - sum1, rel = |d1| / (norm + 1e-4f) and its two compares,
/// op for op.  Only adds (and |.|, -, /, compares) touch the lanes, so there
/// is no multiply-add pair a compiler could contract on one side only.
FTT_TARGET_AVX2 std::uint64_t pass8(const float* row, const float* k1,
                                    std::size_t s, std::size_t loops,
                                    float thr) noexcept {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 sum1 = _mm256_setzero_ps(), norm = _mm256_setzero_ps();
  for (std::size_t l = 0; l < loops; ++l) {
    const __m256 v = _mm256_loadu_ps(row + l * s);
    sum1 = _mm256_add_ps(sum1, v);
    norm = _mm256_add_ps(norm, _mm256_and_ps(v, absmask));
  }
  const __m256 d1 =
      _mm256_and_ps(_mm256_sub_ps(_mm256_loadu_ps(k1), sum1), absmask);
  const __m256 rel =
      _mm256_div_ps(d1, _mm256_add_ps(norm, _mm256_set1_ps(1e-4f)));
  const __m256 finite = _mm256_cmp_ps(_mm256_and_ps(sum1, absmask),
                                      _mm256_set1_ps(INFINITY), _CMP_LT_OQ);
  const __m256 ok =
      _mm256_or_ps(_mm256_cmp_ps(rel, _mm256_set1_ps(thr), _CMP_LE_OQ),
                   _mm256_cmp_ps(d1, _mm256_set1_ps(1e-6f), _CMP_LT_OQ));
  return static_cast<std::uint64_t>(
      _mm256_movemask_ps(_mm256_and_ps(finite, ok)));
}

/// pass8 over four classes (the s % 8 == 4 remainder).
FTT_TARGET_AVX2 std::uint64_t pass4(const float* row, const float* k1,
                                    std::size_t s, std::size_t loops,
                                    float thr) noexcept {
  const __m128 absmask = _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF));
  __m128 sum1 = _mm_setzero_ps(), norm = _mm_setzero_ps();
  for (std::size_t l = 0; l < loops; ++l) {
    const __m128 v = _mm_loadu_ps(row + l * s);
    sum1 = _mm_add_ps(sum1, v);
    norm = _mm_add_ps(norm, _mm_and_ps(v, absmask));
  }
  const __m128 d1 = _mm_and_ps(_mm_sub_ps(_mm_loadu_ps(k1), sum1), absmask);
  const __m128 rel = _mm_div_ps(d1, _mm_add_ps(norm, _mm_set1_ps(1e-4f)));
  const __m128 finite = _mm_cmp_ps(_mm_and_ps(sum1, absmask),
                                   _mm_set1_ps(INFINITY), _CMP_LT_OQ);
  const __m128 ok = _mm_or_ps(_mm_cmp_ps(rel, _mm_set1_ps(thr), _CMP_LE_OQ),
                              _mm_cmp_ps(d1, _mm_set1_ps(1e-6f), _CMP_LT_OQ));
  return static_cast<std::uint64_t>(_mm_movemask_ps(_mm_and_ps(finite, ok)));
}

#endif  // FTT_SIMD_X86

/// The verify screen: bit jc set when residue class jc of one payload row
/// (lanes row[jc + l * s]) passes verify_class without a flag.  The lanes
/// repeat the scalar body's float operations in its order, so a set bit is
/// exactly the scalar pass; 0 (no SIMD, or s not a multiple of 4 or above
/// 64) sends every class to the scalar body.
std::uint64_t verify_screen(const float* row, const float* k1, std::size_t s,
                            std::size_t loops, float thr) noexcept {
#ifdef FTT_SIMD_X86
  if (s % 4 != 0 || s > 64 ||
      numeric::simd_level() < numeric::SimdLevel::kAvx2) {
    return 0;
  }
  std::uint64_t pass = 0;
  std::size_t g = 0;
  for (; g + 8 <= s; g += 8) {
    pass |= pass8(row + g, k1 + g, s, loops, thr) << g;
  }
  if (g < s) pass |= pass4(row + g, k1 + g, s, loops, thr) << g;
  return pass;
#else
  (void)row, (void)k1, (void)s, (void)loops, (void)thr;
  return 0;
#endif
}

/// The scalar body of verify_correct for residue class jc of row i.  With
/// `fix1`, a class classified as a c1-path flip stores its recomputed sum
/// there.
void verify_class(MatrixF& S, std::size_t i, std::size_t jc, float k1,
                  float k2, std::size_t s, float relative_threshold,
                  std::size_t col0, std::size_t loops, Report& rep,
                  float* fix1) {
  float sum1 = 0.0f, sum2 = 0.0f, norm = 0.0f;
  for (std::size_t l = 0; l < loops; ++l) {
    const float v = S(i, col0 + jc + l * s);
    sum1 += v;
    sum2 += static_cast<float>(l + 1) * v;
    norm += std::fabs(v);
  }

  if (!std::isfinite(sum1)) {
    // A NaN/Inf in the residue class (exponent-field flip): locate it
    // directly and reconstruct the value from the checksum.
    ++rep.flagged;
    std::size_t bad = loops;
    std::size_t bad_count = 0;
    float others = 0.0f;
    for (std::size_t l = 0; l < loops; ++l) {
      const float v = S(i, col0 + jc + l * s);
      if (!std::isfinite(v)) {
        bad = l;
        ++bad_count;
      } else {
        others += v;
      }
    }
    if (bad_count == 1 && std::isfinite(k1)) {
      S(i, col0 + jc + bad * s) = k1 - others;
      ++rep.corrected;
    } else {
      ++rep.uncorrectable;
    }
    return;
  }

  // Residual relative to the class L1 norm: robust to cancellation in the
  // plain sum and scale-invariant, so the check works equally on raw scores
  // and on normalized (small-magnitude) outputs.  The tiny absolute floor
  // mutes all-zero classes.
  const float d1 = k1 - sum1;
  const float rel = std::fabs(d1) / (norm + 1e-4f);
  if (rel <= relative_threshold || std::fabs(d1) < 1e-6f) return;
  ++rep.flagged;

  const float d2 = k2 - sum2;
  const float ratio = d2 / d1;  // = l* + 1 for a single payload error
  const float lstar = ratio - 1.0f;
  if (std::isfinite(lstar) && near_integer(lstar, 0.1f) && lstar >= -0.5f &&
      lstar < static_cast<float>(loops) - 0.5f) {
    // Reconstruct from the checksum (exact for arbitrarily large errors,
    // unlike adding the residual, which cancels in fp32).
    const auto lbad = static_cast<std::size_t>(std::lround(lstar));
    float others = 0.0f;
    for (std::size_t l = 0; l < loops; ++l) {
      if (l != lbad) others += S(i, col0 + jc + l * s);
    }
    const float old = S(i, col0 + jc + lbad * s);
    S(i, col0 + jc + lbad * s) = k1 - others;
    // Reconstruction forces the c1 residual to zero, so validate the repair
    // against the *weighted* checksum: a mislocated correction leaves the
    // c2 residual large, and we revert.
    float sum2_new = 0.0f, norm2 = 0.0f;
    for (std::size_t l = 0; l < loops; ++l) {
      const float w = static_cast<float>(l + 1);
      sum2_new += w * S(i, col0 + jc + l * s);
      norm2 += w * std::fabs(S(i, col0 + jc + l * s));
    }
    // Accept only if the c2 residual collapsed to rounding scale: a
    // mislocated repair leaves it comparable to the error magnitude.
    if (std::fabs(k2 - sum2_new) <=
        0.02f * std::fabs(d1) + 2.0f * numeric::kHalfEps * norm2 + 1e-3f) {
      ++rep.corrected;
    } else {
      S(i, col0 + jc + lbad * s) = old;
      ++rep.uncorrectable;
    }
  } else if (std::fabs(d1) > 1e30f) {
    // The corrupted value is so large the weighted sum overflowed (or the
    // ratio lost all precision): the culprit dominates the class by
    // magnitude, so locate it directly and reconstruct.
    std::size_t bad = loops, bad_count = 0;
    for (std::size_t l = 0; l < loops; ++l) {
      if (std::fabs(S(i, col0 + jc + l * s)) > 0.25f * std::fabs(d1)) {
        bad = l;
        ++bad_count;
      }
    }
    if (bad_count == 1) {
      float others = 0.0f;
      for (std::size_t l = 0; l < loops; ++l) {
        if (l != bad) others += S(i, col0 + jc + l * s);
      }
      S(i, col0 + jc + bad * s) = k1 - others;
      ++rep.corrected;
    } else {
      ++rep.uncorrectable;
    }
  } else if (std::isfinite(ratio) && std::fabs(ratio) < 0.5f) {
    // c2 residual is ~0 while c1 residual is not: the flip hit the c1
    // checksum pipeline itself; payload is intact.
    ++rep.checksum_repairs;
    if (fix1 != nullptr) *fix1 = sum1;
  } else {
    // Two or more errors in the same residue class, or a weighted-checksum
    // flip: detectable, not locatable.
    ++rep.uncorrectable;
  }
}

/// verify_correct's body over raw checksum rows: chk1 row i starts at
/// c1 + i * ld1, chk2 row i at c2 + i * ld2.  Callers validate shapes.
/// With `screen`, each row's classes go through verify_screen first and
/// only the classes it does not pass run the scalar body.  With `fix1`
/// (laid out like c1), c1-path flips are rewritten there.
Report verify_rows(MatrixF& S, const float* c1, std::size_t ld1,
                   const float* c2, std::size_t ld2, std::size_t s,
                   float relative_threshold, std::size_t col0,
                   std::size_t cols, bool screen = true,
                   float* fix1 = nullptr) {
  Report rep;
  const std::size_t loops = cols / s;
  for (std::size_t i = 0; i < S.rows(); ++i) {
    const float* k1 = c1 + i * ld1;
    const std::uint64_t pass =
        screen ? verify_screen(S.data() + i * S.cols() + col0, k1, s, loops,
                               relative_threshold)
               : 0;
    for (std::size_t jc = 0; jc < s; ++jc) {
      ++rep.checks;
      if ((pass >> jc) & 1u) continue;
      verify_class(S, i, jc, k1[jc], c2[i * ld2 + jc], s, relative_threshold,
                   col0, loops, rep,
                   fix1 != nullptr ? fix1 + i * ld1 + jc : nullptr);
    }
  }
  return rep;
}

/// verify_correct's argument checks; returns the resolved column count.
std::size_t check_verify_args(const MatrixF& S, const MatrixF& chk1,
                              const MatrixF& chk2, int s, std::size_t col0,
                              std::size_t cols) {
  if (s <= 0) throw std::invalid_argument("verify_correct: stride <= 0");
  const auto su = static_cast<std::size_t>(s);
  if (col0 > S.cols()) {
    throw std::invalid_argument("verify_correct: col0 past the payload");
  }
  if (cols == 0) cols = S.cols() - col0;
  if (col0 + cols > S.cols()) {
    throw std::invalid_argument("verify_correct: col0 + cols > S.cols()");
  }
  if (cols % su != 0) {
    throw std::invalid_argument("verify_correct: cols % stride != 0");
  }
  if (chk1.rows() < S.rows() || chk1.cols() < su || chk2.rows() < S.rows() ||
      chk2.cols() < su) {
    throw std::invalid_argument(
        "verify_correct: checksums must be at least S.rows() x stride");
  }
  return cols;
}

}  // namespace

Report StridedAbft::verify_correct(MatrixF& S, const MatrixF& chk1,
                                   const MatrixF& chk2, int s,
                                   float relative_threshold, std::size_t col0,
                                   std::size_t cols) {
  cols = check_verify_args(S, chk1, chk2, s, col0, cols);
  return verify_rows(S, chk1.data(), chk1.cols(), chk2.data(), chk2.cols(),
                     static_cast<std::size_t>(s), relative_threshold, col0,
                     cols);
}

Report StridedAbft::verify_correct_fix_c1(MatrixF& S, MatrixF& chk1,
                                          const MatrixF& chk2, int s,
                                          float relative_threshold) {
  const std::size_t cols = check_verify_args(S, chk1, chk2, s, 0, 0);
  return verify_rows(S, chk1.data(), chk1.cols(), chk2.data(), chk2.cols(),
                     static_cast<std::size_t>(s), relative_threshold, 0, cols,
                     /*screen=*/true, chk1.data());
}

Report StridedAbft::verify_correct_scalar(MatrixF& S, const MatrixF& chk1,
                                          const MatrixF& chk2, int s,
                                          float relative_threshold,
                                          std::size_t col0, std::size_t cols) {
  cols = check_verify_args(S, chk1, chk2, s, col0, cols);
  return verify_rows(S, chk1.data(), chk1.cols(), chk2.data(), chk2.cols(),
                     static_cast<std::size_t>(s), relative_threshold, col0,
                     cols, /*screen=*/false);
}

namespace {

/// fp32 strided sums of tile t of a k-major image X^T (K x N), written
/// k-major as [c1 | c2] rows of 2s: sums[k * 2s + jc] = sum_l
/// X^T(k, t * kTile + jc + s * l) and sums[k * 2s + s + jc] the same with
/// weights l + 1.  At fixed (k, l) the s residue classes are contiguous, so
/// the inner loop runs across them over one widened 64-wide tile row, and
/// every sum accumulates in ascending l from zero — exactly
/// encode_rows_strided over the tile's rows of X, so the rounded checksums
/// are bit-identical.
void tile_sums(const MatrixH& image, std::size_t t, std::size_t s,
               float* sums) {
  constexpr auto kTile = static_cast<std::size_t>(StridedAbft::kTile);
  const std::size_t K = image.rows(), N = image.cols(), loops = kTile / s;
  float row[kTile];
  for (std::size_t k = 0; k < K; ++k) {
    numeric::halves_to_floats(image.data() + k * N + t * kTile, row, kTile);
    float* a1 = sums + k * 2 * s;
    float* a2 = a1 + s;
    std::fill_n(a1, 2 * s, 0.0f);
    for (std::size_t l = 0; l < loops; ++l) {
      const float wl = static_cast<float>(l + 1);
      const float* v = row + l * s;
      for (std::size_t jc = 0; jc < s; ++jc) {
        a1[jc] += v[jc];
        a2[jc] += wl * v[jc];
      }
    }
  }
}

}  // namespace

StridedAbft::Sealed StridedAbft::seal(const MatrixH& B, int s) {
  const std::size_t N = B.rows(), K = B.cols();
  if (N % kTile != 0) {
    throw std::invalid_argument(
        "StridedAbft::seal: N must be a multiple of the 64-row tile");
  }
  if (s <= 0 || kTile % s != 0) {
    throw std::invalid_argument(
        "StridedAbft::seal: the 64-row tile must be a multiple of the stride");
  }
  const auto su = static_cast<std::size_t>(s);
  const std::size_t w = 2 * su, tiles = N / kTile;
  Sealed out{MatrixH(K, N), MatrixH(K, tiles * w), s};
  numeric::transpose_h(B.data(), N, K, out.image.data());
  // Each tile's two encodings exactly as the per-call path derives them
  // (long ascending-l accumulations over the tile's rows), stored k-major.
  for (std::size_t t = 0; t < tiles; ++t) {
    const Half* rows = B.data() + t * kTile * K;
    const MatrixH c1 = encode_rows_strided_h(rows, kTile, K, s, false, nullptr);
    const MatrixH c2 = encode_rows_strided_h(rows, kTile, K, s, true, nullptr);
    for (std::size_t k = 0; k < K; ++k) {
      Half* dst = &out.checksums(k, t * w);
      for (std::size_t jc = 0; jc < su; ++jc) {
        dst[jc] = c1(jc, k);
        dst[su + jc] = c2(jc, k);
      }
    }
  }
  return out;
}

Report StridedAbft::apply(const float* A, std::size_t M, const Sealed& B,
                          MatrixF& C, float relative_threshold,
                          fault::FaultInjector* inj, fault::Site gemm_site) {
  const std::size_t K = B.image.rows(), N = B.image.cols();
  if (C.rows() != M || C.cols() != N) {
    throw std::invalid_argument("StridedAbft::apply: C must be M x N");
  }

  // Payload GEMM with per-output fault hooks.
  sim::gemm_f32_nnh(A, M, K, B.image.data(), N, C);
  if (inj) {
    for (std::size_t i = 0; i < C.size(); ++i) {
      C.data()[i] = inj->corrupt(gemm_site, C.data()[i]);
    }
  }

  // One checksum GEMM over every tile's sealed columns.  thread_local
  // scratch: engines on different threads may run their linears at once.
  const auto s = static_cast<std::size_t>(B.s);
  const std::size_t w = 2 * s, tiles = N / kTile, ld = tiles * w;
  thread_local std::vector<float> chk;
  if (chk.size() < M * ld) chk.resize(M * ld);
  numeric::gemm_f32_nnh(A, M, K, B.checksums.data(), ld, chk.data(), ld,
                        /*accumulate=*/false);

  // The sealed columns are memory, so under an injector each tile skip()s
  // the kChecksum hooks its two per-call encodings would fire (c1 then c2,
  // each jc-major over k).  Only a tile one of whose encode hooks would flip
  // re-derives the encodings from the image, passes them through the hooks
  // and recomputes its checksum GEMM from them.  Then come the hooks on the
  // tile's checksum-GEMM outputs.
  std::vector<float> sums, tile;
  std::vector<Half> enc;
  Report rep;
  for (std::size_t t = 0; t < tiles; ++t) {
    float* ct = chk.data() + t * w;
    std::size_t ldt = ld;
    if (inj && !inj->skip(fault::Site::kChecksum, K * w)) {
      sums.resize(K * w);
      tile_sums(B.image, t, s, sums.data());
      for (std::size_t col = 0; col < w; ++col) {
        for (std::size_t k = 0; k < K; ++k) {
          float& v = sums[k * w + col];
          v = inj->corrupt(fault::Site::kChecksum, v);
        }
      }
      enc.resize(K * w);
      tile.resize(M * w);
      numeric::floats_to_halves(sums.data(), enc.data(), K * w);
      numeric::gemm_f32_nnh(A, M, K, enc.data(), w, tile.data(), w,
                            /*accumulate=*/false);
      ct = tile.data();
      ldt = w;
    }
    if (inj) {
      for (std::size_t i = 0; i < M; ++i) {
        float* row = ct + i * ldt;
        for (std::size_t j = 0; j < s; ++j) {
          row[j] = inj->corrupt(fault::Site::kChecksum, row[j]);
          row[s + j] = inj->corrupt(fault::Site::kChecksum, row[s + j]);
        }
      }
    }
    rep += verify_rows(C, ct, ldt, ct + s, ldt, s, relative_threshold,
                       t * kTile, kTile);
  }
  return rep;
}

Report StridedAbft::gemm_nt(const MatrixH& A, const MatrixH& B, MatrixF& C,
                            int s, float relative_threshold,
                            fault::FaultInjector* inj, fault::Site gemm_site) {
  if (A.cols() != B.cols()) {
    throw std::invalid_argument("StridedAbft::gemm_nt: A and B must share K");
  }
  if (C.rows() != A.rows() || C.cols() != B.rows()) {
    throw std::invalid_argument("StridedAbft::gemm_nt: C must be M x N");
  }
  const Sealed sealed = seal(B, s);
  std::vector<float> a(A.size());
  numeric::halves_to_floats(A.data(), a.data(), a.size());
  return apply(a.data(), A.rows(), sealed, C, relative_threshold, inj,
               gemm_site);
}

sim::CostBreakdown StridedAbft::costs(double m, double n, double k, int s) {
  sim::CostBreakdown b;
  // CCG: two strided (weighted) sums over the B operand, intra-thread.
  b[sim::Phase::kChecksumGen].fp32_flops = 4.0 * n * k;
  // Checksum GEMM: two s-wide virtual-row blocks per operand tile.
  b[sim::Phase::kGemm].tc_flops = 4.0 * m * s * k * (n / kTile);
  // CCV: two strided sums over the payload plus s compares per row-tile.
  b[sim::Phase::kVerify].fp32_flops = 4.0 * m * n + 2.0 * m * s * (n / kTile);
  return b;
}

}  // namespace ftt::abft
