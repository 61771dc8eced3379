// AVX2+FMA (and optional AVX-512F) GEMM microkernels with runtime dispatch.
//
// Kernel shape: axpy-form register blocking.  The inner loops broadcast one
// A element and FMA it against a contiguous row of the k-major B operand,
// holding a tile of output rows x column panels in vector accumulators
// across the whole K loop (the AVX2 tiers stack rows so that each B row,
// loaded or widened once per k step, serves several of them).  Lanes span
// output columns, so every output element still receives its k-term
// additions in ascending-k order — the property that keeps all three
// variants (scalar, AVX2, AVX-512) bit-identical and keeps the repo's
// chunk/batch/spec/shard bit-identity proofs intact (see the header for the
// exact-product precondition the FMA equivalence rests on).
//
// The TU compiles with the project's default architecture; only the
// attributed functions get AVX2/AVX-512 codegen, and the binary still runs
// (via the scalar path) on CPUs without them.

#include "numeric/gemm_simd.hpp"

#include <algorithm>

#if defined(FTT_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FTT_SIMD_GEMM 1
#if defined(FTT_SIMD_AVX512)
#define FTT_SIMD_GEMM_AVX512 1
#endif
#include <immintrin.h>
#endif

namespace ftt::numeric {

void axpy_f32_scalar(float a, const float* x, float* y,
                     std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void gemm_f32_nn_scalar(const float* A, std::size_t M, std::size_t K,
                        const float* B, std::size_t N, float* C,
                        std::size_t ldc, bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    float* crow = C + m * ldc;
    if (!accumulate) {
      for (std::size_t n = 0; n < N; ++n) crow[n] = 0.0f;
    }
    const float* arow = A + m * K;
    for (std::size_t k = 0; k < K; ++k) {
      const float av = arow[k];
      const float* brow = B + k * N;
      for (std::size_t n = 0; n < N; ++n) crow[n] += av * brow[n];
    }
  }
}

void axpy_f32_h_scalar(float a, const Half* x, float* y,
                       std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * half_bits_to_float(x[i].bits());
  }
}

void gemm_f32_nnh_scalar(const float* A, std::size_t M, std::size_t K,
                         const Half* B, std::size_t N, float* C,
                         std::size_t ldc, bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    float* crow = C + m * ldc;
    if (!accumulate) {
      for (std::size_t n = 0; n < N; ++n) crow[n] = 0.0f;
    }
    const float* arow = A + m * K;
    for (std::size_t k = 0; k < K; ++k) {
      const float av = arow[k];
      const Half* brow = B + k * N;
      for (std::size_t n = 0; n < N; ++n) {
        crow[n] += av * half_bits_to_float(brow[n].bits());
      }
    }
  }
}

namespace {

template <typename T>
void transpose_blocked(const T* in, std::size_t rows, std::size_t cols,
                       T* out) noexcept {
  // Cache-blocked scalar transpose: data movement only, no arithmetic, so
  // any traversal order is bit-safe.  32x32 blocks (at most 4 KiB of each
  // operand) keep both streams in L1.  The inner loop writes contiguously:
  // with power-of-two strides the 32 scattered output lines of a
  // read-contiguous inner loop share one L1 set and thrash (3-4x slower
  // sealing a 4096 x 1024 half operand).
  constexpr std::size_t kBlk = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kBlk) {
    const std::size_t r1 = std::min(rows, r0 + kBlk);
    for (std::size_t c0 = 0; c0 < cols; c0 += kBlk) {
      const std::size_t c1 = std::min(cols, c0 + kBlk);
      for (std::size_t c = c0; c < c1; ++c) {
        T* dst = out + c * rows;
        for (std::size_t r = r0; r < r1; ++r) dst[r] = in[r * cols + c];
      }
    }
  }
}

}  // namespace

void transpose_f32(const float* in, std::size_t rows, std::size_t cols,
                   float* out) noexcept {
  transpose_blocked(in, rows, cols, out);
}

void transpose_h(const Half* in, std::size_t rows, std::size_t cols,
                 Half* out) noexcept {
  transpose_blocked(in, rows, cols, out);
}

namespace {

#ifdef FTT_SIMD_GEMM

__attribute__((target("avx2,fma"))) void axpy_avx2(float a, const float* x,
                                                   float* y,
                                                   std::size_t n) noexcept {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 acc =
        _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, acc);
  }
  // Tail: mul-then-add equals fma under the exact-product precondition, and
  // is trivially bit-identical to the scalar reference.
  for (; i < n; ++i) y[i] += a * x[i];
}

/// Register tile of R rows x P 8-column panels, accumulators held in
/// registers across the whole K loop: each k step loads the P B-vectors once
/// and broadcasts one A element per row, giving R*P independent FMA chains.
/// A single row of an 8-column output (the s-wide checksum GEMMs) would
/// serialize on one accumulator's FMA latency; stacking rows overlaps them
/// (8 rows cover the latency, 4 reach about half the FMA rate).
/// Each accumulator lane still sums its own output's k-terms in ascending
/// order, so the tile shape never changes a result bit.
template <int R, int P>
__attribute__((target("avx2,fma"))) inline void tile_avx2(
    const float* A, std::size_t K, const float* B, std::size_t N, float* C,
    std::size_t ldc, bool accumulate) noexcept {
  __m256 c[R][P];
  for (int r = 0; r < R; ++r) {
    for (int p = 0; p < P; ++p) {
      c[r][p] = accumulate ? _mm256_loadu_ps(C + r * ldc + 8 * p)
                           : _mm256_setzero_ps();
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    __m256 b[P];
    for (int p = 0; p < P; ++p) b[p] = _mm256_loadu_ps(B + k * N + 8 * p);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(A[r * K + k]);
      for (int p = 0; p < P; ++p) c[r][p] = _mm256_fmadd_ps(av, b[p], c[r][p]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int p = 0; p < P; ++p) _mm256_storeu_ps(C + r * ldc + 8 * p, c[r][p]);
  }
}

/// Rows [m, m + R) of the axpy-form GEMM over output columns [n0, N):
/// 32-column panels (as 2-row tiles), then 8-column panels (one R-row
/// tile), then a scalar tail.
template <int R>
__attribute__((target("avx2,fma"))) void gemm_rows_avx2(
    const float* A, std::size_t K, const float* B, std::size_t N, float* C,
    std::size_t ldc, bool accumulate, std::size_t n0) noexcept {
  constexpr int kWideRows = R < 2 ? R : 2;
  for (; n0 + 32 <= N; n0 += 32) {
    for (int r = 0; r < R; r += kWideRows) {
      tile_avx2<kWideRows, 4>(A + r * K, K, B + n0, N, C + r * ldc + n0, ldc,
                              accumulate);
    }
  }
  for (; n0 + 8 <= N; n0 += 8) {
    tile_avx2<R, 1>(A, K, B + n0, N, C + n0, ldc, accumulate);
  }
  for (int r = 0; r < R; ++r) {
    const float* arow = A + r * K;
    float* crow = C + r * ldc;
    for (std::size_t n = n0; n < N; ++n) {
      float acc = accumulate ? crow[n] : 0.0f;
      for (std::size_t k = 0; k < K; ++k) acc += arow[k] * B[k * N + n];
      crow[n] = acc;
    }
  }
}

/// Output columns [n0, N) of C: 8-row tiles, then 4-row tiles, then single
/// rows.  The AVX-512 tier hands its sub-16-column remainder here.
__attribute__((target("avx2,fma"))) void gemm_avx2(
    const float* A, std::size_t M, std::size_t K, const float* B,
    std::size_t N, float* C, std::size_t ldc, bool accumulate,
    std::size_t n0 = 0) noexcept {
  std::size_t m = 0;
  for (; m + 8 <= M; m += 8) {
    gemm_rows_avx2<8>(A + m * K, K, B, N, C + m * ldc, ldc, accumulate, n0);
  }
  for (; m + 4 <= M; m += 4) {
    gemm_rows_avx2<4>(A + m * K, K, B, N, C + m * ldc, ldc, accumulate, n0);
  }
  for (; m < M; ++m) {
    gemm_rows_avx2<1>(A + m * K, K, B, N, C + m * ldc, ldc, accumulate, n0);
  }
}

// Widen 8 halves to fp32 in registers — vcvtph2ps is exact (every binary16
// value is representable in binary32) and quiets sNaNs exactly like
// half_bits_to_float, so the fused kernels below stay bit-identical to
// their scalar references on every input pattern.
__attribute__((target("avx2,fma,f16c"))) inline __m256 wh8(
    const Half* p) noexcept {
  return _mm256_cvtph_ps(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2,fma,f16c"))) void axpy_h_avx2(
    float a, const Half* x, float* y, std::size_t n) noexcept {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 acc =
        _mm256_fmadd_ps(av, wh8(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i) y[i] += a * half_bits_to_float(x[i].bits());
}

/// tile_avx2 over a Half B operand: each k step widens the P B-vectors once
/// in registers and the R stacked rows share them.
template <int R, int P>
__attribute__((target("avx2,fma,f16c"))) inline void tile_h_avx2(
    const float* A, std::size_t K, const Half* B, std::size_t N, float* C,
    std::size_t ldc, bool accumulate) noexcept {
  __m256 c[R][P];
  for (int r = 0; r < R; ++r) {
    for (int p = 0; p < P; ++p) {
      c[r][p] = accumulate ? _mm256_loadu_ps(C + r * ldc + 8 * p)
                           : _mm256_setzero_ps();
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    __m256 b[P];
    for (int p = 0; p < P; ++p) b[p] = wh8(B + k * N + 8 * p);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(A[r * K + k]);
      for (int p = 0; p < P; ++p) c[r][p] = _mm256_fmadd_ps(av, b[p], c[r][p]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int p = 0; p < P; ++p) _mm256_storeu_ps(C + r * ldc + 8 * p, c[r][p]);
  }
}

/// gemm_rows_avx2 with the B loads replaced by the in-register widen.
template <int R>
__attribute__((target("avx2,fma,f16c"))) void gemm_rows_h_avx2(
    const float* A, std::size_t K, const Half* B, std::size_t N, float* C,
    std::size_t ldc, bool accumulate, std::size_t n0) noexcept {
  constexpr int kWideRows = R < 2 ? R : 2;
  for (; n0 + 32 <= N; n0 += 32) {
    for (int r = 0; r < R; r += kWideRows) {
      tile_h_avx2<kWideRows, 4>(A + r * K, K, B + n0, N, C + r * ldc + n0,
                                ldc, accumulate);
    }
  }
  for (; n0 + 8 <= N; n0 += 8) {
    tile_h_avx2<R, 1>(A, K, B + n0, N, C + n0, ldc, accumulate);
  }
  for (int r = 0; r < R; ++r) {
    const float* arow = A + r * K;
    float* crow = C + r * ldc;
    for (std::size_t n = n0; n < N; ++n) {
      float acc = accumulate ? crow[n] : 0.0f;
      for (std::size_t k = 0; k < K; ++k) {
        acc += arow[k] * half_bits_to_float(B[k * N + n].bits());
      }
      crow[n] = acc;
    }
  }
}

__attribute__((target("avx2,fma,f16c"))) void gemm_h_avx2(
    const float* A, std::size_t M, std::size_t K, const Half* B,
    std::size_t N, float* C, std::size_t ldc, bool accumulate,
    std::size_t n0 = 0) noexcept {
  std::size_t m = 0;
  for (; m + 8 <= M; m += 8) {
    gemm_rows_h_avx2<8>(A + m * K, K, B, N, C + m * ldc, ldc, accumulate, n0);
  }
  for (; m + 4 <= M; m += 4) {
    gemm_rows_h_avx2<4>(A + m * K, K, B, N, C + m * ldc, ldc, accumulate, n0);
  }
  for (; m < M; ++m) {
    gemm_rows_h_avx2<1>(A + m * K, K, B, N, C + m * ldc, ldc, accumulate, n0);
  }
}

bool cpu_has_avx2_fma() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool avx2_active() noexcept {
  static const bool active = cpu_has_avx2_fma();
  return active;
}

bool avx2_f16c_active() noexcept {
  static const bool active =
      cpu_has_avx2_fma() && __builtin_cpu_supports("f16c");
  return active;
}

#ifdef FTT_SIMD_GEMM_AVX512

__attribute__((target("avx512f"))) void axpy_avx512(float a, const float* x,
                                                    float* y,
                                                    std::size_t n) noexcept {
  const __m512 av = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 acc =
        _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i));
    _mm512_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

/// Columns [0, N - N % 16) of one output row; gemm_avx512 hands the rest
/// to the AVX2 tiles.
__attribute__((target("avx512f"))) void gemm_row_avx512(
    const float* arow, std::size_t K, const float* B, std::size_t N,
    float* crow, bool accumulate) noexcept {
  std::size_t n0 = 0;
  for (; n0 + 64 <= N; n0 += 64) {
    __m512 c0, c1, c2, c3;
    if (accumulate) {
      c0 = _mm512_loadu_ps(crow + n0);
      c1 = _mm512_loadu_ps(crow + n0 + 16);
      c2 = _mm512_loadu_ps(crow + n0 + 32);
      c3 = _mm512_loadu_ps(crow + n0 + 48);
    } else {
      c0 = c1 = c2 = c3 = _mm512_setzero_ps();
    }
    for (std::size_t k = 0; k < K; ++k) {
      const __m512 av = _mm512_set1_ps(arow[k]);
      const float* brow = B + k * N + n0;
      c0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow), c0);
      c1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 16), c1);
      c2 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 32), c2);
      c3 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 48), c3);
    }
    _mm512_storeu_ps(crow + n0, c0);
    _mm512_storeu_ps(crow + n0 + 16, c1);
    _mm512_storeu_ps(crow + n0 + 32, c2);
    _mm512_storeu_ps(crow + n0 + 48, c3);
  }
  for (; n0 + 16 <= N; n0 += 16) {
    __m512 c0 = accumulate ? _mm512_loadu_ps(crow + n0) : _mm512_setzero_ps();
    for (std::size_t k = 0; k < K; ++k) {
      c0 = _mm512_fmadd_ps(_mm512_set1_ps(arow[k]),
                           _mm512_loadu_ps(B + k * N + n0), c0);
    }
    _mm512_storeu_ps(crow + n0, c0);
  }
}

__attribute__((target("avx512f"))) void gemm_avx512(
    const float* A, std::size_t M, std::size_t K, const float* B,
    std::size_t N, float* C, std::size_t ldc, bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    gemm_row_avx512(A + m * K, K, B, N, C + m * ldc, accumulate);
  }
  // Under 16 columns left (the s = 8 checksum outputs, say): the AVX2 tiles
  // stack rows over them instead of a scalar tail.
  const std::size_t n16 = N - N % 16;
  if (n16 < N) gemm_avx2(A, M, K, B, N, C, ldc, accumulate, n16);
}

// 16-half widen: vcvtph2ps zmm comes with AVX512F itself, no extra feature
// bit beyond the fp32 tier's.  The all-ones zero-masked form gives the same
// lanes as _mm512_cvtph_ps, whose _mm512_undefined_ps() passthrough trips
// GCC 12's -Wmaybe-uninitialized under -Werror.
__attribute__((target("avx512f"))) inline __m512 wh16(const Half* p) noexcept {
  return _mm512_maskz_cvtph_ps(
      0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__attribute__((target("avx512f"))) void axpy_h_avx512(
    float a, const Half* x, float* y, std::size_t n) noexcept {
  const __m512 av = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 acc =
        _mm512_fmadd_ps(av, wh16(x + i), _mm512_loadu_ps(y + i));
    _mm512_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i) y[i] += a * half_bits_to_float(x[i].bits());
}

/// gemm_row_avx512 over a Half B operand.
__attribute__((target("avx512f"))) void gemm_row_h_avx512(
    const float* arow, std::size_t K, const Half* B, std::size_t N,
    float* crow, bool accumulate) noexcept {
  std::size_t n0 = 0;
  for (; n0 + 64 <= N; n0 += 64) {
    __m512 c0, c1, c2, c3;
    if (accumulate) {
      c0 = _mm512_loadu_ps(crow + n0);
      c1 = _mm512_loadu_ps(crow + n0 + 16);
      c2 = _mm512_loadu_ps(crow + n0 + 32);
      c3 = _mm512_loadu_ps(crow + n0 + 48);
    } else {
      c0 = c1 = c2 = c3 = _mm512_setzero_ps();
    }
    for (std::size_t k = 0; k < K; ++k) {
      const __m512 av = _mm512_set1_ps(arow[k]);
      const Half* brow = B + k * N + n0;
      c0 = _mm512_fmadd_ps(av, wh16(brow), c0);
      c1 = _mm512_fmadd_ps(av, wh16(brow + 16), c1);
      c2 = _mm512_fmadd_ps(av, wh16(brow + 32), c2);
      c3 = _mm512_fmadd_ps(av, wh16(brow + 48), c3);
    }
    _mm512_storeu_ps(crow + n0, c0);
    _mm512_storeu_ps(crow + n0 + 16, c1);
    _mm512_storeu_ps(crow + n0 + 32, c2);
    _mm512_storeu_ps(crow + n0 + 48, c3);
  }
  for (; n0 + 16 <= N; n0 += 16) {
    __m512 c0 = accumulate ? _mm512_loadu_ps(crow + n0) : _mm512_setzero_ps();
    for (std::size_t k = 0; k < K; ++k) {
      c0 = _mm512_fmadd_ps(_mm512_set1_ps(arow[k]), wh16(B + k * N + n0), c0);
    }
    _mm512_storeu_ps(crow + n0, c0);
  }
}

__attribute__((target("avx512f"))) void gemm_h_avx512(
    const float* A, std::size_t M, std::size_t K, const Half* B,
    std::size_t N, float* C, std::size_t ldc, bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    gemm_row_h_avx512(A + m * K, K, B, N, C + m * ldc, accumulate);
  }
  const std::size_t n16 = N - N % 16;
  if (n16 < N) gemm_h_avx2(A, M, K, B, N, C, ldc, accumulate, n16);
}

bool cpu_has_avx512f() noexcept { return __builtin_cpu_supports("avx512f"); }

#endif  // FTT_SIMD_GEMM_AVX512
#endif  // FTT_SIMD_GEMM

}  // namespace

bool simd_gemm_avx512_active() noexcept {
#ifdef FTT_SIMD_GEMM_AVX512
  // The AVX-512 tier hands column remainders to the AVX2 tiles, so it also
  // needs the AVX2 tier's feature bits (every AVX-512F CPU has them).
  static const bool active = cpu_has_avx512f() && avx2_f16c_active();
  return active;
#else
  return false;
#endif
}

bool simd_gemm_active() noexcept {
#ifdef FTT_SIMD_GEMM
  return avx2_active() || simd_gemm_avx512_active();
#else
  return false;
#endif
}

bool simd_gemm_f16c_active() noexcept {
#ifdef FTT_SIMD_GEMM
  return avx2_f16c_active() || simd_gemm_avx512_active();
#else
  return false;
#endif
}

void axpy_f32(float a, const float* x, float* y, std::size_t n) noexcept {
#ifdef FTT_SIMD_GEMM
#ifdef FTT_SIMD_GEMM_AVX512
  if (simd_gemm_avx512_active()) {
    axpy_avx512(a, x, y, n);
    return;
  }
#endif
  if (avx2_active()) {
    axpy_avx2(a, x, y, n);
    return;
  }
#endif
  axpy_f32_scalar(a, x, y, n);
}

void gemm_f32_nn(const float* A, std::size_t M, std::size_t K, const float* B,
                 std::size_t N, float* C, std::size_t ldc,
                 bool accumulate) noexcept {
#ifdef FTT_SIMD_GEMM
#ifdef FTT_SIMD_GEMM_AVX512
  if (simd_gemm_avx512_active()) {
    gemm_avx512(A, M, K, B, N, C, ldc, accumulate);
    return;
  }
#endif
  if (avx2_active()) {
    gemm_avx2(A, M, K, B, N, C, ldc, accumulate);
    return;
  }
#endif
  gemm_f32_nn_scalar(A, M, K, B, N, C, ldc, accumulate);
}

void axpy_f32_h(float a, const Half* x, float* y, std::size_t n) noexcept {
#ifdef FTT_SIMD_GEMM
#ifdef FTT_SIMD_GEMM_AVX512
  if (simd_gemm_avx512_active()) {
    axpy_h_avx512(a, x, y, n);
    return;
  }
#endif
  if (avx2_f16c_active()) {
    axpy_h_avx2(a, x, y, n);
    return;
  }
#endif
  axpy_f32_h_scalar(a, x, y, n);
}

void gemm_f32_nnh(const float* A, std::size_t M, std::size_t K, const Half* B,
                  std::size_t N, float* C, std::size_t ldc,
                  bool accumulate) noexcept {
#ifdef FTT_SIMD_GEMM
#ifdef FTT_SIMD_GEMM_AVX512
  if (simd_gemm_avx512_active()) {
    gemm_h_avx512(A, M, K, B, N, C, ldc, accumulate);
    return;
  }
#endif
  if (avx2_f16c_active()) {
    gemm_h_avx2(A, M, K, B, N, C, ldc, accumulate);
    return;
  }
#endif
  gemm_f32_nnh_scalar(A, M, K, B, N, C, ldc, accumulate);
}

}  // namespace ftt::numeric
