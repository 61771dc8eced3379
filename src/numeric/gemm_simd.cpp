// Register-tile GEMM microkernels, one body per ISA tier, shared by the
// fp32, fp16 and int8 B-operand formats.
//
// Kernel shape: axpy-form register blocking.  The inner loops broadcast one
// A element and FMA it against a contiguous row of the k-major B operand,
// holding a tile of output rows x column panels in vector accumulators
// across the whole K loop (the AVX2 tier stacks rows so that each B row,
// loaded once per k step, serves several of them).  Lanes span output
// columns, so every output element still receives its k-term additions in
// ascending-k order — the property that keeps all three tiers (scalar,
// AVX2, AVX-512) bit-identical and keeps the repo's chunk/batch/spec
// bit-identity proofs intact (see the header for the exact-product
// precondition the FMA equivalence rests on).
//
// Operand formats.  A loader turns a run of B elements into fp32 lanes:
// `scalar(p)` one element, `v8(p)` eight (AVX2), `v16(p)` sixteen
// (AVX-512).  The fp32 loader loads, the fp16 loader widens exactly and the
// int8 loader dequantizes exactly by its power-of-two scale.  The scalar
// reference, the AVX2 tile body and the AVX-512 row body are each written
// once over a loader; the public entry points are their instantiations.
//
// The TU compiles with the project's default architecture; only the
// attributed functions get AVX2/AVX-512 codegen, and the binary still runs
// (via the scalar references) on CPUs without them.

#include "numeric/gemm_simd.hpp"

#include <algorithm>

#include "numeric/simd.hpp"

namespace ftt::numeric {
namespace {

/// fp32 B: a plain load.
struct LoadF32 {
  using Elem = float;
  float scalar(const float* p) const noexcept { return *p; }
#ifdef FTT_SIMD_X86
  FTT_TARGET_AVX2 __m256 v8(const float* p) const noexcept {
    return _mm256_loadu_ps(p);
  }
#ifdef FTT_SIMD_AVX512
  FTT_TARGET_AVX512 __m512 v16(const float* p) const noexcept {
    return _mm512_loadu_ps(p);
  }
#endif
#endif
};

/// fp16 B: the exact widen.  vcvtph2ps quiets sNaNs exactly like
/// half_bits_to_float, so the lanes equal the scalar widen on every one of
/// the 65536 half patterns.
struct LoadF16 {
  using Elem = Half;
  float scalar(const Half* p) const noexcept {
    return half_bits_to_float(p->bits());
  }
#ifdef FTT_SIMD_X86
  FTT_TARGET_AVX2 __m256 v8(const Half* p) const noexcept {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
#ifdef FTT_SIMD_AVX512
  // The all-ones zero-masked form gives the same lanes as _mm512_cvtph_ps,
  // whose _mm512_undefined_ps() passthrough trips GCC 12's
  // -Wmaybe-uninitialized under -Werror.
  FTT_TARGET_AVX512 __m512 v16(const Half* p) const noexcept {
    return _mm512_maskz_cvtph_ps(
        0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
#endif
#endif
};

/// int8 B: the exact dequantize, scale * float(b) with a power-of-two
/// scale, formed before the multiply-add on every tier.
struct LoadI8 {
  using Elem = std::int8_t;
  float scale;
  float scalar(const std::int8_t* p) const noexcept {
    return scale * static_cast<float>(*p);
  }
#ifdef FTT_SIMD_X86
  FTT_TARGET_AVX2 __m256 v8(const std::int8_t* p) const noexcept {
    const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b)),
                         _mm256_set1_ps(scale));
  }
#ifdef FTT_SIMD_AVX512
  // Both conversions zero-masked with all ones, as in LoadF16::v16: the
  // plain forms trip the same GCC 12 warning.
  FTT_TARGET_AVX512 __m512 v16(const std::int8_t* p) const noexcept {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m512i q = _mm512_maskz_cvtepi8_epi32(0xFFFF, b);
    return _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(0xFFFF, q),
                         _mm512_set1_ps(scale));
  }
#endif
#endif
};

template <class L>
using ElemOf = typename L::Elem;

// ---- scalar references: plain ascending-k loop nests ----

template <class L>
void gemm_scalar(const float* A, std::size_t M, std::size_t K, L ld,
                 const ElemOf<L>* B, std::size_t N, float* C, std::size_t ldc,
                 bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    float* crow = C + m * ldc;
    if (!accumulate) {
      for (std::size_t n = 0; n < N; ++n) crow[n] = 0.0f;
    }
    const float* arow = A + m * K;
    for (std::size_t k = 0; k < K; ++k) {
      const float av = arow[k];
      const ElemOf<L>* brow = B + k * N;
      for (std::size_t n = 0; n < N; ++n) crow[n] += av * ld.scalar(brow + n);
    }
  }
}

#ifdef FTT_SIMD_X86

// ---- AVX2 tier ----

/// Register tile of R rows x P 8-column panels, accumulators held in
/// registers across the whole K loop: each k step loads the P B-vectors once
/// and broadcasts one A element per row, giving R*P independent FMA chains.
/// A single row of an 8-column output (the s-wide checksum GEMMs) would
/// serialize on one accumulator's FMA latency; stacking rows overlaps them
/// (8 rows cover the latency, 4 reach about half the FMA rate).
/// Each accumulator lane still sums its own output's k-terms in ascending
/// order, so the tile shape never changes a result bit.
template <int R, int P, class L>
FTT_TARGET_AVX2 inline void tile_avx2(const float* A, std::size_t K, L ld,
                                      const ElemOf<L>* B, std::size_t N,
                                      float* C, std::size_t ldc,
                                      bool accumulate) noexcept {
  __m256 c[R][P];
  for (int r = 0; r < R; ++r) {
    for (int p = 0; p < P; ++p) {
      c[r][p] = accumulate ? _mm256_loadu_ps(C + r * ldc + 8 * p)
                           : _mm256_setzero_ps();
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    __m256 b[P];
    for (int p = 0; p < P; ++p) b[p] = ld.v8(B + k * N + 8 * p);
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
template <int R, class L>
FTT_TARGET_AVX2 void gemm_rows_avx2(const float* A, std::size_t K, L ld,
                                    const ElemOf<L>* B, std::size_t N,
                                    float* C, std::size_t ldc,
                                    bool accumulate, std::size_t n0) noexcept {
  constexpr int kWideRows = R < 2 ? R : 2;
  for (; n0 + 32 <= N; n0 += 32) {
    for (int r = 0; r < R; r += kWideRows) {
      tile_avx2<kWideRows, 4>(A + r * K, K, ld, B + n0, N, C + r * ldc + n0,
                              ldc, accumulate);
    }
  }
  for (; n0 + 8 <= N; n0 += 8) {
    tile_avx2<R, 1>(A, K, ld, B + n0, N, C + n0, ldc, accumulate);
  }
  for (int r = 0; r < R; ++r) {
    const float* arow = A + r * K;
    float* crow = C + r * ldc;
    for (std::size_t n = n0; n < N; ++n) {
      float acc = accumulate ? crow[n] : 0.0f;
      for (std::size_t k = 0; k < K; ++k) {
        acc += arow[k] * ld.scalar(B + k * N + n);
      }
      crow[n] = acc;
    }
  }
}

/// Output columns [n0, N) of C: 8-row tiles, then 4-row tiles, then single
/// rows.  The AVX-512 tier hands its sub-16-column remainder here.
template <class L>
FTT_TARGET_AVX2 void gemm_avx2(const float* A, std::size_t M, std::size_t K,
                               L ld, const ElemOf<L>* B, std::size_t N,
                               float* C, std::size_t ldc, bool accumulate,
                               std::size_t n0 = 0) noexcept {
  std::size_t m = 0;
  for (; m + 8 <= M; m += 8) {
    gemm_rows_avx2<8>(A + m * K, K, ld, B, N, C + m * ldc, ldc, accumulate,
                      n0);
  }
  for (; m + 4 <= M; m += 4) {
    gemm_rows_avx2<4>(A + m * K, K, ld, B, N, C + m * ldc, ldc, accumulate,
                      n0);
  }
  for (; m < M; ++m) {
    gemm_rows_avx2<1>(A + m * K, K, ld, B, N, C + m * ldc, ldc, accumulate,
                      n0);
  }
}

#ifdef FTT_SIMD_AVX512

// ---- AVX-512 tier ----

/// P 16-column panels of one output row, accumulated across the whole K
/// loop.
template <int P, class L>
FTT_TARGET_AVX512 inline void row_panels_avx512(const float* arow,
                                                std::size_t K, L ld,
                                                const ElemOf<L>* B,
                                                std::size_t N, float* crow,
                                                bool accumulate) noexcept {
  __m512 c[P];
  for (int p = 0; p < P; ++p) {
    c[p] = accumulate ? _mm512_loadu_ps(crow + 16 * p) : _mm512_setzero_ps();
  }
  for (std::size_t k = 0; k < K; ++k) {
    const __m512 av = _mm512_set1_ps(arow[k]);
    for (int p = 0; p < P; ++p) {
      c[p] = _mm512_fmadd_ps(av, ld.v16(B + k * N + 16 * p), c[p]);
    }
  }
  for (int p = 0; p < P; ++p) _mm512_storeu_ps(crow + 16 * p, c[p]);
}

/// Every row over whole 16-column panels (64 columns at a time, then 16);
/// any narrower remainder (the s = 8 checksum outputs) goes to the AVX2
/// tiles, which stack rows over it instead of a scalar tail.
template <class L>
FTT_TARGET_AVX512 void gemm_avx512(const float* A, std::size_t M,
                                   std::size_t K, L ld, const ElemOf<L>* B,
                                   std::size_t N, float* C, std::size_t ldc,
                                   bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    const float* arow = A + m * K;
    float* crow = C + m * ldc;
    std::size_t n0 = 0;
    for (; n0 + 64 <= N; n0 += 64) {
      row_panels_avx512<4>(arow, K, ld, B + n0, N, crow + n0, accumulate);
    }
    for (; n0 + 16 <= N; n0 += 16) {
      row_panels_avx512<1>(arow, K, ld, B + n0, N, crow + n0, accumulate);
    }
  }
  const std::size_t n16 = N - N % 16;
  if (n16 < N) gemm_avx2(A, M, K, ld, B, N, C, ldc, accumulate, n16);
}

#endif  // FTT_SIMD_AVX512
#endif  // FTT_SIMD_X86

// ---- dispatch ----

template <class L>
void gemm(const float* A, std::size_t M, std::size_t K, L ld,
          const ElemOf<L>* B, std::size_t N, float* C, std::size_t ldc,
          bool accumulate) noexcept {
#ifdef FTT_SIMD_X86
  const SimdLevel level = simd_level();
#ifdef FTT_SIMD_AVX512
  if (level == SimdLevel::kAvx512) {
    gemm_avx512(A, M, K, ld, B, N, C, ldc, accumulate);
    return;
  }
#endif
  if (level == SimdLevel::kAvx2) {
    gemm_avx2(A, M, K, ld, B, N, C, ldc, accumulate);
    return;
  }
#endif
  gemm_scalar(A, M, K, ld, B, N, C, ldc, accumulate);
}

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

void gemm_f32_nn(const float* A, std::size_t M, std::size_t K, const float* B,
                 std::size_t N, float* C, std::size_t ldc,
                 bool accumulate) noexcept {
  gemm(A, M, K, LoadF32{}, B, N, C, ldc, accumulate);
}

void gemm_f32_nn_scalar(const float* A, std::size_t M, std::size_t K,
                        const float* B, std::size_t N, float* C,
                        std::size_t ldc, bool accumulate) noexcept {
  gemm_scalar(A, M, K, LoadF32{}, B, N, C, ldc, accumulate);
}

void gemm_f32_nnh(const float* A, std::size_t M, std::size_t K, const Half* B,
                  std::size_t N, float* C, std::size_t ldc,
                  bool accumulate) noexcept {
  gemm(A, M, K, LoadF16{}, B, N, C, ldc, accumulate);
}

void gemm_f32_nnh_scalar(const float* A, std::size_t M, std::size_t K,
                         const Half* B, std::size_t N, float* C,
                         std::size_t ldc, bool accumulate) noexcept {
  gemm_scalar(A, M, K, LoadF16{}, B, N, C, ldc, accumulate);
}

void gemm_f32_nn_i8(const float* A, std::size_t M, std::size_t K,
                    const std::int8_t* B8, std::size_t N, float scale,
                    float* C, std::size_t ldc, bool accumulate) noexcept {
  gemm(A, M, K, LoadI8{scale}, B8, N, C, ldc, accumulate);
}

void gemm_f32_nn_i8_scalar(const float* A, std::size_t M, std::size_t K,
                           const std::int8_t* B8, std::size_t N, float scale,
                           float* C, std::size_t ldc,
                           bool accumulate) noexcept {
  gemm_scalar(A, M, K, LoadI8{scale}, B8, N, C, ldc, accumulate);
}

void transpose_f32(const float* in, std::size_t rows, std::size_t cols,
                   float* out) noexcept {
  transpose_blocked(in, rows, cols, out);
}

void transpose_h(const Half* in, std::size_t rows, std::size_t cols,
                 Half* out) noexcept {
  transpose_blocked(in, rows, cols, out);
}

}  // namespace ftt::numeric
