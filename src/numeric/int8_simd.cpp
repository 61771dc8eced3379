#include "numeric/int8_simd.hpp"

#include <cmath>

#if defined(FTT_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FTT_SIMD_INT8 1
#include <immintrin.h>
#endif

namespace ftt::numeric {
namespace {

constexpr float kQMax = 127.0f;

// Shared clamp semantics (both paths must agree on every input class):
//   NaN  -> 0   (unordered compare catches it before any cast)
//   +Inf -> 127, -Inf -> -127 (the clamp saturates before rounding)
// After clamping, the value is in [-127, 127] and the int conversion is
// well-defined; both paths round to nearest even (the default MXCSR mode
// for _mm256_cvtps_epi32, and nearbyintf under the default fenv).

#ifdef FTT_SIMD_INT8

__attribute__((target("avx2"))) void quantize_avx2(const float* src,
                                                   std::int8_t* dst,
                                                   std::size_t n,
                                                   float inv_scale) noexcept {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vhi = _mm256_set1_ps(kQMax);
  const __m256 vlo = _mm256_set1_ps(-kQMax);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(src + i);
    // Ordered-compare mask: NaN lanes zero out after the conversion.
    const __m256 ord = _mm256_cmp_ps(x, x, _CMP_ORD_Q);
    __m256 y = _mm256_mul_ps(x, vinv);
    // min/max return the second operand on NaN, so a NaN lane becomes 127
    // here — and is then forced to 0 by the ordered mask, matching scalar.
    y = _mm256_min_ps(y, vhi);
    y = _mm256_max_ps(y, vlo);
    __m256i q = _mm256_cvtps_epi32(y);  // RTNE (default rounding mode)
    q = _mm256_and_si256(q, _mm256_castps_si256(ord));
    const __m128i lo = _mm256_castsi256_si128(q);
    const __m128i hi = _mm256_extracti128_si256(q, 1);
    const __m128i w = _mm_packs_epi32(lo, hi);  // 8 x int16, in order
    const __m128i b = _mm_packs_epi16(w, w);    // 8 x int8 in low 64 bits
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), b);
  }
  for (; i < n; ++i) {
    const float x = src[i];
    if (!(x == x)) {
      dst[i] = 0;
      continue;
    }
    float y = x * inv_scale;
    y = y > kQMax ? kQMax : y;
    y = y < -kQMax ? -kQMax : y;
    dst[i] = static_cast<std::int8_t>(static_cast<std::int32_t>(nearbyintf(y)));
  }
}

__attribute__((target("avx2"))) void dequantize_avx2(const std::int8_t* src,
                                                     float* dst, std::size_t n,
                                                     float scale) noexcept {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
    const __m256i q = _mm256_cvtepi8_epi32(b);
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_cvtepi32_ps(q), vscale));
  }
  for (; i < n; ++i) dst[i] = static_cast<float>(src[i]) * scale;
}

// Widen 8 int8 values to fp32 and apply the (power-of-two, hence exact)
// scale — the register-resident dequantization the fused kernels below
// build on.
__attribute__((target("avx2,fma"))) inline __m256 dq8(
    const std::int8_t* p, __m256 vscale) noexcept {
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b)), vscale);
}

/// One M-row of the fused dequantizing GEMM: the axpy-form register
/// blocking of one row of numeric/gemm_simd.cpp's tiles, with the B loads
/// replaced by in-register widen + exact scale.  Lanes span output columns,
/// so each output element's k-terms still accumulate in ascending order and
/// the kernel is bit-identical to gemm_f32_nn over a dequantized image.
__attribute__((target("avx2,fma"))) void gemm_row_i8_avx2(
    const float* arow, std::size_t K, const std::int8_t* B8, std::size_t N,
    float scale, float* crow, bool accumulate) noexcept {
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t n0 = 0;
  for (; n0 + 32 <= N; n0 += 32) {
    __m256 c0, c1, c2, c3;
    if (accumulate) {
      c0 = _mm256_loadu_ps(crow + n0);
      c1 = _mm256_loadu_ps(crow + n0 + 8);
      c2 = _mm256_loadu_ps(crow + n0 + 16);
      c3 = _mm256_loadu_ps(crow + n0 + 24);
    } else {
      c0 = c1 = c2 = c3 = _mm256_setzero_ps();
    }
    for (std::size_t k = 0; k < K; ++k) {
      const __m256 av = _mm256_set1_ps(arow[k]);
      const std::int8_t* brow = B8 + k * N + n0;
      c0 = _mm256_fmadd_ps(av, dq8(brow, vs), c0);
      c1 = _mm256_fmadd_ps(av, dq8(brow + 8, vs), c1);
      c2 = _mm256_fmadd_ps(av, dq8(brow + 16, vs), c2);
      c3 = _mm256_fmadd_ps(av, dq8(brow + 24, vs), c3);
    }
    _mm256_storeu_ps(crow + n0, c0);
    _mm256_storeu_ps(crow + n0 + 8, c1);
    _mm256_storeu_ps(crow + n0 + 16, c2);
    _mm256_storeu_ps(crow + n0 + 24, c3);
  }
  for (; n0 + 8 <= N; n0 += 8) {
    __m256 c0 = accumulate ? _mm256_loadu_ps(crow + n0) : _mm256_setzero_ps();
    for (std::size_t k = 0; k < K; ++k) {
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(arow[k]), dq8(B8 + k * N + n0, vs),
                           c0);
    }
    _mm256_storeu_ps(crow + n0, c0);
  }
  for (; n0 < N; ++n0) {
    float acc = accumulate ? crow[n0] : 0.0f;
    for (std::size_t k = 0; k < K; ++k) {
      acc += arow[k] * (scale * static_cast<float>(B8[k * N + n0]));
    }
    crow[n0] = acc;
  }
}

__attribute__((target("avx2,fma"))) void gemm_i8_avx2(
    const float* A, std::size_t M, std::size_t K, const std::int8_t* B8,
    std::size_t N, float scale, float* C, std::size_t ldc,
    bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    gemm_row_i8_avx2(A + m * K, K, B8, N, scale, C + m * ldc, accumulate);
  }
}

bool cpu_has_avx2() noexcept { return __builtin_cpu_supports("avx2"); }

bool cpu_has_avx2_fma() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool avx2_fma_active() noexcept {
  static const bool active = cpu_has_avx2_fma();
  return active;
}

#endif  // FTT_SIMD_INT8

}  // namespace

bool simd_int8_active() noexcept {
#ifdef FTT_SIMD_INT8
  static const bool active = cpu_has_avx2();
  return active;
#else
  return false;
#endif
}

float amax_f32(const float* x, std::size_t n) noexcept {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;  // NaN fails the compare and is skipped
  }
  return m;
}

I8Scale choose_i8_scale(float amax) noexcept {
  I8Scale out;
  if (!(amax > 0.0f) || !std::isfinite(amax)) return out;  // neutral 1.0
  // amax = m * 2^e with m in [0.5, 1).  127 * 2^(e-7) >= amax iff
  // m <= 127/128, so the minimal power-of-two exponent is e-7 or e-6 —
  // integer arithmetic only, no float log, fully deterministic.
  int e = 0;
  const float m = std::frexp(amax, &e);
  const int p = m <= 127.0f / 128.0f ? e - 7 : e - 6;
  out.scale = std::ldexp(1.0f, p);
  out.inv_scale = std::ldexp(1.0f, -p);
  return out;
}

void quantize_f32_to_i8_scalar(const float* src, std::int8_t* dst,
                               std::size_t n, float inv_scale) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float x = src[i];
    if (!(x == x)) {  // NaN
      dst[i] = 0;
      continue;
    }
    float y = x * inv_scale;
    y = y > kQMax ? kQMax : y;
    y = y < -kQMax ? -kQMax : y;
    dst[i] = static_cast<std::int8_t>(static_cast<std::int32_t>(nearbyintf(y)));
  }
}

void dequantize_i8_to_f32_scalar(const std::int8_t* src, float* dst,
                                 std::size_t n, float scale) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
}

void quantize_f32_to_i8(const float* src, std::int8_t* dst, std::size_t n,
                        float inv_scale) noexcept {
#ifdef FTT_SIMD_INT8
  if (simd_int8_active()) {
    quantize_avx2(src, dst, n, inv_scale);
    return;
  }
#endif
  quantize_f32_to_i8_scalar(src, dst, n, inv_scale);
}

void dequantize_i8_to_f32(const std::int8_t* src, float* dst, std::size_t n,
                          float scale) noexcept {
#ifdef FTT_SIMD_INT8
  if (simd_int8_active()) {
    dequantize_avx2(src, dst, n, scale);
    return;
  }
#endif
  dequantize_i8_to_f32_scalar(src, dst, n, scale);
}

void gemm_f32_nn_i8_scalar(const float* A, std::size_t M, std::size_t K,
                           const std::int8_t* B8, std::size_t N, float scale,
                           float* C, std::size_t ldc,
                           bool accumulate) noexcept {
  for (std::size_t m = 0; m < M; ++m) {
    float* crow = C + m * ldc;
    if (!accumulate) {
      for (std::size_t n = 0; n < N; ++n) crow[n] = 0.0f;
    }
    const float* arow = A + m * K;
    for (std::size_t k = 0; k < K; ++k) {
      const float av = arow[k];
      const std::int8_t* brow = B8 + k * N;
      for (std::size_t n = 0; n < N; ++n) {
        crow[n] += av * (scale * static_cast<float>(brow[n]));
      }
    }
  }
}

void gemm_f32_nn_i8(const float* A, std::size_t M, std::size_t K,
                    const std::int8_t* B8, std::size_t N, float scale,
                    float* C, std::size_t ldc, bool accumulate) noexcept {
#ifdef FTT_SIMD_INT8
  if (avx2_fma_active()) {
    gemm_i8_avx2(A, M, K, B8, N, scale, C, ldc, accumulate);
    return;
  }
#endif
  gemm_f32_nn_i8_scalar(A, M, K, B8, N, scale, C, ldc, accumulate);
}

}  // namespace ftt::numeric
