#include "numeric/int8_simd.hpp"

#include <cmath>

#include "numeric/simd.hpp"

namespace ftt::numeric {
namespace {

constexpr float kQMax = 127.0f;

// Shared clamp semantics (both paths must agree on every input class):
//   NaN  -> 0   (unordered compare catches it before any cast)
//   +Inf -> 127, -Inf -> -127 (the clamp saturates before rounding)
// After clamping, the value is in [-127, 127] and the int conversion is
// well-defined; both paths round to nearest even (the default MXCSR mode
// for _mm256_cvtps_epi32, and nearbyintf under the default fenv).

#ifdef FTT_SIMD_X86

FTT_TARGET_AVX2 void quantize_avx2(const float* src, std::int8_t* dst,
                                   std::size_t n, float inv_scale) noexcept {
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
  quantize_f32_to_i8_scalar(src + i, dst + i, n - i, inv_scale);
}

FTT_TARGET_AVX2 void dequantize_avx2(const std::int8_t* src, float* dst,
                                     std::size_t n, float scale) noexcept {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
    const __m256i q = _mm256_cvtepi8_epi32(b);
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_cvtepi32_ps(q), vscale));
  }
  dequantize_i8_to_f32_scalar(src + i, dst + i, n - i, scale);
}

#endif  // FTT_SIMD_X86

}  // namespace

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
#ifdef FTT_SIMD_X86
  if (simd_level() >= SimdLevel::kAvx2) {
    quantize_avx2(src, dst, n, inv_scale);
    return;
  }
#endif
  quantize_f32_to_i8_scalar(src, dst, n, inv_scale);
}

void dequantize_i8_to_f32(const std::int8_t* src, float* dst, std::size_t n,
                          float scale) noexcept {
#ifdef FTT_SIMD_X86
  if (simd_level() >= SimdLevel::kAvx2) {
    dequantize_avx2(src, dst, n, scale);
    return;
  }
#endif
  dequantize_i8_to_f32_scalar(src, dst, n, scale);
}

}  // namespace ftt::numeric
