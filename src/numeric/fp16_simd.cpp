// Runtime-dispatched F16C/AVX2 bulk fp16 conversions.
//
// The kernels carry the AVX2 tier's target attribute (numeric/simd.hpp) —
// the rest of the library keeps the default architecture, and a binary
// built with FTT_SIMD still runs (via the scalar path) on CPUs below the
// tier.  Both directions are round-to-nearest-even, exactly like the
// scalar implementation in fp16.cpp; the narrow kernel additionally
// canonicalizes NaN payloads to sign | 0x7E00 so every input, NaNs
// included, converts bit-identically on both paths.

#include "numeric/fp16.hpp"
#include "numeric/simd.hpp"

namespace ftt::numeric {
namespace {

#ifdef FTT_SIMD_X86

FTT_TARGET_AVX2 void widen_f16c(const Half* src, float* dst,
                                std::size_t n) noexcept {
  // Half is a single uint16_t payload; vcvtph2ps widens 8 lanes at a time
  // (exact, every binary16 value is representable in binary32).
  const auto* in = reinterpret_cast<const std::uint16_t*>(src);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = src[i].to_float();
}

FTT_TARGET_AVX2 void narrow_f16c(const float* src, Half* dst,
                                 std::size_t n) noexcept {
  auto* out = reinterpret_cast<std::uint16_t*>(dst);
  const __m128i abs_mask = _mm_set1_epi16(0x7FFF);
  const __m128i exp_all = _mm_set1_epi16(0x7C00);
  const __m128i sign_mask = _mm_set1_epi16(static_cast<short>(0x8000u));
  const __m128i quiet_nan = _mm_set1_epi16(0x7E00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_loadu_ps(src + i);
    __m128i h =
        _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    // vcvtps2ph preserves NaN payload bits; the scalar path maps every NaN
    // to one quiet payload.  Canonicalize so the two are bit-identical.
    // After masking the sign, halves are non-negative int16, so a signed
    // compare against the Inf pattern classifies NaN lanes correctly.
    const __m128i mag = _mm_and_si128(h, abs_mask);
    const __m128i is_nan = _mm_cmpgt_epi16(mag, exp_all);
    const __m128i canon =
        _mm_or_si128(_mm_and_si128(h, sign_mask), quiet_nan);
    h = _mm_blendv_epi8(h, canon, is_nan);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), h);
  }
  for (; i < n; ++i) dst[i] = Half(src[i]);
}

#endif  // FTT_SIMD_X86

}  // namespace

void halves_to_floats(const Half* src, float* dst, std::size_t n) noexcept {
#ifdef FTT_SIMD_X86
  if (simd_level() >= SimdLevel::kAvx2) {
    widen_f16c(src, dst, n);
    return;
  }
#endif
  halves_to_floats_scalar(src, dst, n);
}

void floats_to_halves(const float* src, Half* dst, std::size_t n) noexcept {
#ifdef FTT_SIMD_X86
  if (simd_level() >= SimdLevel::kAvx2) {
    narrow_f16c(src, dst, n);
    return;
  }
#endif
  floats_to_halves_scalar(src, dst, n);
}

}  // namespace ftt::numeric
