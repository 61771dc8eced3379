#pragma once
// Software IEEE 754 binary16 ("half precision") implementation.
//
// The paper's kernels run on Tensor Cores with FP16 inputs and FP32
// accumulation (SM80_16x8x16_F32F16F16F32_TN).  We have no GPU in this
// environment, so this header provides a bit-exact software binary16 with
// round-to-nearest-even conversions.  Rounding noise from the fp32->fp16->fp32
// round trip is what makes ABFT checksum comparison inexact and motivates the
// relative-error-threshold study in Fig. 12 (right); a float-only simulator
// would not exhibit that behaviour.

#include <cstdint>
#include <cstring>
#include <limits>

namespace ftt::numeric {

/// Convert an IEEE binary32 bit pattern to the nearest binary16 bit pattern
/// (round-to-nearest-even), handling subnormals, infinities and NaNs.
std::uint16_t float_bits_to_half_bits(std::uint32_t f) noexcept;

/// Convert a binary16 bit pattern to the exactly-representable binary32 value
/// (signaling NaNs are quieted, matching hardware/F16C widening).
std::uint32_t half_bits_to_float_bits(std::uint16_t h) noexcept;

/// Table-accelerated binary16 -> float conversion (exact).
float half_bits_to_float(std::uint16_t h) noexcept;

class Half;

// ---------------------------------------------------------------------------
// Bulk conversions — the decode hot path.  Software half<->float conversion
// dominates host time, so the bulk entry points dispatch at runtime to F16C
// (`_mm256_cvtph_ps` / `_mm256_cvtps_ph`, both RTNE like the scalar path)
// on the AVX2 tier of numeric::simd_level() (numeric/simd.hpp).
// SIMD and scalar paths are bit-identical for every input, NaNs included
// (the SIMD narrow canonicalizes NaN payloads exactly like
// float_bits_to_half_bits); tests/test_fp16.cpp proves it exhaustively.
// ---------------------------------------------------------------------------

/// dst[i] = float value of src[i] (exact widening).
void halves_to_floats(const Half* src, float* dst, std::size_t n) noexcept;
/// dst[i] = RTNE binary16 of src[i]; all NaNs map to sign | 0x7E00.
void floats_to_halves(const float* src, Half* dst, std::size_t n) noexcept;

/// Scalar reference paths, always available (the dispatching entry points
/// above must match them bit for bit; the conversion tests and bench_fp16
/// compare against these).
void halves_to_floats_scalar(const Half* src, float* dst,
                             std::size_t n) noexcept;
void floats_to_halves_scalar(const float* src, Half* dst,
                             std::size_t n) noexcept;

inline std::uint16_t float_to_half_bits(float f) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return float_bits_to_half_bits(bits);
}

/// Value type wrapping a binary16 payload.  Arithmetic is intentionally not
/// provided: kernels convert to float, accumulate in fp32 (matching the MMA
/// instruction) and convert back explicitly, so every rounding step is visible.
class Half {
 public:
  constexpr Half() noexcept : bits_(0) {}
  explicit Half(float f) noexcept : bits_(float_to_half_bits(f)) {}

  static constexpr Half from_bits(std::uint16_t b) noexcept {
    Half h;
    h.bits_ = b;
    return h;
  }

  [[nodiscard]] float to_float() const noexcept { return half_bits_to_float(bits_); }
  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }

  [[nodiscard]] bool is_nan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool is_inf() const noexcept { return (bits_ & 0x7FFFu) == 0x7C00u; }
  [[nodiscard]] bool is_finite() const noexcept { return (bits_ & 0x7C00u) != 0x7C00u; }

  friend bool operator==(Half a, Half b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    // +0 == -0
    if (((a.bits_ | b.bits_) & 0x7FFFu) == 0) return true;
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Half a, Half b) noexcept { return !(a == b); }

 private:
  std::uint16_t bits_;
};

/// Largest finite binary16 value (65504).
inline constexpr float kHalfMax = 65504.0f;
/// Smallest positive normal binary16 value.
inline constexpr float kHalfMinNormal = 6.103515625e-05f;
/// Unit roundoff for binary16 (2^-11); used to derive ABFT thresholds.
inline constexpr float kHalfEps = 4.8828125e-04f;

/// Round a float through binary16 and back: the value a Tensor Core would see
/// after an fp32 result is stored to an fp16 register/output tile.
inline float round_to_half(float f) noexcept {
  return half_bits_to_float(float_to_half_bits(f));
}

}  // namespace ftt::numeric
