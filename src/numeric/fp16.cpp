#include "numeric/fp16.hpp"

#include <array>
#include <cstring>

namespace ftt::numeric {
namespace {

// Build the 65536-entry half->float table once.  256 KiB, read-only, shared.
struct HalfToFloatTable {
  std::array<float, 65536> values{};
  HalfToFloatTable() {
    for (std::uint32_t h = 0; h < 65536; ++h) {
      const std::uint32_t f = half_bits_to_float_bits(static_cast<std::uint16_t>(h));
      float out;
      std::memcpy(&out, &f, sizeof(out));
      values[h] = out;
    }
  }
};

const HalfToFloatTable& table() {
  static const HalfToFloatTable t;
  return t;
}

}  // namespace

// Round-to-nearest-even float -> half, after Fabian Giesen's
// float_to_half_fast3_rtne.  The rounding carry propagates from the mantissa
// into the exponent field, so values in [65520, 65536) correctly round to
// infinity and subnormal results are produced by one fp32 addition against a
// magic constant (relying on the FPU's own RNE).
std::uint16_t float_bits_to_half_bits(std::uint32_t f) noexcept {
  constexpr std::uint32_t kFloatInf = 255u << 23;
  constexpr std::uint32_t kF16Max = (127u + 16u) << 23;  // 2^16
  constexpr std::uint32_t kDenormMagicBits = ((127u - 15u) + (23u - 10u) + 1u)
                                             << 23;
  constexpr std::uint32_t kSignMask = 0x80000000u;

  const std::uint32_t sign = f & kSignMask;
  f ^= sign;

  std::uint16_t o;
  if (f >= kF16Max) {
    // Result is Inf or NaN.  All NaNs map to one quiet NaN payload.
    o = (f > kFloatInf) ? 0x7E00u : 0x7C00u;
  } else if (f < (113u << 23)) {
    // Result is a binary16 subnormal (or zero): align the 10 mantissa bits at
    // the bottom of the float via one RNE fp32 addition.
    float tmp;
    std::memcpy(&tmp, &f, sizeof(tmp));
    float denorm_magic;
    std::memcpy(&denorm_magic, &kDenormMagicBits, sizeof(denorm_magic));
    tmp += denorm_magic;
    std::uint32_t bits;
    std::memcpy(&bits, &tmp, sizeof(bits));
    o = static_cast<std::uint16_t>(bits - kDenormMagicBits);
  } else {
    const std::uint32_t mant_odd = (f >> 13) & 1u;
    f += (static_cast<std::uint32_t>(15 - 127) << 23) + 0xFFFu;
    f += mant_odd;
    o = static_cast<std::uint16_t>(f >> 13);
  }
  return static_cast<std::uint16_t>(o | (sign >> 16));
}

std::uint32_t half_bits_to_float_bits(std::uint16_t h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t mant = h & 0x03FFu;

  if (exp == 0x1Fu) {
    // Inf / NaN: widen the payload, quieting NaNs (set the mantissa MSB)
    // exactly like hardware fp16 -> fp32 conversion does (F16C vcvtph2ps
    // quiets signaling NaNs), so the scalar and SIMD widen paths are
    // bit-identical over all 65536 half patterns.
    const std::uint32_t quiet = (mant != 0) ? 0x00400000u : 0u;
    return sign | 0x7F800000u | quiet | (mant << 13);
  }
  if (exp == 0) {
    if (mant == 0) return sign;  // +-0
    // Subnormal: renormalize into the fp32 encoding.
    std::uint32_t m = mant;
    std::uint32_t e = 0;
    while ((m & 0x0400u) == 0) {
      m <<= 1;
      ++e;
    }
    m &= 0x03FFu;
    // Subnormal value = mant * 2^-24; after normalizing (e left shifts) the
    // fp32 exponent is -14 - e, i.e. biased 113 - e.
    return sign | ((113u - e) << 23) | (m << 13);
  }
  return sign | ((exp + (127u - 15u)) << 23) | (mant << 13);
}

float half_bits_to_float(std::uint16_t h) noexcept { return table().values[h]; }

void halves_to_floats_scalar(const Half* src, float* dst,
                             std::size_t n) noexcept {
  const auto& t = table();
  for (std::size_t i = 0; i < n; ++i) dst[i] = t.values[src[i].bits()];
}

void floats_to_halves_scalar(const float* src, Half* dst,
                             std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Half(src[i]);
}

}  // namespace ftt::numeric
