// Software binary16: conversions, rounding, special values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "numeric/bits.hpp"
#include "numeric/fp16.hpp"
#include "numeric/simd.hpp"

namespace fn = ftt::numeric;

TEST(Fp16, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(fn::round_to_half(f), f) << i;
  }
}

TEST(Fp16, ZeroAndSigns) {
  EXPECT_EQ(fn::Half(0.0f).bits(), 0x0000u);
  EXPECT_EQ(fn::Half(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(fn::Half(0.0f), fn::Half(-0.0f));
}

TEST(Fp16, MaxFinite) {
  EXPECT_EQ(fn::round_to_half(65504.0f), 65504.0f);
  // 65519.99 rounds down to max finite; >= 65520 rounds to infinity.
  EXPECT_EQ(fn::round_to_half(65519.0f), 65504.0f);
  EXPECT_TRUE(fn::Half(65520.0f).is_inf());
  EXPECT_TRUE(fn::Half(1e10f).is_inf());
  EXPECT_TRUE(fn::Half(-1e10f).is_inf());
}

TEST(Fp16, Infinity) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(fn::Half(inf).is_inf());
  EXPECT_TRUE(fn::Half(-inf).is_inf());
  EXPECT_EQ(fn::Half(inf).to_float(), inf);
  EXPECT_EQ(fn::Half(-inf).to_float(), -inf);
}

TEST(Fp16, NaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(fn::Half(nan).is_nan());
  EXPECT_TRUE(std::isnan(fn::Half(nan).to_float()));
  EXPECT_FALSE(fn::Half(nan) == fn::Half(nan));
}

TEST(Fp16, SubnormalRange) {
  // Smallest positive subnormal: 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(fn::round_to_half(tiny), tiny);
  EXPECT_EQ(fn::Half(tiny).bits(), 0x0001u);
  // Half of that rounds to zero (ties-to-even).
  EXPECT_EQ(fn::round_to_half(tiny / 2.0f), 0.0f);
  // 0.75 * tiny rounds up to tiny.
  EXPECT_EQ(fn::round_to_half(tiny * 0.75f), tiny);
}

TEST(Fp16, MinNormal) {
  EXPECT_EQ(fn::round_to_half(fn::kHalfMinNormal), fn::kHalfMinNormal);
  EXPECT_EQ(fn::Half(fn::kHalfMinNormal).bits(), 0x0400u);
}

TEST(Fp16, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10: ties to even -> 1.
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(fn::round_to_half(halfway), 1.0f);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even
  // -> 1 + 2^-9 (even mantissa).
  const float halfway2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(fn::round_to_half(halfway2), 1.0f + std::ldexp(1.0f, -9));
}

TEST(Fp16, RoundTripAllBitPatterns) {
  // Every finite half value must survive half -> float -> half exactly.
  for (std::uint32_t h = 0; h < 65536; ++h) {
    const auto hb = static_cast<std::uint16_t>(h);
    const float f = fn::half_bits_to_float(hb);
    if (std::isnan(f)) continue;
    EXPECT_EQ(fn::float_to_half_bits(f), hb) << std::hex << h;
  }
}

TEST(Fp16, MatchesCompilerFloat16) {
  // Cross-check against the compiler's _Float16 on random values.
  std::mt19937 rng(42);
  std::uniform_real_distribution<float> dist(-70000.0f, 70000.0f);
  for (int i = 0; i < 200000; ++i) {
    const float f = dist(rng);
    const auto ref = static_cast<_Float16>(f);
    std::uint16_t ref_bits;
    std::memcpy(&ref_bits, &ref, sizeof(ref_bits));
    EXPECT_EQ(fn::float_to_half_bits(f), ref_bits) << f;
  }
}

TEST(Fp16, MatchesCompilerFloat16Small) {
  std::mt19937 rng(43);
  std::uniform_real_distribution<float> dist(-1e-4f, 1e-4f);
  for (int i = 0; i < 200000; ++i) {
    const float f = dist(rng);
    const auto ref = static_cast<_Float16>(f);
    std::uint16_t ref_bits;
    std::memcpy(&ref_bits, &ref, sizeof(ref_bits));
    EXPECT_EQ(fn::float_to_half_bits(f), ref_bits) << f;
  }
}

TEST(Fp16, UnitRoundoffConstant) {
  // kHalfEps is 2^-11: 1 + eps must round away from 1... exactly at the
  // boundary it ties to even (1), just above it must round up.
  EXPECT_EQ(fn::round_to_half(1.0f + 1.5f * fn::kHalfEps),
            1.0f + 2.0f * fn::kHalfEps);
}

TEST(Fp16Bulk, ScalarBulkMatchesElementwise) {
  // The scalar bulk entry points are definitionally the per-element
  // conversions; pin that down over every half bit pattern.
  std::vector<fn::Half> halves(65536);
  for (std::uint32_t h = 0; h < 65536; ++h) {
    halves[h] = fn::Half::from_bits(static_cast<std::uint16_t>(h));
  }
  std::vector<float> widened(65536);
  fn::halves_to_floats_scalar(halves.data(), widened.data(), halves.size());
  std::vector<fn::Half> narrowed(65536);
  fn::floats_to_halves_scalar(widened.data(), narrowed.data(), widened.size());
  for (std::uint32_t h = 0; h < 65536; ++h) {
    std::uint32_t wide_bits, ref_bits = fn::half_bits_to_float_bits(
        static_cast<std::uint16_t>(h));
    std::memcpy(&wide_bits, &widened[h], sizeof(wide_bits));
    ASSERT_EQ(wide_bits, ref_bits) << std::hex << h;
    ASSERT_EQ(narrowed[h].bits(), fn::float_to_half_bits(widened[h]))
        << std::hex << h;
  }
}

TEST(Fp16Bulk, ExhaustiveSimdMatchesScalarAllHalfPatterns) {
  // All 65536 half bit patterns — NaNs, infinities, subnormals, both zeros —
  // must round-trip identically through the scalar and SIMD paths: widening
  // bit-equal, and the widened values narrowing back bit-equal (the SIMD
  // narrow canonicalizes NaN payloads exactly like the scalar path).
  if (fn::simd_level() == fn::SimdLevel::kScalar) {
    GTEST_SKIP() << "below the AVX2 tier (or FTT_SIMD=OFF): SIMD leg skipped";
  }
  std::vector<fn::Half> halves(65536);
  for (std::uint32_t h = 0; h < 65536; ++h) {
    halves[h] = fn::Half::from_bits(static_cast<std::uint16_t>(h));
  }
  std::vector<float> wide_scalar(65536), wide_simd(65536);
  fn::halves_to_floats_scalar(halves.data(), wide_scalar.data(), 65536);
  fn::halves_to_floats(halves.data(), wide_simd.data(), 65536);
  ASSERT_EQ(std::memcmp(wide_scalar.data(), wide_simd.data(),
                        65536 * sizeof(float)),
            0);

  std::vector<fn::Half> back_scalar(65536), back_simd(65536);
  fn::floats_to_halves_scalar(wide_scalar.data(), back_scalar.data(), 65536);
  fn::floats_to_halves(wide_scalar.data(), back_simd.data(), 65536);
  for (std::uint32_t h = 0; h < 65536; ++h) {
    ASSERT_EQ(back_scalar[h].bits(), back_simd[h].bits()) << std::hex << h;
  }
}

TEST(Fp16Bulk, SimdNarrowMatchesScalarOnHardFloats) {
  if (fn::simd_level() == fn::SimdLevel::kScalar) {
    GTEST_SKIP() << "below the AVX2 tier (or FTT_SIMD=OFF): SIMD leg skipped";
  }
  // Random floats across the interesting magnitude range plus crafted
  // boundary patterns: RTNE ties, the overflow cliff, subnormal cliff,
  // signed zeros, infinities, and NaNs with assorted payloads (the SIMD
  // path must canonicalize them to the scalar path's quiet NaN).
  std::vector<float> values;
  const auto from_bits = [](std::uint32_t b) {
    float f;
    std::memcpy(&f, &b, sizeof(f));
    return f;
  };
  for (const std::uint32_t b :
       {0x00000000u, 0x80000000u, 0x7F800000u, 0xFF800000u, 0x7FC00000u,
        0xFFC00000u, 0x7F800001u, 0x7FC00123u, 0xFFABCDEFu, 0x00000001u,
        0x33000000u, 0x33000001u, 0x38800000u, 0x477FF000u, 0x477FEFFFu,
        0x47800000u, 0x3F802000u, 0x3F806000u}) {
    values.push_back(from_bits(b));
  }
  std::mt19937 rng(0xf16c);
  std::uniform_real_distribution<float> wide(-70000.0f, 70000.0f);
  std::uniform_real_distribution<float> tiny(-1e-4f, 1e-4f);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(wide(rng));
    values.push_back(tiny(rng));
  }
  // Odd length exercises the scalar tail of the 8-wide kernel.
  values.push_back(1.0f);

  std::vector<fn::Half> scalar(values.size()), simd(values.size());
  fn::floats_to_halves_scalar(values.data(), scalar.data(), values.size());
  fn::floats_to_halves(values.data(), simd.data(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(scalar[i].bits(), simd[i].bits()) << "value " << values[i];
  }
}

TEST(BitFlip, SingleBitF32) {
  const float v = 3.14159f;
  for (unsigned bit = 0; bit < 32; ++bit) {
    const float f = fn::flip_bit_f32(v, bit);
    EXPECT_EQ(fn::hamming_f32(v, f), 1) << bit;
    EXPECT_EQ(fn::flip_bit_f32(f, bit), v) << "involution";
  }
}

TEST(BitFlip, SignBit) {
  EXPECT_EQ(fn::flip_bit_f32(2.5f, 31), -2.5f);
}

TEST(BitFlip, ExponentBitMagnitude) {
  // Flipping the top exponent bit of a sub-one normal number is a huge
  // perturbation (for values >= 1 it lands on the NaN/Inf exponent instead).
  const float v = 0.5f;
  EXPECT_GT(std::fabs(fn::flip_delta_f32(v, 30)), 1e30f);
  EXPECT_TRUE(std::isnan(fn::flip_bit_f32(1.5f, 30)));
}

TEST(BitFlip, HalfBits) {
  const std::uint16_t h = fn::Half(1.0f).bits();
  EXPECT_EQ(fn::flip_bit_f16(fn::flip_bit_f16(h, 5), 5), h);
  EXPECT_NE(fn::flip_bit_f16(h, 5), h);
}
