// Selective neuron value restriction: range bounds (Case 3) and the case
// analysis of §3.4.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "numeric/simd.hpp"
#include "softmax/snvr.hpp"

namespace fm = ftt::softmax;

TEST(SnvrLowerBound, SumOfBlockMaxTerms) {
  const std::vector<float> maxes{1.0f, 3.0f, 2.0f};
  const double lb = fm::snvr_lower_bound(maxes, 3.0f);
  EXPECT_NEAR(lb, std::exp(-2.0) + 1.0 + std::exp(-1.0), 1e-5);
}

TEST(SnvrLowerBound, GlobalMaxContributesOne) {
  // The block holding the global max contributes exactly exp(0) = 1, so the
  // bound is always >= 1.
  const std::vector<float> maxes{-5.0f, 0.0f, -3.0f};
  EXPECT_GE(fm::snvr_lower_bound(maxes, 0.0f), 1.0);
}

TEST(SnvrRange, AcceptsTrueRowsum) {
  // A genuine rowsum: sum over all entries of exp(s - max), always within
  // [lower bound, seq_len].
  const std::vector<float> maxes{0.5f, 1.5f};
  const float global = 1.5f;
  // Simulate 2 blocks of 4 entries each.
  double rowsum = 0.0;
  const float entries[2][4] = {{0.5f, 0.1f, -1.0f, 0.3f},
                               {1.5f, 0.2f, 1.0f, -0.5f}};
  for (const auto& blk : entries) {
    for (float e : blk) rowsum += std::exp(e - global);
  }
  const auto res = fm::snvr_check_rowsum(static_cast<float>(rowsum), maxes,
                                         global, 8);
  EXPECT_FALSE(res.violated);
  EXPECT_FLOAT_EQ(res.corrected_value, static_cast<float>(rowsum));
}

TEST(SnvrRange, RejectsTooSmall) {
  const std::vector<float> maxes{0.0f, 0.0f};
  // Lower bound is 2.0; a rowsum of 0.5 is impossible.
  const auto res = fm::snvr_check_rowsum(0.5f, maxes, 0.0f, 128);
  EXPECT_TRUE(res.violated);
  EXPECT_NEAR(res.corrected_value, 2.0f, 1e-5f);
}

TEST(SnvrRange, RejectsAboveSeqLen) {
  const std::vector<float> maxes{0.0f};
  // Every exp(s - max) <= 1, so rowsum <= seq_len = 64.
  const auto res = fm::snvr_check_rowsum(100.0f, maxes, 0.0f, 64);
  EXPECT_TRUE(res.violated);
}

TEST(SnvrRange, RejectsNonFinite) {
  const std::vector<float> maxes{0.0f};
  EXPECT_TRUE(fm::snvr_check_rowsum(std::numeric_limits<float>::infinity(),
                                    maxes, 0.0f, 64)
                  .violated);
  EXPECT_TRUE(fm::snvr_check_rowsum(std::numeric_limits<float>::quiet_NaN(),
                                    maxes, 0.0f, 64)
                  .violated);
}

TEST(SnvrRange, SlackAbsorbsRounding) {
  const std::vector<float> maxes{0.0f, 0.0f};
  // Just under the lower bound by less than the slack: accepted.
  const auto res = fm::snvr_check_rowsum(2.0f * (1.0f - 5e-4f), maxes, 0.0f,
                                         128, /*slack=*/1e-3f);
  EXPECT_FALSE(res.violated);
  // Beyond the slack: rejected.
  const auto res2 = fm::snvr_check_rowsum(2.0f * (1.0f - 5e-3f), maxes, 0.0f,
                                          128, /*slack=*/1e-3f);
  EXPECT_TRUE(res2.violated);
}

TEST(SnvrRange, CorrectionIsTheLowerBound) {
  // Paper §3.4: the replacement value is Σ_k exp(m_ik − m_ij) — attention
  // mass concentrates at per-block maxima, so this approximation keeps the
  // relative ordering of the output.
  const std::vector<float> maxes{2.0f, 4.0f, 3.0f};
  const auto res = fm::snvr_check_rowsum(1e30f, maxes, 4.0f, 1024);
  EXPECT_TRUE(res.violated);
  const double expect = std::exp(-2.0) + 1.0 + std::exp(-1.0);
  EXPECT_NEAR(res.corrected_value, expect, 1e-5);
}

TEST(SnvrCase1, MaxErrorsCancelInStreamingSoftmax) {
  // Case 1 (§3.4): a corrupted running max changes P and l consistently, so
  // the normalized output is unchanged.  Emulate one row, two blocks.
  const float s[8] = {0.1f, -0.4f, 0.7f, 0.2f, -0.1f, 0.9f, 0.3f, -0.6f};
  auto run = [&](float forced_max) {
    // Streaming evaluation with (possibly wrong) stabilizer m.
    double l = 0.0, o = 0.0;  // o: weighted sum with weights = index
    for (int i = 0; i < 8; ++i) {
      const double p = std::exp(s[i] - forced_max);
      l += p;
      o += p * static_cast<double>(i);
    }
    return o / l;
  };
  const double correct = run(0.9f);
  const double corrupted_high = run(5.0f);   // max flipped upward
  const double corrupted_low = run(-2.0f);   // max flipped downward
  EXPECT_NEAR(correct, corrupted_high, 1e-5);
  EXPECT_NEAR(correct, corrupted_low, 1e-5);
}

// --- product-form EXP check (§3.4 Case 2) ---

namespace {

/// The direct evaluation the product form replaces: one log per lane.
double sum_of_logs(const float* p, std::size_t stride, std::size_t n) {
  double s = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    s += std::log(static_cast<double>(p[l * stride]));
  }
  return s;
}

/// A row of softmax weights exp(score - max) as the EXP unit emits them.
std::vector<float> softmax_row(std::size_t n, std::uint64_t seed,
                               float spread = 8.0f) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> score(0.0f, spread);
  std::vector<float> s(n);
  float m = -std::numeric_limits<float>::infinity();
  for (float& v : s) {
    v = score(rng);
    m = std::max(m, v);
  }
  for (float& v : s) v = std::exp(v - m);
  return s;
}

}  // namespace

TEST(SnvrLogProduct, AgreesWithSumOfLogsOnRandomRows) {
  // Every residue class of a 64-lane row at the paper's stride 8.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto row = softmax_row(64, seed);
    for (std::size_t jc = 0; jc < 8; ++jc) {
      const auto lp = fm::log_product(row.data() + jc, 8, 8);
      ASSERT_TRUE(lp.has_value()) << seed;
      EXPECT_NEAR(*lp, sum_of_logs(row.data() + jc, 8, 8), 1e-12) << seed;
    }
  }
}

TEST(SnvrLogProduct, StrideOneFullRow) {
  // L = 64 lanes at stride 1: the longest product a 64-wide block forms.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto row = softmax_row(64, seed, 3.0f);
    const auto lp = fm::log_product(row.data(), 1, 64);
    ASSERT_TRUE(lp.has_value());
    EXPECT_NEAR(*lp, sum_of_logs(row.data(), 1, 64), 1e-12) << seed;
  }
}

TEST(SnvrLogProduct, LanesEqualToOne) {
  // exp(0) == 1 at each row's max: significand 1, exponent 0.
  std::vector<float> row(16, 1.0f);
  EXPECT_EQ(*fm::log_product(row.data(), 2, 8), 0.0);
  row[6] = 0.25f;
  EXPECT_NEAR(*fm::log_product(row.data(), 2, 8), std::log(0.25), 1e-15);
}

TEST(SnvrLogProduct, SubnormalLanesFallBackToPerLaneLog) {
  auto row = softmax_row(64, 7);
  row[3] = std::numeric_limits<float>::denorm_min();
  row[19] = 1e-40f;  // subnormal in fp32
  row[35] = std::numeric_limits<float>::min();  // smallest normal
  for (std::size_t jc = 0; jc < 8; ++jc) {
    const auto lp = fm::log_product(row.data() + jc, 8, 8);
    ASSERT_TRUE(lp.has_value());
    EXPECT_NEAR(*lp, sum_of_logs(row.data() + jc, 8, 8), 1e-12) << jc;
  }
}

TEST(SnvrLogProduct, MaskedLanesAreNeverRead) {
  // Decode zeroes the lanes past a row's causal horizon and feeds the
  // product form only the visible prefix of each class: the zeros (which
  // a full-class product would reject) must stay out of it.
  auto row = softmax_row(64, 9);
  const std::size_t vis = 29;
  for (std::size_t c = vis; c < 64; ++c) row[c] = 0.0f;
  for (std::size_t jc = 0; jc < 8; ++jc) {
    const std::size_t nvis = (vis - jc + 7) / 8;
    const auto lp = fm::log_product(row.data() + jc, 8, nvis);
    ASSERT_TRUE(lp.has_value()) << jc;
    EXPECT_NEAR(*lp, sum_of_logs(row.data() + jc, 8, nvis), 1e-12) << jc;
    EXPECT_FALSE(fm::log_product(row.data() + jc, 8, 8).has_value()) << jc;
  }
  EXPECT_EQ(*fm::log_product(row.data(), 8, 0), 0.0);
}

TEST(SnvrLogProduct, RejectsImpossibleExpOutputs) {
  // An EXP output is positive and finite; anything else hands the class to
  // the repair path.
  for (const float bad : {0.0f, -0.0f, -0.5f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::denorm_min()}) {
    auto row = softmax_row(64, 11);
    row[42] = bad;
    EXPECT_FALSE(fm::log_product(row.data() + 2, 8, 8).has_value()) << bad;
    EXPECT_TRUE(fm::log_product(row.data() + 3, 8, 8).has_value()) << bad;
  }
}

// --- the residue-class screen (log_product_screen) ---

namespace {

/// The scalar decision the screen must never overrule: class jc of a row
/// passes when log_product exists and |log_product - rhs| <= thr.
bool scalar_pass(const float* row, std::size_t s, std::size_t n, double rhs,
                 double thr) {
  const auto lp = fm::log_product(row, s, n);
  return lp && std::fabs(*lp - rhs) <= thr;
}

/// Screen the row and count passes; fail on any class the screen passes
/// that the scalar test fails.
std::size_t check_screen(const std::vector<float>& row, std::size_t s,
                         std::size_t n, const std::vector<double>& rhs,
                         double thr) {
  const std::uint64_t pass =
      fm::log_product_screen(row.data(), s, n, rhs.data(), thr);
  std::size_t passed = 0;
  for (std::size_t jc = 0; jc < s; ++jc) {
    if (!((pass >> jc) & 1u)) continue;
    ++passed;
    EXPECT_TRUE(scalar_pass(row.data() + jc, s, n, rhs[jc], thr))
        << "s=" << s << " n=" << n << " jc=" << jc << " rhs=" << rhs[jc];
  }
  return passed;
}

/// True when the build and CPU run the AVX2 screen.
bool screen_active() {
  return ftt::numeric::simd_level() >= ftt::numeric::SimdLevel::kAvx2;
}

}  // namespace

TEST(SnvrLogProductScreen, NeverPassesAClassTheScalarTestFails) {
  // Residuals placed at the threshold +- {1e-15 .. 1e-3}, at strides 4, 8
  // and 16, for n = 8 and for n past the 512-lane fold.
  const double thr = 0.1;
  std::size_t passed = 0, far_below = 0;
  for (const std::size_t s : {4u, 8u, 16u}) {
    for (const std::size_t n : {8u, 600u}) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const auto row = softmax_row(s * n, seed * 131 + s + n,
                                     seed % 2 ? 8.0f : 2.0f);
        for (const double delta : {1e-15, 1e-13, 1e-9, 1e-6, 1e-3}) {
          for (const double side : {-1.0, 1.0}) {
            for (const double sign : {-1.0, 1.0}) {
              std::vector<double> rhs(s);
              for (std::size_t jc = 0; jc < s; ++jc) {
                const double lp = *fm::log_product(row.data() + jc, s, n);
                rhs[jc] = lp - sign * (thr + side * delta);
              }
              const std::size_t p = check_screen(row, s, n, rhs, thr);
              passed += p;
              if (side < 0 && delta >= 1e-9) far_below += s;
            }
          }
        }
      }
    }
  }
  if (screen_active()) {
    // Every class at least 1e-9 inside the threshold clears the bound.
    EXPECT_GE(passed, far_below);
  } else {
    EXPECT_EQ(passed, 0u);
  }
}

TEST(SnvrLogProductScreen, RandomResidualsAgreeWithScalar) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> off(-0.3, 0.3);
  std::size_t passed = 0, scalar_passed = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto row = softmax_row(64, seed, 6.0f);
    std::vector<double> rhs(8);
    for (std::size_t jc = 0; jc < 8; ++jc) {
      rhs[jc] = *fm::log_product(row.data() + jc, 8, 8) + off(rng);
      scalar_passed += scalar_pass(row.data() + jc, 8, 8, rhs[jc], 0.1);
    }
    passed += check_screen(row, 8, 8, rhs, 0.1);
  }
  if (screen_active()) {
    EXPECT_EQ(passed, scalar_passed);
  }
}

TEST(SnvrLogProductScreen, SpecialLanesSendTheRowToTheScalarBody) {
  for (const float bad : {0.0f, -0.0f, -0.5f, 1e-40f,
                          std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    auto row = softmax_row(64, 13);
    row[42] = bad;
    std::vector<double> rhs(8);
    for (std::size_t jc = 0; jc < 8; ++jc) {
      const auto lp = fm::log_product(row.data() + jc, 8, 8);
      rhs[jc] = lp ? *lp : 0.0;
    }
    EXPECT_EQ(fm::log_product_screen(row.data(), 8, 8, rhs.data(), 0.1), 0u)
        << bad;
  }
}

TEST(SnvrLogProductScreen, NonFiniteRightHandSideNeverPasses) {
  const auto row = softmax_row(64, 17);
  std::vector<double> rhs(8);
  for (std::size_t jc = 0; jc < 8; ++jc) {
    rhs[jc] = *fm::log_product(row.data() + jc, 8, 8);
  }
  rhs[1] = std::numeric_limits<double>::quiet_NaN();
  rhs[4] = std::numeric_limits<double>::infinity();
  rhs[6] = -std::numeric_limits<double>::infinity();
  const std::uint64_t pass =
      fm::log_product_screen(row.data(), 8, 8, rhs.data(), 0.1);
  EXPECT_EQ(pass & ((1u << 1) | (1u << 4) | (1u << 6)), 0u);
  if (screen_active()) {
    EXPECT_EQ(pass, 0xFFu & ~0x52u);
  }
  check_screen(row, 8, 8, rhs, 0.1);
}

TEST(SnvrLogProductScreen, UnsupportedStridesDecideNothing) {
  const auto row = softmax_row(64, 19);
  std::vector<double> rhs(64, 0.0);
  for (const std::size_t s : {1u, 2u, 6u}) {
    EXPECT_EQ(fm::log_product_screen(row.data(), s, 64 / s, rhs.data(), 1e9),
              0u)
        << s;
  }
}
