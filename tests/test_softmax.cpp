// Row softmax + DMR protection (Eqs. 10-11).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "softmax/softmax.hpp"
#include "tensor/random.hpp"

namespace fm = ftt::softmax;
namespace ft = ftt::tensor;
namespace ff = ftt::fault;

TEST(RowSoftmax, RowsSumToOne) {
  ft::MatrixF S(8, 32);
  ft::fill_normal(S, 1);
  fm::row_softmax(S);
  for (std::size_t r = 0; r < 8; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_GE(S(r, c), 0.0f);
      sum += S(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(RowSoftmax, StableUnderLargeValues) {
  // The stabilized form must not overflow for large scores.
  ft::MatrixF S(1, 4);
  S(0, 0) = 500.0f;
  S(0, 1) = 499.0f;
  S(0, 2) = -500.0f;
  S(0, 3) = 0.0f;
  fm::row_softmax(S);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_TRUE(std::isfinite(S(0, c)));
  EXPECT_GT(S(0, 0), S(0, 1));
  EXPECT_NEAR(S(0, 0) / S(0, 1), std::exp(1.0f), 1e-3f);
}

TEST(RowSoftmax, PreservesArgmax) {
  ft::MatrixF S(4, 16);
  ft::fill_normal(S, 2);
  ft::MatrixF orig = S;
  fm::row_softmax(S);
  for (std::size_t r = 0; r < 4; ++r) {
    std::size_t amax_in = 0, amax_out = 0;
    for (std::size_t c = 1; c < 16; ++c) {
      if (orig(r, c) > orig(r, amax_in)) amax_in = c;
      if (S(r, c) > S(r, amax_out)) amax_out = c;
    }
    EXPECT_EQ(amax_in, amax_out);
  }
}

TEST(RowSoftmax, MatchesDirectFormula) {
  ft::MatrixF S(1, 8);
  for (std::size_t c = 0; c < 8; ++c) S(0, c) = static_cast<float>(c) * 0.3f;
  ft::MatrixF in = S;
  fm::row_softmax(S);
  double denom = 0.0;
  for (std::size_t c = 0; c < 8; ++c) denom += std::exp(in(0, c));
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(S(0, c), std::exp(in(0, c)) / denom, 1e-5);
  }
}

TEST(DmrSoftmax, CleanRunConvergesImmediately) {
  ft::MatrixF S(8, 32);
  ft::fill_normal(S, 3);
  const auto res = fm::dmr_row_softmax(S, 1e-3f);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.recomputes, 1u);  // one replica evaluation, no retries
}

TEST(DmrSoftmax, DetectsAndRetriesOnFault) {
  ft::MatrixF S(8, 32);
  ft::fill_normal(S, 4);
  ft::MatrixF clean = S;
  fm::row_softmax(clean);

  // One big flip in the first evaluation's EXP: first comparison disagrees,
  // a third evaluation must agree with the second.
  auto inj = ff::FaultInjector::single(ff::Site::kExp, 17, 30);
  ft::MatrixF S2(8, 32);
  ft::fill_normal(S2, 4);
  const auto res = fm::dmr_row_softmax(S2, 1e-3f, &inj);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.recomputes, 2u);
  EXPECT_LT(ft::max_abs_diff(S2, clean), 1e-4f);
}

TEST(DmrSoftmax, RowsumIdentityCatchesReduceSumFault) {
  // A corrupted reduce-sum breaks rowsum(P) == 1 even if both replicas agree
  // on the exp values; Eq. (11) forces a retry.
  ft::MatrixF S(4, 16);
  ft::fill_normal(S, 5);
  ft::MatrixF clean = S;
  fm::row_softmax(clean);
  auto inj = ff::FaultInjector::single(ff::Site::kReduceSum, 2, 29);
  ft::MatrixF S2 = S;
  const auto res = fm::dmr_row_softmax(S2, 1e-3f, &inj);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(ft::max_abs_diff(S2, clean), 1e-4f);
}

TEST(DmrSoftmax, GivesUpAfterMaxRounds) {
  ft::MatrixF S(2, 8);
  ft::fill_normal(S, 6);
  // Flip something on every evaluation: never converges within 3 rounds.
  auto inj = ff::FaultInjector::bernoulli(0.2, 11, {ff::Site::kExp});
  (void)fm::dmr_row_softmax(S, 1e-6f, &inj, 3);
  // Either it got lucky with two agreeing evaluations or it gave up; both
  // must leave finite output.
  for (std::size_t i = 0; i < S.size(); ++i) {
    EXPECT_TRUE(std::isfinite(S.data()[i]));
  }
}

TEST(SoftmaxCosts, DmrOverheadAtLeastOneReplica) {
  const auto base = fm::softmax_costs(64, 64).total();
  const auto dmr = fm::dmr_overhead_costs(64, 64).total();
  EXPECT_GE(dmr.sfu_ops, base.sfu_ops);
  EXPECT_GT(dmr.fp32_flops, base.fp32_flops);
}

// --- row_max: the shared reduce-max, bitwise the serial std::max chain ---

namespace {

float serial_max(const float* x, std::size_t n) {
  float m = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

}  // namespace

TEST(RowMax, MatchesTheSerialChainBitwise) {
  // Random rows with NaN lanes (skipped), +-0 ties (the first one wins),
  // -inf lanes and ragged lengths around the 8-lane width.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> pick(0, 9);
  std::normal_distribution<float> d(0.0f, 4.0f);
  for (std::size_t n = 0; n <= 70; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<float> x(n);
      const bool nonpositive = trial % 3 == 0;  // max is often a zero
      for (float& v : x) {
        switch (pick(rng)) {
          case 0: v = nan; break;
          case 1: v = 0.0f; break;
          case 2: v = -0.0f; break;
          case 3: v = ninf; break;
          default: v = nonpositive ? -std::fabs(d(rng)) : d(rng);
        }
      }
      ASSERT_EQ(bits_of(fm::row_max(x.data(), n)),
                bits_of(serial_max(x.data(), n)))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(RowMax, SpecialRows) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  std::vector<float> all_ninf(19, ninf), all_nan(19, nan);
  EXPECT_EQ(fm::row_max(all_ninf.data(), 19), ninf);
  EXPECT_EQ(fm::row_max(all_nan.data(), 19), ninf);
  EXPECT_EQ(fm::row_max(all_nan.data(), 0), ninf);
  // +-0 ties keep the first zero's sign, wherever the lanes split them.
  for (std::size_t first = 0; first < 16; ++first) {
    std::vector<float> x(16, -1.0f);
    x[first] = -0.0f;
    x[(first + 5) % 16] = 0.0f;
    const float want = first < (first + 5) % 16 ? -0.0f : 0.0f;
    EXPECT_EQ(bits_of(fm::row_max(x.data(), 16)), bits_of(want)) << first;
  }
}
