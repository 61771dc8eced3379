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

// --- exp_shifted: AVX2 lanes bitwise the scalar reference (glibc's expf
// written out) on every input class, in place and out of place ---

namespace {

float from_bits(std::uint32_t u) {
  float v = 0.0f;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

/// Runs exp_shifted(x[0..n), m) out of place, in place and value by value,
/// and requires each to equal exp_shifted_scalar bit for bit.
void expect_exp_matches_reference(const std::vector<float>& x, float m,
                                  const char* what) {
  const std::size_t n = x.size();
  std::vector<float> ref(n), lanes(n), inplace = x;
  fm::exp_shifted_scalar(x.data(), m, ref.data(), n);
  fm::exp_shifted(x.data(), m, lanes.data(), n);
  fm::exp_shifted(inplace.data(), m, inplace.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits_of(ref[i]), bits_of(lanes[i]))
        << what << " x=" << std::hexfloat << x[i] << " m=" << m;
    ASSERT_EQ(bits_of(ref[i]), bits_of(inplace[i]))
        << what << " in place, x=" << std::hexfloat << x[i] << " m=" << m;
    ASSERT_EQ(bits_of(ref[i]), bits_of(fm::exp_shifted(x[i], m)))
        << what << " single value, x=" << std::hexfloat << x[i];
  }
}

const float kShifts[] = {0.0f,
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN(),
                         1e30f,
                         -1e30f};

}  // namespace

TEST(ExpShifted, StridedSweepOfAllFloatPatterns) {
  // Every 11th bit pattern of the 2^32 (an odd stride, so every low-bit
  // residue and every exponent appears), in 4096-wide rows, at m = 0 where
  // x - m is x itself.
  constexpr std::uint64_t kStride = 11;
  constexpr std::size_t kRow = 4096;
  std::vector<float> x(kRow), ref(kRow), lanes(kRow);
  std::uint64_t u = 0;
  while (u < (std::uint64_t{1} << 32)) {
    std::size_t n = 0;
    for (; n < kRow && u < (std::uint64_t{1} << 32); ++n, u += kStride) {
      x[n] = from_bits(static_cast<std::uint32_t>(u));
    }
    fm::exp_shifted_scalar(x.data(), 0.0f, ref.data(), n);
    fm::exp_shifted(x.data(), 0.0f, lanes.data(), n);
    ASSERT_EQ(0, std::memcmp(ref.data(), lanes.data(), n * sizeof(float)))
        << "row ending at pattern " << u;
    fm::exp_shifted(x.data(), 0.0f, x.data(), n);  // in place
    ASSERT_EQ(0, std::memcmp(ref.data(), x.data(), n * sizeof(float)))
        << "in place, row ending at pattern " << u;
  }
}

TEST(ExpShifted, DenseAroundTheRangeEdges) {
  // 4096 neighbours either side of each boundary expf branches on: |x| =
  // 88 (the special-case screen), the overflow edge, the 2^-149 edge and
  // the 2^-150 (flush to +0) edge; both signs of 88.
  for (const float edge : {88.0f, -88.0f, 0x1.62e42ep6f, -0x1.9d1d9ep6f,
                           -0x1.9fe368p6f}) {
    std::vector<float> x;
    const std::uint32_t e = bits_of(edge);
    for (std::uint32_t k = e - 4096; k != e + 4097; ++k) {
      x.push_back(from_bits(k));
    }
    for (const float m : kShifts) {
      expect_exp_matches_reference(x, m, "dense edge");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ExpShifted, SpecialValuesNanPayloadsAndSubnormals) {
  std::vector<float> x;
  for (const std::uint32_t u :
       {0x00000000u, 0x80000000u,  // +-0
        0x7f800000u, 0xff800000u,  // +-inf
        0x7fc00000u, 0xffc00000u,  // default quiet NaNs
        0x7fc12345u, 0xffd54321u,  // quiet NaN payloads
        0x7f800001u, 0xff800001u,  // signalling NaNs, smallest payload
        0x7fa5a5a5u, 0xffbfffffu,  // signalling NaN payloads
        0x00000001u, 0x80000001u,  // smallest subnormals
        0x007fffffu, 0x807fffffu,  // largest subnormals
        0x00400000u, 0x80012345u,  // mid subnormals
        0x00800000u, 0x80800000u,  // smallest normals
        0x7f7fffffu, 0xff7fffffu}) {  // +-FLT_MAX
    x.push_back(from_bits(u));
  }
  for (const float m : kShifts) {
    expect_exp_matches_reference(x, m, "special");
  }
  // The reference is glibc's algorithm: its special cases and one ordinary
  // value.
  std::vector<float> out(6);
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> in = {0.0f, -0.0f, -inf, inf, -104.5f, 89.0f};
  fm::exp_shifted_scalar(in.data(), 0.0f, out.data(), in.size());
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 1.0f);
  EXPECT_EQ(bits_of(out[2]), 0u);
  EXPECT_EQ(out[3], inf);
  EXPECT_EQ(bits_of(out[4]), 0u);
  EXPECT_EQ(out[5], inf);
  const float nan_in = from_bits(0x7fa5a5a5u);  // signalling: comes out quiet
  float nan_out = 0.0f;
  fm::exp_shifted_scalar(&nan_in, 0.0f, &nan_out, 1);
  EXPECT_EQ(bits_of(nan_out), 0x7fe5a5a5u);
}

TEST(ExpShifted, EveryTailLength) {
  // n = 0..17 covers an empty call, every ragged tail below one 8-lane
  // group, and one or two groups plus every tail; mixed ordinary, special
  // and subnormal-output lanes sit at every lane position.
  std::mt19937_64 rng(41);
  std::normal_distribution<float> d(0.0f, 40.0f);
  std::uniform_int_distribution<int> pick(0, 7);
  for (std::size_t n = 0; n <= 17; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<float> x(n);
      for (float& v : x) {
        switch (pick(rng)) {
          case 0: v = -std::numeric_limits<float>::infinity(); break;
          case 1: v = std::numeric_limits<float>::quiet_NaN(); break;
          case 2: v = -103.5f; break;  // exp is subnormal
          default: v = d(rng);
        }
      }
      for (const float m : {0.0f, 3.5f, -60.0f,
                            std::numeric_limits<float>::quiet_NaN()}) {
        expect_exp_matches_reference(x, m, "tail");
        if (HasFatalFailure()) return;
      }
    }
  }
}
