// LayerNorm, range-restricted GELU, feed-forward block.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "tensor/random.hpp"
#include "transformer/layers.hpp"

namespace ftx = ftt::transformer;
namespace ft = ftt::tensor;
namespace ff = ftt::fault;

TEST(LayerNorm, NormalizesRows) {
  ftx::LayerNorm ln(64);
  ft::MatrixF x(8, 64);
  ft::fill_normal(x, 1, 3.0f, 2.0f);
  ln.forward(x);
  for (std::size_t r = 0; r < 8; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::size_t c = 0; c < 64; ++c) mean += x(r, c);
    mean /= 64.0;
    for (std::size_t c = 0; c < 64; ++c) {
      var += (x(r, c) - mean) * (x(r, c) - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNorm, GammaBetaApplied) {
  ftx::LayerNorm ln(4);
  ln.gamma().assign(4, 2.0f);
  ln.beta().assign(4, 1.0f);
  ft::MatrixF x(1, 4);
  x(0, 0) = -1.0f;
  x(0, 1) = 0.0f;
  x(0, 2) = 1.0f;
  x(0, 3) = 2.0f;
  ln.forward(x);
  double mean = 0.0;
  for (std::size_t c = 0; c < 4; ++c) mean += x(0, c);
  EXPECT_NEAR(mean / 4.0, 1.0, 1e-4);  // beta shifts the mean
}

TEST(LayerNorm, SubRangeMatchesWholeMatrixBitwise) {
  // Rows normalize independently: a split into ranges, done in any order,
  // gives the whole-matrix call's bits.
  ftx::LayerNorm ln(64);
  ln.gamma()[3] = 1.5f;
  ln.beta()[7] = -0.25f;
  ft::MatrixF whole(9, 64);
  ft::fill_normal(whole, 7, 0.5f, 3.0f);
  ft::MatrixF split = whole;
  ln.forward(whole);
  ln.forward(split, 5, 4);
  ln.forward(split, 0, 2);
  ln.forward(split, 2, 3);
  ln.forward(split, 9, 0);  // an empty range at the end is valid
  ASSERT_EQ(whole.size(), split.size());
  EXPECT_EQ(0, std::memcmp(whole.data(), split.data(),
                           whole.size() * sizeof(float)));
}

TEST(LayerNormMisuse, WrongFeatureCountThrows) {
  ftx::LayerNorm ln(8);
  ft::MatrixF wide(2, 9), narrow(2, 7);
  EXPECT_THROW(ln.forward(wide), std::invalid_argument);
  EXPECT_THROW(ln.forward(narrow), std::invalid_argument);
  EXPECT_THROW(ln.forward(wide, 0, 1), std::invalid_argument);
  // gamma and beta resized apart: neither length may be read past.
  ftx::LayerNorm ln2(8);
  ln2.beta().resize(4);
  ft::MatrixF x(2, 8);
  EXPECT_THROW(ln2.forward(x), std::invalid_argument);
}

TEST(LayerNormMisuse, RowRangePastTheEndThrows) {
  ftx::LayerNorm ln(8);
  ft::MatrixF x(4, 8);
  ft::fill_normal(x, 9);
  const ft::MatrixF before = x;
  EXPECT_THROW(ln.forward(x, 0, 5), std::out_of_range);
  EXPECT_THROW(ln.forward(x, 3, 2), std::out_of_range);
  EXPECT_THROW(ln.forward(x, 5, 0), std::out_of_range);
  // row0 + rows wraps to a small value: still rejected.
  EXPECT_THROW(ln.forward(x, 2, std::numeric_limits<std::size_t>::max()),
               std::out_of_range);
  EXPECT_THROW(ln.forward(x, std::numeric_limits<std::size_t>::max(), 2),
               std::out_of_range);
  // The checks run before the loop: a rejected call writes nothing.
  EXPECT_TRUE(x == before);
}

TEST(Gelu, MatchesKnownValues) {
  ftx::RangeRestrictedGelu g;
  g.restrict_range = false;
  ft::MatrixF x(1, 3);
  x(0, 0) = 0.0f;
  x(0, 1) = 1.0f;
  x(0, 2) = -1.0f;
  g.forward(x);
  EXPECT_NEAR(x(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(x(0, 1), 0.8412f, 1e-3f);
  EXPECT_NEAR(x(0, 2), -0.1588f, 1e-3f);
}

TEST(Gelu, MonotoneAboveZero) {
  ftx::RangeRestrictedGelu g;
  ft::MatrixF x(1, 100);
  for (std::size_t c = 0; c < 100; ++c) x(0, c) = 0.1f * c;
  g.forward(x);
  for (std::size_t c = 1; c < 100; ++c) EXPECT_GE(x(0, c), x(0, c - 1));
}

TEST(Gelu, RestrictionClampsImpossibleValues) {
  // A fault making the activation hugely negative is impossible for GELU
  // (global min ~ -0.17): restriction pins it back.
  ftx::RangeRestrictedGelu g;
  ft::MatrixF x(1, 4);
  x(0, 0) = 1.0f;
  x(0, 1) = 2.0f;
  x(0, 2) = 3.0f;
  x(0, 3) = 4.0f;
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 2, 31);  // sign flip
  const std::size_t clipped = g.forward(x, &inj);
  EXPECT_EQ(clipped, 1u);
  EXPECT_GE(x(0, 2), -0.1701f);
}

TEST(Gelu, RestrictionPassesLegitimateValues) {
  ftx::RangeRestrictedGelu g;
  ft::MatrixF x(4, 64);
  ft::fill_normal(x, 2);
  EXPECT_EQ(g.forward(x), 0u);
}

TEST(FeedForward, CleanProtectedMatchesUnprotected) {
  ftx::FeedForward ffn(128, 256, 3);
  ft::MatrixF x(8, 128);
  ft::fill_normal(x, 4);
  ft::MatrixF y0(8, 128), y1(8, 128);
  ffn.forward(x, y0, false);
  const auto res = ffn.forward(x, y1, true);
  EXPECT_EQ(res.abft.flagged, 0u);
  EXPECT_EQ(res.activations_clipped, 0u);
  EXPECT_LT(ft::max_abs_diff(y0, y1), 1e-6f);
}

TEST(FeedForward, CorrectsLinearFault) {
  ftx::FeedForward ffn(128, 256, 5);
  ft::MatrixF x(8, 128);
  ft::fill_normal(x, 6);
  ft::MatrixF ref(8, 128), y(8, 128);
  ffn.forward(x, ref, false);
  auto inj = ff::FaultInjector::single(ff::Site::kLinear, 500, 28);
  const auto res = ffn.forward(x, y, true, &inj);
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_GE(res.abft.corrected + res.activations_clipped, 1u);
  EXPECT_LT(ft::max_abs_diff(ref, y), 0.05f);
}

TEST(FeedForwardCosts, InnerDimDominates) {
  ftx::FeedForward ffn(128, 512, 7);
  const auto c = ffn.costs(64).total();
  EXPECT_DOUBLE_EQ(c.tc_flops, 2.0 * (2.0 * 64 * 128 * 512));
  EXPECT_GT(ffn.protection_costs(64).total().fp32_flops, 0.0);
}
