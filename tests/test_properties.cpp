// Property-based suites: invariants swept over parameter grids with
// TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <tuple>
#include <utility>

#include "abft/strided_abft.hpp"
#include "attention/attention.hpp"
#include "core/efta.hpp"
#include "numeric/fp16.hpp"
#include "sim/mma.hpp"
#include "tensor/random.hpp"

namespace fa = ftt::attention;
namespace fb = ftt::abft;
namespace fc = ftt::core;
namespace ff = ftt::fault;
namespace fn = ftt::numeric;
namespace fs = ftt::sim;
namespace ft = ftt::tensor;

// ---------- fp16 rounding properties ----------

class Fp16Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fp16Property, RoundingIsMonotone) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<float> dist(-60000.0f, 60000.0f);
  for (int i = 0; i < 2000; ++i) {
    float a = dist(rng), b = dist(rng);
    if (a > b) std::swap(a, b);
    EXPECT_LE(fn::round_to_half(a), fn::round_to_half(b));
  }
}

TEST_P(Fp16Property, RoundingWithinHalfUlp) {
  std::mt19937_64 rng(GetParam() + 17);
  std::uniform_real_distribution<float> dist(-1000.0f, 1000.0f);
  for (int i = 0; i < 2000; ++i) {
    const float f = dist(rng);
    const float r = fn::round_to_half(f);
    // Half an ulp is 2^(e-11) <= |f| * 2^-11 = kHalfEps * |f|.
    EXPECT_LE(std::fabs(f - r), fn::kHalfEps * std::fabs(f) + 1e-7f);
  }
}

TEST_P(Fp16Property, RoundingIdempotent) {
  std::mt19937_64 rng(GetParam() + 31);
  std::uniform_real_distribution<float> dist(-60000.0f, 60000.0f);
  for (int i = 0; i < 2000; ++i) {
    const float r = fn::round_to_half(dist(rng));
    EXPECT_EQ(fn::round_to_half(r), r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fp16Property,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------- strided checksum properties over stride widths ----------

class StridedWidthProperty : public ::testing::TestWithParam<int> {};

TEST_P(StridedWidthProperty, EncodeIsLinear) {
  // encode(aX + bY) == a encode(X) + b encode(Y) up to fp16 rounding.
  const int s = GetParam();
  ft::MatrixH X(64, 32), Y(64, 32);
  ft::fill_normal(X, 900 + s, 0.0f, 0.25f);
  ft::fill_normal(Y, 901 + s, 0.0f, 0.25f);
  ft::MatrixH Z(64, 32);
  for (std::size_t i = 0; i < Z.size(); ++i) {
    Z.data()[i] = fn::Half(X.data()[i].to_float() + Y.data()[i].to_float());
  }
  const auto cx = fb::StridedAbft::encode_rows_strided(X, s, false, nullptr);
  const auto cy = fb::StridedAbft::encode_rows_strided(Y, s, false, nullptr);
  const auto cz = fb::StridedAbft::encode_rows_strided(Z, s, false, nullptr);
  for (std::size_t i = 0; i < cz.size(); ++i) {
    EXPECT_NEAR(cz.data()[i].to_float(),
                cx.data()[i].to_float() + cy.data()[i].to_float(), 0.15f);
  }
}

TEST_P(StridedWidthProperty, SingleErrorAlwaysLocated) {
  const int s = GetParam();
  std::mt19937_64 rng(77 + s);
  ft::MatrixF S(8, 64);
  ft::fill_normal(S, 902 + s);
  ft::MatrixF chk1(8, s, 0.0f), chk2(8, s, 0.0f);
  const std::size_t L = 64 / s;
  for (std::size_t r = 0; r < 8; ++r) {
    for (int jc = 0; jc < s; ++jc) {
      for (std::size_t l = 0; l < L; ++l) {
        chk1(r, jc) += S(r, jc + l * s);
        chk2(r, jc) += static_cast<float>(l + 1) * S(r, jc + l * s);
      }
    }
  }
  std::uniform_int_distribution<std::size_t> row(0, 7), col(0, 63);
  for (int trial = 0; trial < 50; ++trial) {
    ft::MatrixF corrupted = S;
    const std::size_t r = row(rng), c = col(rng);
    corrupted(r, c) += 25.0f;
    const auto rep =
        fb::StridedAbft::verify_correct(corrupted, chk1, chk2, s, 0.1f);
    EXPECT_EQ(rep.corrected, 1u) << "s=" << s << " r=" << r << " c=" << c;
    EXPECT_LT(ft::max_abs_diff(corrupted, S), 1e-3f);
  }
}

TEST_P(StridedWidthProperty, WidthBoundsMultiErrorCorrection) {
  // With k <= s errors in distinct residue classes, all are corrected.
  const int s = GetParam();
  ft::MatrixF S(1, 64);
  ft::fill_normal(S, 903 + s);
  ft::MatrixF chk1(1, s, 0.0f), chk2(1, s, 0.0f);
  const std::size_t L = 64 / s;
  for (int jc = 0; jc < s; ++jc) {
    for (std::size_t l = 0; l < L; ++l) {
      chk1(0, jc) += S(0, jc + l * s);
      chk2(0, jc) += static_cast<float>(l + 1) * S(0, jc + l * s);
    }
  }
  ft::MatrixF corrupted = S;
  for (int jc = 0; jc < s; ++jc) corrupted(0, jc) += 10.0f + jc;
  const auto rep =
      fb::StridedAbft::verify_correct(corrupted, chk1, chk2, s, 0.1f);
  EXPECT_EQ(rep.corrected, static_cast<std::size_t>(s));
  EXPECT_LT(ft::max_abs_diff(corrupted, S), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Widths, StridedWidthProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

// ---------- flash == standard across a shape grid ----------

using ShapeParam = std::tuple<std::size_t, std::size_t, std::size_t>;

class FlashEquivalence : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(FlashEquivalence, MatchesStandard) {
  const auto [seq, dim, block] = GetParam();
  ft::Tensor4H Q(1, 2, seq, dim), K(1, 2, seq, dim), V(1, 2, seq, dim);
  ft::fill_normal(Q, seq * 31 + dim);
  ft::fill_normal(K, seq * 37 + dim);
  ft::fill_normal(V, seq * 41 + dim);
  ft::Tensor4F Os(1, 2, seq, dim), Of(1, 2, seq, dim);
  fa::standard_attention(Q, K, V, Os);
  fa::flash_attention(Q, K, V, Of, block);
  float m = 0.0f;
  for (std::size_t i = 0; i < Os.size(); ++i) {
    m = std::max(m, std::fabs(Os.data()[i] - Of.data()[i]));
  }
  EXPECT_LT(m, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlashEquivalence,
    ::testing::Values(ShapeParam{64, 32, 16}, ShapeParam{64, 64, 64},
                      ShapeParam{128, 64, 32}, ShapeParam{128, 128, 64},
                      ShapeParam{192, 64, 64}, ShapeParam{256, 64, 128}));

// ---------- EFTA clean-run properties across shapes ----------

// (seq, dim): the EFTA tile is always 64 rows.
using EftaShape = std::pair<std::size_t, std::size_t>;
class EftaShapeProperty : public ::testing::TestWithParam<EftaShape> {};

TEST_P(EftaShapeProperty, CleanRunNoFalseCorrections) {
  const auto [seq, dim] = GetParam();
  ft::Tensor4H Q(1, 1, seq, dim), K(1, 1, seq, dim), V(1, 1, seq, dim);
  ft::fill_normal(Q, seq * 3 + dim);
  ft::fill_normal(K, seq * 5 + dim);
  ft::fill_normal(V, seq * 7 + dim);
  ft::Tensor4F O(1, 1, seq, dim);
  fc::EftaOptions opt;
  opt.unified_verification = true;
  const auto rep = fc::efta_attention(Q, K, V, O, opt);
  EXPECT_EQ(rep.gemm1.corrected, 0u);
  EXPECT_EQ(rep.gemm2.corrected, 0u);
  EXPECT_EQ(rep.exp_check.corrected, 0u);
  EXPECT_EQ(rep.range_corrections, 0u);
}

TEST_P(EftaShapeProperty, OutputRowsAreConvexCombinations) {
  const auto [seq, dim] = GetParam();
  ft::Tensor4H Q(1, 1, seq, dim), K(1, 1, seq, dim), V(1, 1, seq, dim);
  ft::fill_normal(Q, seq * 11 + dim);
  ft::fill_normal(K, seq * 13 + dim);
  ft::fill_normal(V, seq * 17 + dim);
  ft::Tensor4F O(1, 1, seq, dim);
  fc::efta_attention(Q, K, V, O, {});
  for (std::size_t d = 0; d < dim; ++d) {
    float lo = 1e30f, hi = -1e30f;
    for (std::size_t r = 0; r < seq; ++r) {
      lo = std::min(lo, V.at(0, 0, r, d).to_float());
      hi = std::max(hi, V.at(0, 0, r, d).to_float());
    }
    for (std::size_t r = 0; r < seq; ++r) {
      EXPECT_GE(O.at(0, 0, r, d), lo - 1e-3f);
      EXPECT_LE(O.at(0, 0, r, d), hi + 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EftaShapeProperty,
    ::testing::Values(EftaShape{64, 64}, EftaShape{128, 64},
                      EftaShape{256, 64}, EftaShape{128, 128}));

// ---------- MMA layout properties across tile offsets ----------

class MmaLayoutProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MmaLayoutProperty, StridedOwnershipPeriodicity) {
  const std::size_t base = GetParam();
  for (std::size_t row = base; row < base + 16; ++row) {
    for (std::size_t col = 0; col < 8; ++col) {
      const int t = fs::TiledMma64x16x16::thread_of_c(row, col);
      EXPECT_EQ(t, fs::TiledMma64x16x16::thread_of_c(row + 64, col));
      EXPECT_EQ(t, fs::TiledMma64x16x16::thread_of_c(row, col + 8));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, MmaLayoutProperty,
                         ::testing::Values(0u, 16u, 32u, 48u, 64u, 128u));
