// Attention baselines: standard vs flash equivalence (Eq. 7), shapes,
// numerical behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "attention/attention.hpp"
#include "attention/decoupled_ft.hpp"
#include "tensor/random.hpp"

namespace fa = ftt::attention;
namespace ft = ftt::tensor;

namespace {

float max_diff(const ft::Tensor4F& a, const ft::Tensor4F& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return std::numeric_limits<float>::infinity();
    m = std::max(m, d);
  }
  return m;
}

struct Made {
  ft::Tensor4H Q, K, V;
};

Made make(std::size_t batch, std::size_t heads, std::size_t seq,
          std::size_t dim, std::uint64_t seed) {
  Made m{ft::Tensor4H(batch, heads, seq, dim), ft::Tensor4H(batch, heads, seq, dim),
         ft::Tensor4H(batch, heads, seq, dim)};
  ft::fill_normal(m.Q, seed);
  ft::fill_normal(m.K, seed + 1);
  ft::fill_normal(m.V, seed + 2);
  return m;
}

}  // namespace

TEST(StandardAttention, RowsAreConvexCombinationsOfV) {
  // Attention output rows are convex combinations of V rows: each output
  // coordinate lies within [min_r V, max_r V] for that column.
  auto [Q, K, V] = make(1, 1, 64, 64, 1);
  ft::Tensor4F O(1, 1, 64, 64);
  fa::standard_attention(Q, K, V, O);
  for (std::size_t d = 0; d < 64; ++d) {
    float lo = 1e30f, hi = -1e30f;
    for (std::size_t r = 0; r < 64; ++r) {
      lo = std::min(lo, V.at(0, 0, r, d).to_float());
      hi = std::max(hi, V.at(0, 0, r, d).to_float());
    }
    for (std::size_t r = 0; r < 64; ++r) {
      EXPECT_GE(O.at(0, 0, r, d), lo - 1e-3f);
      EXPECT_LE(O.at(0, 0, r, d), hi + 1e-3f);
    }
  }
}

TEST(FlashMatchesStandard, SingleBlock) {
  auto [Q, K, V] = make(1, 2, 64, 64, 2);
  ft::Tensor4F Os(1, 2, 64, 64), Of(1, 2, 64, 64);
  fa::standard_attention(Q, K, V, Os);
  fa::flash_attention(Q, K, V, Of, 64);
  EXPECT_LT(max_diff(Os, Of), 2e-3f);
}

TEST(FlashMatchesStandard, MultiBlock) {
  // Eq. (7): the streaming update is algebraically identical to standard
  // attention across block boundaries.
  auto [Q, K, V] = make(2, 2, 256, 64, 3);
  ft::Tensor4F Os(2, 2, 256, 64), Of(2, 2, 256, 64);
  fa::standard_attention(Q, K, V, Os);
  fa::flash_attention(Q, K, V, Of, 64);
  EXPECT_LT(max_diff(Os, Of), 2e-3f);
}

TEST(FlashMatchesStandard, BlockSizeInvariance) {
  auto [Q, K, V] = make(1, 1, 128, 64, 4);
  ft::Tensor4F a(1, 1, 128, 64), b(1, 1, 128, 64);
  fa::flash_attention(Q, K, V, a, 32);
  fa::flash_attention(Q, K, V, b, 128);
  EXPECT_LT(max_diff(a, b), 2e-3f);
}

TEST(FlashMatchesStandard, RaggedLastBlock) {
  // seq not a multiple of the block: flash handles the partial tail block.
  auto [Q, K, V] = make(1, 1, 96, 64, 5);
  ft::Tensor4F Os(1, 1, 96, 64), Of(1, 1, 96, 64);
  fa::standard_attention(Q, K, V, Os);
  fa::flash_attention(Q, K, V, Of, 64);
  EXPECT_LT(max_diff(Os, Of), 2e-3f);
}

TEST(FlashMatchesStandard, WideHeadDim) {
  auto [Q, K, V] = make(1, 2, 128, 128, 6);
  ft::Tensor4F Os(1, 2, 128, 128), Of(1, 2, 128, 128);
  fa::standard_attention(Q, K, V, Os);
  fa::flash_attention(Q, K, V, Of, 64);
  EXPECT_LT(max_diff(Os, Of), 2e-3f);
}

TEST(Attention, SlicesIndependent) {
  // Changing one (batch, head) slice of the input must not affect others.
  auto [Q, K, V] = make(2, 2, 64, 64, 7);
  ft::Tensor4F O1(2, 2, 64, 64), O2(2, 2, 64, 64);
  fa::flash_attention(Q, K, V, O1);
  // Perturb slice (1,1) only.
  for (std::size_t r = 0; r < 64; ++r) {
    Q.at(1, 1, r, 0) = ftt::numeric::Half(5.0f);
  }
  fa::flash_attention(Q, K, V, O2);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t d = 0; d < 64; ++d) {
      EXPECT_EQ(O1.at(0, 0, r, d), O2.at(0, 0, r, d));
      EXPECT_EQ(O1.at(0, 1, r, d), O2.at(0, 1, r, d));
      EXPECT_EQ(O1.at(1, 0, r, d), O2.at(1, 0, r, d));
    }
  }
}

TEST(Attention, UniformScoresAverageV) {
  // With Q = 0 all scores are equal: the output is the mean of V rows.
  ft::Tensor4H Q(1, 1, 64, 64), K(1, 1, 64, 64), V(1, 1, 64, 64);
  ft::fill_normal(K, 8);
  ft::fill_normal(V, 9);
  ft::Tensor4F O(1, 1, 64, 64);
  fa::standard_attention(Q, K, V, O);
  for (std::size_t d = 0; d < 64; ++d) {
    float mean = 0.0f;
    for (std::size_t r = 0; r < 64; ++r) mean += V.at(0, 0, r, d).to_float();
    mean /= 64.0f;
    for (std::size_t r = 0; r < 64; ++r) {
      EXPECT_NEAR(O.at(0, 0, r, d), mean, 2e-3f);
    }
  }
}

TEST(CausalAttention, FlashMatchesStandard) {
  auto [Q, K, V] = make(1, 2, 192, 64, 20);
  ft::Tensor4F Os(1, 2, 192, 64), Of(1, 2, 192, 64);
  fa::standard_attention(Q, K, V, Os, /*causal=*/true);
  fa::flash_attention(Q, K, V, Of, 64, /*causal=*/true);
  EXPECT_LT(max_diff(Os, Of), 2e-3f);
}

TEST(CausalAttention, FirstRowAttendsOnlyToItself) {
  auto [Q, K, V] = make(1, 1, 64, 64, 21);
  ft::Tensor4F O(1, 1, 64, 64);
  fa::standard_attention(Q, K, V, O, /*causal=*/true);
  // Row 0 sees only position 0: output equals V[0] (up to fp16 rounding).
  for (std::size_t d = 0; d < 64; ++d) {
    EXPECT_NEAR(O.at(0, 0, 0, d), V.at(0, 0, 0, d).to_float(), 2e-3f);
  }
}

TEST(CausalAttention, FutureTokensDoNotInfluencePast) {
  auto [Q, K, V] = make(1, 1, 128, 64, 22);
  ft::Tensor4F O1(1, 1, 128, 64), O2(1, 1, 128, 64);
  fa::flash_attention(Q, K, V, O1, 64, true);
  // Perturb the tail of K and V: rows < 64 must be bit-identical.
  for (std::size_t r = 100; r < 128; ++r) {
    for (std::size_t d = 0; d < 64; ++d) {
      K.at(0, 0, r, d) = ftt::numeric::Half(9.0f);
      V.at(0, 0, r, d) = ftt::numeric::Half(-9.0f);
    }
  }
  fa::flash_attention(Q, K, V, O2, 64, true);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t d = 0; d < 64; ++d) {
      EXPECT_EQ(O1.at(0, 0, r, d), O2.at(0, 0, r, d)) << r << "," << d;
    }
  }
}

// --- misuse: typed errors raised before any parallel region ---

TEST(AttentionMisuse, FlashRejectsZeroBlock) {
  auto [Q, K, V] = make(1, 1, 64, 64, 61);
  ft::Tensor4F O(1, 1, 64, 64);
  EXPECT_THROW(fa::flash_attention(Q, K, V, O, 0), std::invalid_argument);
}

TEST(AttentionMisuse, FlashRejectsShortK) {
  auto [Q, K, V] = make(1, 1, 128, 64, 62);
  ft::Tensor4H Kshort(1, 1, 64, 64), Vshort(1, 1, 64, 64);
  ft::Tensor4F O(1, 1, 128, 64);
  EXPECT_THROW(fa::flash_attention(Q, Kshort, Vshort, O),
               std::invalid_argument);
  // Matching shapes with a zero dim are rejected too.
  auto [Q0, K0, V0] = make(1, 1, 64, 0, 62);
  ft::Tensor4F O0(1, 1, 64, 0);
  EXPECT_THROW(fa::flash_attention(Q0, K0, V0, O0), std::invalid_argument);
}

TEST(AttentionMisuse, StandardRejectsMismatchedShapes) {
  // Before the check, the score GEMM threw inside the OpenMP region, which
  // terminates the process instead of reaching the caller.
  auto [Q, K, V] = make(2, 2, 64, 64, 63);
  ft::Tensor4H Kshort(2, 2, 32, 64);
  ft::Tensor4F O(2, 2, 64, 64), Onarrow(2, 2, 64, 32);
  EXPECT_THROW(fa::standard_attention(Q, Kshort, V, O),
               std::invalid_argument);
  EXPECT_THROW(fa::standard_attention(Q, K, V, Onarrow),
               std::invalid_argument);
  auto [Q0, K0, V0] = make(2, 2, 64, 0, 63);  // zero dim
  ft::Tensor4F O0(2, 2, 64, 0);
  EXPECT_THROW(fa::standard_attention(Q0, K0, V0, O0), std::invalid_argument);
}

TEST(AttentionMisuse, DecoupledRejectsMismatchedShapes) {
  // Before the check, a short V tripped a Matrix bounds assert (UB under
  // NDEBUG) in the PV kernel.
  auto [Q, K, V] = make(1, 1, 64, 64, 64);
  ft::Tensor4H Vshort(1, 1, 32, 64);
  ft::Tensor4F O(1, 1, 64, 64);
  EXPECT_THROW(fa::decoupled_ft_attention(Q, K, Vshort, O),
               std::invalid_argument);
  auto [Q0, K0, V0] = make(1, 1, 64, 0, 64);  // zero dim
  ft::Tensor4F O0(1, 1, 64, 0);
  EXPECT_THROW(fa::decoupled_ft_attention(Q0, K0, V0, O0),
               std::invalid_argument);
}
