// Strided tensor-checksum ABFT (Eqs. 12-15): encoding identities, locate via
// the c2/c1 ratio, multi-error correction across residue classes, and the
// intra-thread property.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abft/element_abft.hpp"
#include "abft/strided_abft.hpp"
#include "sim/mma.hpp"
#include "tensor/random.hpp"

namespace fb = ftt::abft;
namespace ft = ftt::tensor;
namespace ff = ftt::fault;
namespace fs = ftt::sim;

namespace {
constexpr float kThr = 0.02f;
constexpr int kS = 8;
}  // namespace

TEST(StridedEncode, RowIdentity) {
  ft::MatrixH X(64, 16);
  ft::fill_normal(X, 1);
  const ft::MatrixH c1 = fb::StridedAbft::encode_rows_strided(X, kS, false, nullptr);
  const ft::MatrixH c2 = fb::StridedAbft::encode_rows_strided(X, kS, true, nullptr);
  ASSERT_EQ(c1.rows(), 8u);
  ASSERT_EQ(c1.cols(), 16u);
  for (std::size_t jc = 0; jc < 8; ++jc) {
    for (std::size_t c = 0; c < 16; ++c) {
      float s1 = 0.0f, s2 = 0.0f;
      for (std::size_t l = 0; l < 8; ++l) {
        s1 += X(jc + l * 8, c).to_float();
        s2 += static_cast<float>(l + 1) * X(jc + l * 8, c).to_float();
      }
      EXPECT_NEAR(c1(jc, c).to_float(), s1, 0.02f);
      EXPECT_NEAR(c2(jc, c).to_float(), s2, 0.1f);
    }
  }
}

TEST(StridedEncode, ColIdentity) {
  ft::MatrixH X(16, 64);
  ft::fill_normal(X, 2);
  const ft::MatrixH c1 = fb::StridedAbft::encode_cols_strided(X, kS, false, nullptr);
  ASSERT_EQ(c1.rows(), 16u);
  ASSERT_EQ(c1.cols(), 8u);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t jc = 0; jc < 8; ++jc) {
      float s1 = 0.0f;
      for (std::size_t l = 0; l < 8; ++l) s1 += X(r, jc + l * 8).to_float();
      EXPECT_NEAR(c1(r, jc).to_float(), s1, 0.02f);
    }
  }
}

TEST(StridedEncode, RejectsBadStride) {
  ft::MatrixH X(60, 16);
  EXPECT_THROW(fb::StridedAbft::encode_rows_strided(X, 8, false, nullptr),
               std::invalid_argument);
  ft::MatrixH Y(16, 60);
  EXPECT_THROW(fb::StridedAbft::encode_cols_strided(Y, 8, false, nullptr),
               std::invalid_argument);
}

TEST(StridedVerify, CleanRunNoFlags) {
  ft::MatrixH A(64, 64), B(64, 64);
  ft::fill_normal(A, 3, 0.0f, 0.125f);
  ft::fill_normal(B, 4);
  ft::MatrixF C(64, 64);
  const auto rep = fb::StridedAbft::gemm_nt(A, B, C, kS, kThr, nullptr);
  EXPECT_EQ(rep.flagged, 0u);
  EXPECT_EQ(rep.checks, 64u * 8u);
}

TEST(StridedVerify, LocatesAndCorrectsSingleError) {
  // Direct synthetic check of the locate arithmetic: build S and exact
  // checksums, corrupt one element, confirm the exact column comes back.
  ft::MatrixF S(4, 64);
  ft::fill_normal(S, 5);
  ft::MatrixF chk1(4, 8, 0.0f), chk2(4, 8, 0.0f);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t jc = 0; jc < 8; ++jc) {
      for (std::size_t l = 0; l < 8; ++l) {
        chk1(r, jc) += S(r, jc + l * 8);
        chk2(r, jc) += static_cast<float>(l + 1) * S(r, jc + l * 8);
      }
    }
  }
  const ft::MatrixF ref = S;
  S(2, 5 + 8 * 3) += 50.0f;  // residue class 5, loop index 3
  const auto rep = fb::StridedAbft::verify_correct(S, chk1, chk2, kS, kThr);
  EXPECT_EQ(rep.flagged, 1u);
  EXPECT_EQ(rep.corrected, 1u);
  EXPECT_LT(ft::max_abs_diff(S, ref), 1e-4f);
}

TEST(StridedVerify, CorrectsUpToEightErrorsPerRow) {
  // One error in each residue class of the same row: all correctable — the
  // "factor of 8 over traditional ABFT" property (§3.3).
  ft::MatrixF S(2, 64);
  ft::fill_normal(S, 6);
  ft::MatrixF chk1(2, 8, 0.0f), chk2(2, 8, 0.0f);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t jc = 0; jc < 8; ++jc) {
      for (std::size_t l = 0; l < 8; ++l) {
        chk1(r, jc) += S(r, jc + l * 8);
        chk2(r, jc) += static_cast<float>(l + 1) * S(r, jc + l * 8);
      }
    }
  }
  const ft::MatrixF ref = S;
  for (std::size_t jc = 0; jc < 8; ++jc) {
    S(1, jc + 8 * (jc % 8)) += 20.0f + static_cast<float>(jc);
  }
  const auto rep = fb::StridedAbft::verify_correct(S, chk1, chk2, kS, kThr);
  EXPECT_EQ(rep.corrected, 8u);
  EXPECT_LT(ft::max_abs_diff(S, ref), 1e-4f);
}

TEST(StridedVerify, TwoErrorsSameResidueClassUncorrectable) {
  // Errors spaced a multiple of 8 apart share a residue class and cannot be
  // located — exactly the paper's stated limit.
  ft::MatrixF S(1, 64);
  ft::fill_normal(S, 7);
  ft::MatrixF chk1(1, 8, 0.0f), chk2(1, 8, 0.0f);
  for (std::size_t jc = 0; jc < 8; ++jc) {
    for (std::size_t l = 0; l < 8; ++l) {
      chk1(0, jc) += S(0, jc + l * 8);
      chk2(0, jc) += static_cast<float>(l + 1) * S(0, jc + l * 8);
    }
  }
  S(0, 3) += 40.0f;
  S(0, 3 + 16) += 25.0f;
  const auto rep = fb::StridedAbft::verify_correct(S, chk1, chk2, kS, kThr);
  EXPECT_EQ(rep.flagged, 1u);
  EXPECT_EQ(rep.corrected, 0u);
  EXPECT_EQ(rep.uncorrectable, 1u);
}

TEST(StridedAbftGemm, CorrectsInjectedMacFault) {
  ft::MatrixH A(64, 64), B(64, 64);
  ft::fill_normal(A, 8, 0.0f, 0.125f);
  ft::fill_normal(B, 9);
  ft::MatrixF ref(64, 64);
  fs::gemm_fp16_nt(A, B, ref);

  for (std::uint64_t call : {0u, 17u, 1000u, 4095u}) {
    auto inj = ff::FaultInjector::single(ff::Site::kGemm1, call, 30);
    ft::MatrixF C(64, 64);
    const auto rep = fb::StridedAbft::gemm_nt(A, B, C, kS, kThr, &inj);
    EXPECT_EQ(inj.injected(), 1u) << call;
    EXPECT_EQ(rep.corrected, 1u) << call;
    EXPECT_LT(ft::max_abs_diff(C, ref), 1e-2f) << call;
  }
}

TEST(StridedAbftGemm, ChecksumPipelineFlipClassified) {
  ft::MatrixH A(64, 64), B(64, 64);
  ft::fill_normal(A, 10, 0.0f, 0.125f);
  ft::fill_normal(B, 11);
  ft::MatrixF ref(64, 64);
  fs::gemm_fp16_nt(A, B, ref);
  // Hit the c1 checksum GEMM output (first checksum the pipeline computes
  // after encoding: calls 0..1023 are the K encodes, then the chk GEMMs).
  auto inj = ff::FaultInjector::single(ff::Site::kChecksum, 1100, 29);
  ft::MatrixF C(64, 64);
  fb::StridedAbft::gemm_nt(A, B, C, kS, kThr, &inj);
  EXPECT_EQ(inj.injected(), 1u);
  // Payload must be untouched regardless of how the flip was classified.
  EXPECT_LT(ft::max_abs_diff(C, ref), 1e-3f);
}

TEST(StridedAbftGemm, MultiTileProtection) {
  // N = 128 -> two 64-row tiles, each independently verified.
  ft::MatrixH A(32, 64), B(128, 64);
  ft::fill_normal(A, 12, 0.0f, 0.125f);
  ft::fill_normal(B, 13);
  ft::MatrixF ref(32, 128);
  fs::gemm_fp16_nt(A, B, ref);
  auto inj = ff::FaultInjector::single(ff::Site::kGemm1, 3000, 30);
  ft::MatrixF C(32, 128);
  const auto rep = fb::StridedAbft::gemm_nt(A, B, C, kS, kThr, &inj);
  EXPECT_EQ(rep.corrected, 1u);
  EXPECT_LT(ft::max_abs_diff(C, ref), 1e-2f);
}

TEST(StridedAbft, IntraThreadProperty) {
  // The checksum adds elements at stride 8 along a row / 64 along a column:
  // verify every pair it combines lives in the same simulated thread.
  for (std::size_t row = 0; row < 64; ++row) {
    for (std::size_t jc = 0; jc < 8; ++jc) {
      const int owner = fs::TiledMma64x16x16::thread_of_c(row, jc);
      for (std::size_t l = 1; l < 8; ++l) {
        EXPECT_EQ(owner, fs::TiledMma64x16x16::thread_of_c(row, jc + l * 8));
      }
    }
  }
}

TEST(StridedAbftCosts, NoShuffles) {
  const auto c = fb::StridedAbft::costs(64, 64, 64, 8);
  const auto t = c.total();
  EXPECT_EQ(t.shuffles, 0.0);
  EXPECT_GT(t.tc_flops, 0.0);
  // Checksum-GEMM overhead is 2s/B of the payload per operand pair.
  const auto e = fb::ElementAbft::costs(64, 64, 64);
  EXPECT_GT(e.total().shuffles, 0.0);
}

TEST(StridedAbft, NarrowerStrideCheaperButWeaker) {
  // Width ablation hook: s=4 costs less checksum GEMM than s=8.
  const auto c4 = fb::StridedAbft::costs(64, 64, 64, 4);
  const auto c8 = fb::StridedAbft::costs(64, 64, 64, 8);
  EXPECT_LT(c4[fs::Phase::kGemm].tc_flops, c8[fs::Phase::kGemm].tc_flops);
}

TEST(StridedAbftSeal, LayoutIsTransposeAndEncodedColumns) {
  // The sealed operand holds B^T plus, per 64-column tile, the k-major
  // [c1^T | c2^T] columns — exactly the per-call encodings, at 0.25x the
  // image bytes for s = 8.
  ft::MatrixH B(128, 48);
  ft::fill_normal(B, 40);
  const auto sealed = fb::StridedAbft::seal(B, kS);
  ASSERT_EQ(sealed.image.rows(), 48u);
  ASSERT_EQ(sealed.image.cols(), 128u);
  ASSERT_EQ(sealed.checksums.rows(), 48u);
  ASSERT_EQ(sealed.checksums.cols(), 2u * 2u * kS);
  EXPECT_EQ(4 * sealed.checksums.size(), sealed.image.size());
  for (std::size_t k = 0; k < 48; ++k) {
    for (std::size_t n = 0; n < 128; ++n) {
      EXPECT_EQ(sealed.image(k, n).bits(), B(n, k).bits());
    }
  }
  for (std::size_t t = 0; t < 2; ++t) {
    ft::MatrixH bt(64, 48);
    for (std::size_t r = 0; r < 64; ++r) {
      for (std::size_t k = 0; k < 48; ++k) bt(r, k) = B(t * 64 + r, k);
    }
    const auto c1 = fb::StridedAbft::encode_rows_strided(bt, kS, false, nullptr);
    const auto c2 = fb::StridedAbft::encode_rows_strided(bt, kS, true, nullptr);
    for (std::size_t k = 0; k < 48; ++k) {
      for (std::size_t jc = 0; jc < kS; ++jc) {
        EXPECT_EQ(sealed.checksums(k, t * 16 + jc).bits(), c1(jc, k).bits());
        EXPECT_EQ(sealed.checksums(k, t * 16 + kS + jc).bits(),
                  c2(jc, k).bits());
      }
    }
  }
  EXPECT_THROW((void)fb::StridedAbft::seal(ft::MatrixH(96, 8), kS),
               std::invalid_argument);
  EXPECT_THROW((void)fb::StridedAbft::seal(B, 3), std::invalid_argument);
}

// Misuse of the strided-ABFT entry points is a typed error, never an
// out-of-bounds access.

TEST(StridedAbftMisuse, GemmRejectsMismatchedK) {
  ft::MatrixH A(4, 64), B(64, 128);
  ft::MatrixF C(4, 64);
  EXPECT_THROW(fb::StridedAbft::gemm_nt(A, B, C, kS, kThr, nullptr),
               std::invalid_argument);
}

TEST(StridedAbftMisuse, GemmRejectsWrongOutputShape) {
  ft::MatrixH A(4, 64), B(64, 64);
  ft::MatrixF C(2, 8);
  EXPECT_THROW(fb::StridedAbft::gemm_nt(A, B, C, kS, kThr, nullptr),
               std::invalid_argument);
}

TEST(StridedAbftMisuse, ApplyRejectsWrongOutputShape) {
  ft::MatrixH B(64, 32);
  const auto sealed = fb::StridedAbft::seal(B, kS);
  std::vector<float> a(4 * 32, 0.0f);
  ft::MatrixF C(4, 32);
  EXPECT_THROW(fb::StridedAbft::apply(a.data(), 4, sealed, C, kThr, nullptr,
                                      ff::Site::kLinear),
               std::invalid_argument);
}

TEST(StridedAbftMisuse, VerifyRejectsShortChecksumRows) {
  ft::MatrixF S(4, 64), chk1(3, 8), chk2(4, 8);
  EXPECT_THROW(fb::StridedAbft::verify_correct(S, chk1, chk2, kS, kThr),
               std::invalid_argument);
  EXPECT_THROW(fb::StridedAbft::verify_correct(S, chk2, chk1, kS, kThr),
               std::invalid_argument);
}

TEST(StridedAbftMisuse, VerifyRejectsNarrowChecksums) {
  ft::MatrixF S(4, 64), chk1(4, 4), chk2(4, 8);
  EXPECT_THROW(fb::StridedAbft::verify_correct(S, chk1, chk2, kS, kThr),
               std::invalid_argument);
  EXPECT_THROW(fb::StridedAbft::verify_correct(S, chk2, chk1, kS, kThr),
               std::invalid_argument);
}

TEST(StridedAbftMisuse, VerifyRejectsColumnRangePastPayload) {
  ft::MatrixF S(4, 64), chk1(4, 8), chk2(4, 8);
  EXPECT_THROW(fb::StridedAbft::verify_correct(S, chk1, chk2, kS, kThr, 32, 64),
               std::invalid_argument);
  EXPECT_THROW(fb::StridedAbft::verify_correct(S, chk1, chk2, kS, kThr, 72),
               std::invalid_argument);
}

// --- the verify screen: verify_correct == verify_correct_scalar ---

namespace {

void expect_same(const fb::Report& a, const fb::Report& b,
                 const std::string& what) {
  EXPECT_EQ(a.checks, b.checks) << what;
  EXPECT_EQ(a.flagged, b.flagged) << what;
  EXPECT_EQ(a.corrected, b.corrected) << what;
  EXPECT_EQ(a.recomputed, b.recomputed) << what;
  EXPECT_EQ(a.checksum_repairs, b.checksum_repairs) << what;
  EXPECT_EQ(a.uncorrectable, b.uncorrectable) << what;
  EXPECT_EQ(a.range_violations, b.range_violations) << what;
}

bool same_bits(const ft::MatrixF& a, const ft::MatrixF& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// One randomized verify case: payload rows with checksums that sit on
/// every side of the scalar body's decisions — exact, |d1| below and above
/// the 1e-6 floor, rel a hair below and above the threshold, located and
/// unlocatable errors, NaN/inf lanes and non-finite checksums.
void run_case(std::size_t rows, std::size_t width, int s, std::size_t col0,
              std::size_t cols, std::uint64_t seed, std::size_t& flagged) {
  const auto su = static_cast<std::size_t>(s);
  const std::size_t loops = cols / su;
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::uniform_int_distribution<int> pick(0, 13);
  ft::MatrixF S(rows, width), chk1(rows, su + 3), chk2(rows, su + 3);
  for (std::size_t i = 0; i < S.size(); ++i) {
    S.data()[i] = dist(rng) * (seed % 3 == 0 ? 1e-3f : 1.0f);
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t jc = 0; jc < su; ++jc) {
      float sum1 = 0.0f, sum2 = 0.0f, norm = 0.0f;
      for (std::size_t l = 0; l < loops; ++l) {
        const float v = S(i, col0 + jc + l * su);
        sum1 += v;
        sum2 += static_cast<float>(l + 1) * v;
        norm += std::fabs(v);
      }
      const float edge = kThr * (norm + 1e-4f);
      float d = 0.0f;
      float& lane = S(i, col0 + jc + (rng() % loops) * su);
      switch (pick(rng)) {
        case 1: d = 5e-7f; break;
        case 2: d = -2e-6f; break;
        case 3: d = edge * (1.0f - 1e-6f); break;
        case 4: d = -edge * (1.0f + 1e-6f); break;
        case 5: d = edge; break;
        case 6: lane += 37.0f; break;  // a located payload error
        case 7: lane = nan; break;
        case 8: lane = -inf; break;
        case 9: d = 1e31f; break;
        case 10: chk2(i, jc) = nan; break;
        case 11: d = nan; break;
        case 12: d = 3.0f * edge; break;  // unlocatable: c2 unchanged
        default: break;
      }
      chk1(i, jc) = sum1 + d;
      if (chk2(i, jc) == chk2(i, jc)) chk2(i, jc) = sum2;
    }
  }
  ft::MatrixF A = S, B = S;
  const auto ra = fb::StridedAbft::verify_correct(A, chk1, chk2, s, kThr, col0,
                                                  cols);
  const auto rb = fb::StridedAbft::verify_correct_scalar(B, chk1, chk2, s,
                                                         kThr, col0, cols);
  const std::string what = "s=" + std::to_string(s) +
                           " col0=" + std::to_string(col0) +
                           " seed=" + std::to_string(seed);
  expect_same(ra, rb, what);
  EXPECT_TRUE(same_bits(A, B)) << what;
  flagged += ra.flagged;
}

}  // namespace

TEST(StridedVerifyScreen, MatchesTheScalarBody) {
  std::size_t flagged = 0;
  std::uint64_t seed = 1;
  for (const int s : {4, 8, 16}) {
    const auto su = static_cast<std::size_t>(s);
    // Whole rows, and column windows into a wider payload.
    for (const auto& [col0, cols] :
         {std::pair<std::size_t, std::size_t>{0, 64},
          {64, 64},
          {su, 8 * su},
          {3, 4 * su}}) {
      for (int rep = 0; rep < 20; ++rep) {
        run_case(7, 192, s, col0, cols, seed++, flagged);
      }
    }
  }
  EXPECT_GT(flagged, 0u);  // the cases reach the scalar body's flag paths
}

TEST(StridedVerifyScreen, CleanGemmPassesEveryClass) {
  // The sealed-operand path (StridedAbft::apply) verifies through the same
  // screen: a clean protected GEMM flags nothing at any stride.
  for (const int s : {4, 8, 16}) {
    ft::MatrixH A(56, 128), B(128, 128);
    ft::fill_normal(A, 31, 0.0f, 0.125f);
    ft::fill_normal(B, 32);
    ft::MatrixF C(56, 128);
    const auto rep = fb::StridedAbft::gemm_nt(A, B, C, s, kThr, nullptr);
    EXPECT_EQ(rep.flagged, 0u) << s;
    EXPECT_EQ(rep.checks, 56u * 2u * static_cast<std::size_t>(s)) << s;
  }
}
