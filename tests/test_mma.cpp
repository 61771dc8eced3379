// SM80 MMA atom layout and TiledMMA thread-ownership properties — the
// hardware facts the strided ABFT design rests on (paper Figs. 6-7).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/mma.hpp"
#include "tensor/random.hpp"

namespace fs = ftt::sim;
namespace ft = ftt::tensor;
using ftt::numeric::Half;

TEST(MmaAtom, CFragmentCoversTileExactlyOnce) {
  // 32 lanes x 4 regs must cover the 16x8 accumulator bijectively.
  std::set<std::pair<int, int>> seen;
  for (int lane = 0; lane < 32; ++lane) {
    for (int reg = 0; reg < 4; ++reg) {
      const auto [row, col] = fs::MmaAtom::c_element(lane, reg);
      EXPECT_GE(row, 0);
      EXPECT_LT(row, 16);
      EXPECT_GE(col, 0);
      EXPECT_LT(col, 8);
      EXPECT_TRUE(seen.emplace(row, col).second) << row << "," << col;
    }
  }
  EXPECT_EQ(seen.size(), 128u);
}

TEST(MmaAtom, CCoordInvertsCElement) {
  for (int lane = 0; lane < 32; ++lane) {
    for (int reg = 0; reg < 4; ++reg) {
      const auto [row, col] = fs::MmaAtom::c_element(lane, reg);
      const fs::RegCoord rc = fs::MmaAtom::c_coord(row, col);
      EXPECT_EQ(rc.lane, lane);
      EXPECT_EQ(rc.reg, reg);
    }
  }
}

TEST(MmaAtom, AFragmentEightRegsPerLane) {
  // Each lane must own exactly 8 of the 256 A elements.
  std::map<int, int> count;
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      const auto rc = fs::MmaAtom::a_coord(r, c);
      EXPECT_GE(rc.reg, 0);
      EXPECT_LT(rc.reg, 8);
      ++count[rc.lane];
    }
  }
  ASSERT_EQ(count.size(), 32u);
  for (const auto& [lane, n] : count) EXPECT_EQ(n, 8) << lane;
}

TEST(MmaAtom, BFragmentFourRegsPerLane) {
  std::map<int, int> count;
  for (int k = 0; k < 16; ++k) {
    for (int c = 0; c < 8; ++c) {
      const auto rc = fs::MmaAtom::b_coord(k, c);
      EXPECT_GE(rc.reg, 0);
      EXPECT_LT(rc.reg, 4);
      ++count[rc.lane];
    }
  }
  ASSERT_EQ(count.size(), 32u);
  for (const auto& [lane, n] : count) EXPECT_EQ(n, 4) << lane;
}

TEST(MmaAtom, PaperFig6Examples) {
  // Paper: A[0][0] in T0 V0, A[4][0] in T16 V0, A[8][0] back in T0.
  EXPECT_EQ(fs::MmaAtom::a_coord(0, 0).lane, 0);
  EXPECT_EQ(fs::MmaAtom::a_coord(4, 0).lane, 16);
  EXPECT_EQ(fs::MmaAtom::a_coord(8, 0).lane, 0);
}

TEST(MmaAtom, ComputesReferenceProduct) {
  ft::MatrixH A(16, 16), B(16, 8);
  ft::fill_normal(A, 1);
  ft::fill_normal(B, 2);
  ft::MatrixF C(16, 8, 0.0f);
  fs::MmaAtom::mma(A.data(), 16, B.data(), 8, C.data(), 8);
  for (int m = 0; m < 16; ++m) {
    for (int n = 0; n < 8; ++n) {
      float ref = 0.0f;
      for (int k = 0; k < 16; ++k) {
        ref += A(m, k).to_float() * B(k, n).to_float();
      }
      EXPECT_FLOAT_EQ(C(m, n), ref);
    }
  }
}

TEST(MmaAtom, AccumulatesIntoC) {
  ft::MatrixH A(16, 16), B(16, 8);
  ft::fill_normal(A, 3);
  ft::fill_normal(B, 4);
  ft::MatrixF C(16, 8, 1.0f);
  fs::MmaAtom::mma(A.data(), 16, B.data(), 8, C.data(), 8);
  ft::MatrixF C0(16, 8, 0.0f);
  fs::MmaAtom::mma(A.data(), 16, B.data(), 8, C0.data(), 8);
  for (std::size_t i = 0; i < C.size(); ++i) {
    // Seeding the accumulator changes intermediate rounding, so compare to a
    // small tolerance rather than bitwise.
    EXPECT_NEAR(C.data()[i], C0.data()[i] + 1.0f, 1e-5f);
  }
}

// --- The two layout properties the strided checksum design relies on ---

TEST(TiledMma, ColumnStride64SameThread) {
  // Paper Fig. 7: Q[0][0], Q[64][0], Q[128][0] all live in thread 0; in
  // general any (row, row+64) pair of an accumulator column shares a thread.
  for (std::size_t col = 0; col < 8; ++col) {
    for (std::size_t row = 0; row < 64; ++row) {
      const int t = fs::TiledMma64x16x16::thread_of_c(row, col);
      EXPECT_EQ(t, fs::TiledMma64x16x16::thread_of_c(row + 64, col));
      EXPECT_EQ(t, fs::TiledMma64x16x16::thread_of_c(row + 128, col));
    }
  }
  EXPECT_EQ(fs::TiledMma64x16x16::thread_of_c(0, 0), 0);
  EXPECT_EQ(fs::TiledMma64x16x16::thread_of_c(64, 0), 0);
}

TEST(TiledMma, RowStride8SameThread) {
  // Paper Fig. 7: K^T[0][0], K^T[0][8], K^T[0][16] share thread 0; any
  // (col, col+8) pair of an accumulator row shares a thread.
  for (std::size_t row = 0; row < 64; ++row) {
    for (std::size_t col = 0; col < 8; ++col) {
      const int t = fs::TiledMma64x16x16::thread_of_c(row, col);
      EXPECT_EQ(t, fs::TiledMma64x16x16::thread_of_c(row, col + 8));
      EXPECT_EQ(t, fs::TiledMma64x16x16::thread_of_c(row, col + 16));
    }
  }
  EXPECT_EQ(fs::TiledMma64x16x16::thread_of_b(0, 0), 0);
  EXPECT_EQ(fs::TiledMma64x16x16::thread_of_b(0, 8),
            fs::TiledMma64x16x16::thread_of_b(0, 0));
}

TEST(TiledMma, AdjacentColumnsNotSameThreadEverywhere) {
  // Sanity: stride 1 does NOT keep the thread fixed (otherwise the strided
  // design would be vacuous).
  bool any_differ = false;
  for (std::size_t col = 0; col + 1 < 8; ++col) {
    if (fs::TiledMma64x16x16::thread_of_c(0, col) !=
        fs::TiledMma64x16x16::thread_of_c(0, col + 1)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(TiledMma, FourWarpsAlongM) {
  // Rows 0..15 belong to warp 0, 16..31 to warp 1, etc.
  for (std::size_t row = 0; row < 64; ++row) {
    const int t = fs::TiledMma64x16x16::thread_of_c(row, 0);
    EXPECT_EQ(t / 32, static_cast<int>(row / 16)) << row;
  }
}

// --- Blocked GEMM wrappers ---

TEST(GemmFp16, MatchesAtomChain) {
  // gemm_fp16_nt over a 16x16x16 problem must agree bitwise with the atom
  // (same fp32 accumulation order along K).
  ft::MatrixH A(16, 16), Bt(8, 16);
  ft::fill_normal(A, 5);
  ft::fill_normal(Bt, 6);
  // Atom wants B as K x N; build it from Bt (N x K).
  ft::MatrixH B(16, 8);
  for (int k = 0; k < 16; ++k) {
    for (int n = 0; n < 8; ++n) B(k, n) = Bt(n, k);
  }
  ft::MatrixF C_atom(16, 8, 0.0f);
  fs::MmaAtom::mma(A.data(), 16, B.data(), 8, C_atom.data(), 8);
  ft::MatrixF C(16, 8, 0.0f);
  fs::gemm_fp16_nt(A, Bt, C);
  for (std::size_t i = 0; i < C.size(); ++i) {
    EXPECT_EQ(C.data()[i], C_atom.data()[i]);
  }
}

TEST(GemmFp16, AccumulateFlag) {
  ft::MatrixH A(4, 8), B(4, 8);
  ft::fill_normal(A, 7);
  ft::fill_normal(B, 8);
  ft::MatrixF C(4, 4, 0.0f), C2(4, 4, 0.0f);
  fs::gemm_fp16_nt(A, B, C, false);
  fs::gemm_fp16_nt(A, B, C2, false);
  fs::gemm_fp16_nt(A, B, C2, true);
  for (std::size_t i = 0; i < C.size(); ++i) {
    EXPECT_FLOAT_EQ(C2.data()[i], 2.0f * C.data()[i]);
  }
}

TEST(GemmFp16, RejectsMismatchedK) {
  ft::MatrixH A(4, 64), B(64, 128);
  ft::MatrixF C(4, 64);
  EXPECT_THROW(fs::gemm_fp16_nt(A, B, C), std::invalid_argument);
}

TEST(GemmFp16, RejectsWrongOutputShape) {
  ft::MatrixH A(4, 64), B(64, 64);
  ft::MatrixF C(2, 8);
  EXPECT_THROW(fs::gemm_fp16_nt(A, B, C), std::invalid_argument);
}

TEST(GemmF32H, RejectsMismatchedK) {
  // B has 32 rows against A's K = 64: the call must throw before it widens
  // K x N halves of a B that holds fewer, and leave C as it was.
  ft::MatrixF A(4, 64, 1.0f);
  ft::MatrixH B(32, 8);
  ft::MatrixF C(4, 8, 3.0f);
  EXPECT_THROW(fs::gemm_f32h_nn(A, B, C), std::invalid_argument);
  EXPECT_THROW(fs::gemm_f32h_nn(A, B, C, true), std::invalid_argument);
  for (std::size_t i = 0; i < C.size(); ++i) EXPECT_EQ(C.data()[i], 3.0f);
}

TEST(GemmF32H, RejectsWrongOutputShape) {
  // A 4 x 64 times B 64 x 8 needs a 4 x 8 C; a C of any other shape,
  // shorter, narrower, taller or wider, must be rejected unwritten.
  ft::MatrixF A(4, 64, 1.0f);
  ft::MatrixH B(64, 8);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{2, 8},
                                   {4, 4}, {8, 8}, {4, 16}}) {
    ft::MatrixF C(rows, cols, 3.0f);
    EXPECT_THROW(fs::gemm_f32h_nn(A, B, C), std::invalid_argument)
        << rows << " x " << cols;
    for (std::size_t i = 0; i < C.size(); ++i) EXPECT_EQ(C.data()[i], 3.0f);
  }
}

TEST(GemmF32H, RoundsLeftOperandThroughHalf) {
  // A value that is not fp16-representable must be rounded before the MAC.
  ft::MatrixF A(1, 1);
  A(0, 0) = 1.0f + ftt::numeric::kHalfEps * 0.25f;  // rounds to 1.0 in fp16
  ft::MatrixH B(1, 1);
  B(0, 0) = Half(2.0f);
  ft::MatrixF C(1, 1, 0.0f);
  fs::gemm_f32h_nn(A, B, C);
  EXPECT_FLOAT_EQ(C(0, 0), 2.0f);
}

TEST(GemmF32H, MatchesReference) {
  ft::MatrixF A(8, 16);
  ft::fill_normal(A, 9);
  ft::MatrixH B(16, 8);
  ft::fill_normal(B, 10);
  ft::MatrixF C(8, 8, 0.0f);
  fs::gemm_f32h_nn(A, B, C);
  for (std::size_t m = 0; m < 8; ++m) {
    for (std::size_t n = 0; n < 8; ++n) {
      float ref = 0.0f;
      for (std::size_t k = 0; k < 16; ++k) {
        ref += ftt::numeric::round_to_half(A(m, k)) * B(k, n).to_float();
      }
      EXPECT_NEAR(C(m, n), ref, 1e-5f);
    }
  }
}
