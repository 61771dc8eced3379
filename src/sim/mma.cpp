#include "sim/mma.hpp"

#include <omp.h>

#include <stdexcept>
#include <vector>

#include "numeric/gemm_simd.hpp"

namespace ftt::sim {

// PTX ISA, mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32:
// lane = groupID * 4 + threadID_in_group, groupID = lane >> 2.
//
// A (16x16 fp16, 8 regs a0..a7 per lane):
//   a0,a1: (groupID,       tid*2 + {0,1})
//   a2,a3: (groupID + 8,   tid*2 + {0,1})
//   a4,a5: (groupID,       tid*2 + 8 + {0,1})
//   a6,a7: (groupID + 8,   tid*2 + 8 + {0,1})
RegCoord MmaAtom::a_coord(int row, int col) noexcept {
  const int lane = (row % 8) * 4 + (col % 8) / 2;
  const int reg = (col & 1) | ((row >= 8) ? 2 : 0) | ((col >= 8) ? 4 : 0);
  return {lane, reg};
}

// B (16(K) x 8(N) fp16, 4 regs b0..b3 per lane):
//   b0,b1: (tid*2 + {0,1},     groupID)
//   b2,b3: (tid*2 + 8 + {0,1}, groupID)
RegCoord MmaAtom::b_coord(int k, int col) noexcept {
  const int lane = col * 4 + (k % 8) / 2;
  const int reg = (k & 1) | ((k >= 8) ? 2 : 0);
  return {lane, reg};
}

// C/D (16x8 fp32, 4 regs c0..c3 per lane):
//   c0,c1: (groupID,     tid*2 + {0,1})
//   c2,c3: (groupID + 8, tid*2 + {0,1})
RegCoord MmaAtom::c_coord(int row, int col) noexcept {
  const int lane = (row % 8) * 4 + col / 2;
  const int reg = (col & 1) | ((row >= 8) ? 2 : 0);
  return {lane, reg};
}

std::array<int, 2> MmaAtom::c_element(int lane, int reg) noexcept {
  const int group = lane >> 2;
  const int tid = lane & 3;
  const int row = group + ((reg & 2) ? 8 : 0);
  const int col = tid * 2 + (reg & 1);
  return {row, col};
}

void MmaAtom::mma(const numeric::Half* A, std::size_t lda,
                  const numeric::Half* B, std::size_t ldb, float* C,
                  std::size_t ldc) noexcept {
  for (int m = 0; m < kM; ++m) {
    for (int n = 0; n < kN; ++n) {
      float acc = C[m * ldc + n];
      for (int k = 0; k < kK; ++k) {
        // fp16 x fp16 is exact in fp32; accumulation is fp32 RNE per step.
        acc += A[m * lda + k].to_float() * B[k * ldb + n].to_float();
      }
      C[m * ldc + n] = acc;
    }
  }
}

int TiledMma64x16x16::thread_of_c(std::size_t row, std::size_t col) noexcept {
  const int tile_row = static_cast<int>(row % kTileM);
  const int warp = tile_row / MmaAtom::kM;
  const RegCoord rc =
      MmaAtom::c_coord(tile_row % MmaAtom::kM, static_cast<int>(col % MmaAtom::kN));
  return warp * MmaAtom::kWarpSize + rc.lane;
}

int TiledMma64x16x16::thread_of_b(std::size_t k, std::size_t col) noexcept {
  // B is broadcast to all four warps; report the warp-0 owner.
  const RegCoord rc = MmaAtom::b_coord(static_cast<int>(k % MmaAtom::kK),
                                       static_cast<int>(col % MmaAtom::kN));
  return rc.lane;
}

void gemm_f32_nt(const float* A, std::size_t M, std::size_t K, const float* B,
                 std::size_t N, tensor::MatrixF& C, bool accumulate) {
  if (M == 0 || N == 0) return;
  // Pack B (N x K, row-per-output) into the k-major layout the axpy-form
  // microkernel consumes.  Packing is pure data movement, and every tier of
  // the kernel (its scalar reference included) accumulates each output
  // element in ascending k, the sequential dot order.  thread_local
  // scratch: this runs inside OpenMP decode batches.
  thread_local std::vector<float> bt;
  if (bt.size() < K * N) bt.resize(K * N);
  numeric::transpose_f32(B, N, K, bt.data());
  numeric::gemm_f32_nn(A, M, K, bt.data(), N, &C(0, 0), C.cols(), accumulate);
}

void gemm_f32_nnh(const float* A, std::size_t M, std::size_t K,
                  const numeric::Half* B, std::size_t N, tensor::MatrixF& C,
                  bool accumulate) {
  if (M == 0 || N == 0) return;
  numeric::gemm_f32_nnh(A, M, K, B, N, &C(0, 0), C.cols(), accumulate);
}

void gemm_fp16_nt(const tensor::MatrixH& A, tensor::MatrixHView B,
                  tensor::MatrixF& C, bool accumulate) {
  const std::size_t M = A.rows(), K = A.cols(), N = B.rows;
  if (B.cols != K) {
    throw std::invalid_argument("gemm_fp16_nt: A and B must share K");
  }
  if (C.rows() != M || C.cols() != N) {
    throw std::invalid_argument("gemm_fp16_nt: C must be M x N");
  }
  // Widen once (bulk SIMD conversion): fp16 -> fp32 is exact, so arithmetic
  // below is bit-identical to fp16-operand / fp32-accumulate MMA with a
  // sequential K loop.
  std::vector<float> a(M * K), b(N * K);
  numeric::halves_to_floats(A.data(), a.data(), M * K);
  tensor::widen(B, b.data());
  gemm_f32_nt(a.data(), M, K, b.data(), N, C, accumulate);
}

void gemm_fp16_nt(const tensor::MatrixH& A, const tensor::MatrixH& B,
                  tensor::MatrixF& C, bool accumulate) {
  gemm_fp16_nt(A, tensor::view(B), C, accumulate);
}

void gemm_f32h_nn(const tensor::MatrixF& A, const tensor::MatrixH& B,
                  tensor::MatrixF& C, bool accumulate) {
  const std::size_t M = A.rows(), K = A.cols(), N = B.cols();
  if (B.rows() != K) {
    throw std::invalid_argument("gemm_f32h_nn: A and B must share K");
  }
  if (C.rows() != M || C.cols() != N) {
    throw std::invalid_argument("gemm_f32h_nn: C must be M x N");
  }
  std::vector<float> b(K * N);
  numeric::halves_to_floats(B.data(), b.data(), K * N);
  // Pre-round A through fp16 once (two bulk conversions) instead of one
  // table round-trip per (m, k); values are identical.
  std::vector<numeric::Half> ah(M * K);
  std::vector<float> af(M * K);
  numeric::floats_to_halves(A.data(), ah.data(), M * K);
  numeric::halves_to_floats(ah.data(), af.data(), M * K);

  // b is already K x N (k-major): feed the dispatching kernel directly.  Its
  // scalar reference is exactly the loop nest this replaced.
  numeric::gemm_f32_nn(af.data(), M, K, b.data(), N, &C(0, 0), C.cols(),
                       accumulate);
}

}  // namespace ftt::sim
