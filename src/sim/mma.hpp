#pragma once
// Software model of the SM80_16x8x16_F32F16F16F32_TN MMA instruction.
//
// The paper's strided ABFT (Section 3.3) is built entirely on the
// thread<->data mapping of this instruction: within a warp of 32 threads,
// the 16x8 fp32 accumulator tile, the 16x16 fp16 A tile and the 16x8 fp16
// B tile are distributed across thread registers in a fixed pattern
// (paper Fig. 6; PTX ISA "mma.sync.aligned.m16n8k16").  We reproduce that
// mapping exactly so the paper's central claims are *checkable properties*
// of this codebase:
//   * with a 64x16x16 TiledMMA, elements of a column at stride 64 live in
//     the same thread, and elements of a row at stride 8 live in the same
//     thread (Fig. 7), so strided checksums need no inter-thread traffic;
//   * classic element checksums need cross-thread reduction, which we count
//     as warp shuffles in the cost model.
//
// Arithmetic semantics: fp16 operands, fp32 multiply-accumulate.  An fp16 x
// fp16 product is exact in fp32 (11-bit significands), so the model computes
// in fp32 over fp16-rounded inputs, which is bit-equivalent per MAC.

#include <array>
#include <cstddef>
#include <cstdint>

#include "numeric/fp16.hpp"
#include "tensor/tensor.hpp"

namespace ftt::sim {

/// Register coordinate of a matrix element inside a warp: which lane holds it
/// and in which of the lane's registers.
struct RegCoord {
  int lane = 0;  ///< thread index within the warp, 0..31
  int reg = 0;   ///< register index within that thread's fragment
};

/// Thread<->data layout of one m16n8k16 F32F16F16F32 TN MMA atom.
struct MmaAtom {
  static constexpr int kM = 16;
  static constexpr int kN = 8;
  static constexpr int kK = 16;
  static constexpr int kWarpSize = 32;

  /// A fragment: 16x16 fp16, 8 registers per lane.
  static RegCoord a_coord(int row, int col) noexcept;
  /// B fragment: 16(K) x 8(N) fp16, 4 registers per lane.
  static RegCoord b_coord(int k, int col) noexcept;
  /// C/D accumulator: 16x8 fp32, 4 registers per lane.
  static RegCoord c_coord(int row, int col) noexcept;

  /// Inverse of c_coord: element owned by (lane, reg).
  static std::array<int, 2> c_element(int lane, int reg) noexcept;

  /// D = A * B + C with fp16 operands / fp32 accumulate.
  /// A is 16x16 (row-major), B is 16x8 laid out K x N (i.e. column `n` of B
  /// is the n-th output column; the TN in the instruction name refers to the
  /// source operand layouts, which this interface abstracts away).
  static void mma(const numeric::Half* A, std::size_t lda,
                  const numeric::Half* B, std::size_t ldb, float* C,
                  std::size_t ldc) noexcept;
};

/// TiledMMA used by EFTA: 4 warps stacked along M (64 rows), one MMA atom
/// footprint along N and K, replicated by iteration to cover a block
/// (paper Fig. 7: "64x16x16 TiledMMA", warp-level parallelism along M).
struct TiledMma64x16x16 {
  static constexpr int kTileM = 64;
  static constexpr int kTileN = 16;  // two atom-N footprints per iteration
  static constexpr int kTileK = 16;
  static constexpr int kWarps = 4;
  static constexpr int kThreads = kWarps * MmaAtom::kWarpSize;

  /// Global thread id (0..127) owning accumulator element (row, col) of an
  /// arbitrarily large output tile covered by repeating this TiledMMA.
  static int thread_of_c(std::size_t row, std::size_t col) noexcept;

  /// Global thread id owning B element (k, col).
  static int thread_of_b(std::size_t k, std::size_t col) noexcept;
};

/// Blocked GEMM over fp16 inputs with fp32 accumulation, bit-faithful to a
/// chain of SM80 MMA atoms with a sequential K loop.  C (rows x cols) += or =
/// A (rows x K) * B^T (cols x K)   -- i.e. computes A * B^T, the layout used
/// by Q * K^T.  Set `accumulate` to add into C.  A and B must share K and C
/// must be rows x cols, else std::invalid_argument.
void gemm_fp16_nt(const tensor::MatrixH& A, const tensor::MatrixH& B,
                  tensor::MatrixF& C, bool accumulate = false);

/// Same GEMM over a non-owning fp16 view of B — e.g. a KV-cache tile
/// consumed in place, no pad-and-copy into an owning Matrix first.
void gemm_fp16_nt(const tensor::MatrixH& A, tensor::MatrixHView B,
                  tensor::MatrixF& C, bool accumulate = false);

/// Same GEMM over pre-widened fp32 images of the fp16 operands (widening is
/// exact, so this is bit-identical to gemm_fp16_nt over the original halves
/// — same per-output sequential-K accumulation order).  A is M x K, B is
/// N x K, both densely packed; C must be M x N.  The decode hot path widens
/// each operand once (SIMD bulk conversion) and runs every GEMM of a tile
/// through this entry point instead of re-converting per GEMM.
void gemm_f32_nt(const float* A, std::size_t M, std::size_t K, const float* B,
                 std::size_t N, tensor::MatrixF& C, bool accumulate = false);

/// Same contract with B k-major at half width (K x N Half), widened in
/// registers by the fused fp16-operand microkernel — bit-identical to
/// gemm_f32_nt over a widened B^T (pure layout change, exact widening,
/// per-output accumulation order unchanged) at half the B-side bytes
/// streamed.  KV tiles' K^T planes and checksum blocks feed the attention
/// kernel through this entry point.
void gemm_f32_nnh(const float* A, std::size_t M, std::size_t K,
                  const numeric::Half* B, std::size_t N, tensor::MatrixF& C,
                  bool accumulate = false);

/// C = A (rows x K, fp32, pre-rounded or exact) * B (K x cols, fp16).
/// Used for P * V where P is the fp32 softmax output rounded to fp16 before
/// feeding the tensor core.  B must have K rows and C must be rows x cols,
/// else std::invalid_argument (thrown before any operand is read).
void gemm_f32h_nn(const tensor::MatrixF& A, const tensor::MatrixH& B,
                  tensor::MatrixF& C, bool accumulate = false);

}  // namespace ftt::sim
