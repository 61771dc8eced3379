#pragma once
// Register-tile GEMM microkernels for fp32, fp16 and int8 B operands,
// dispatched at runtime on numeric::simd_level() (numeric/simd.hpp).
//
// These are the MAC inner loops behind sim::gemm_fp16_nt / gemm_f32_nt, the
// decode block kernel's products on every tile format and the checksum
// GEMMs.  Each entry point has a scalar reference that is always compiled
// and always the semantic definition; the AVX2 and AVX-512 tiers are tested
// against it.
//
// Bit-identity contract.  Every kernel fixes the per-output-element
// accumulation order to ascending k — exactly the sequential-K scalar dot
// loop (and the SM80 MMA atom chain test_mma pins gemm_fp16_nt against).
// Vector lanes run across *output columns*, never across k, so widening the
// vector (8 AVX2 lanes, 16 AVX-512 lanes, 1 scalar lane) cannot reorder any
// element's additions.  The FMA forms are bit-identical to the scalar
// mul-then-add forms under one precondition, which every caller in this
// codebase satisfies: each product a*b must be exactly representable in
// fp32, so fl(a*b) == a*b and fma(a,b,c) == fl(c + fl(a*b)).  That holds
// because all GEMM operands here are fp16-valued (widened or fp16-rounded:
// <= 11-bit significands, products need <= 22 bits and stay far inside the
// fp32 exponent range) and int8 operands dequantize to <= 8-bit
// significands (numeric/int8_simd.hpp).  Feeding arbitrary fp32 operands
// voids the scalar-bitwise guarantee — don't.
//
// tests/test_gemm_simd.cpp and tests/test_fp16_gemm.cpp pin dispatch ==
// scalar bit-for-bit on randomized shapes, ragged tails and strided outputs.

#include <cstddef>
#include <cstdint>

#include "numeric/fp16.hpp"

namespace ftt::numeric {

/// C (M x N, row stride ldc >= N) = A (M x K, dense row-major) * B (K x N,
/// dense row-major — i.e. the k-major / pre-transposed operand), += when
/// `accumulate`.  Per output element the accumulation order is ascending k
/// starting from 0 (or the existing C value when accumulating) — the scalar
/// sequential-K dot order, so this is bit-identical to sim::gemm_f32_nt
/// over B^T.  Dispatching entry point and scalar reference.
void gemm_f32_nn(const float* A, std::size_t M, std::size_t K, const float* B,
                 std::size_t N, float* C, std::size_t ldc,
                 bool accumulate) noexcept;
void gemm_f32_nn_scalar(const float* A, std::size_t M, std::size_t K,
                        const float* B, std::size_t N, float* C,
                        std::size_t ldc, bool accumulate) noexcept;

/// fp16-operand format: C (M x N, row stride ldc >= N) = A (M x K fp32) *
/// widen(B) (K x N Half, k-major), += when `accumulate` — gemm_f32_nn's
/// contract with the B operand kept at half width and widened in registers
/// (vcvtph2ps) inside the inner loop.  fp16->fp32 widening is exact and the
/// per-element accumulation order is unchanged (ascending k, lanes across
/// output columns), so this is bit-identical to gemm_f32_nn over a
/// pre-widened copy of B — at half the B-side bytes streamed.  The scalar
/// reference widens with half_bits_to_float, which quiets sNaNs exactly
/// like hardware F16C, so scalar == SIMD on all 65536 half patterns
/// (tests/test_fp16_gemm.cpp proves it exhaustively).
void gemm_f32_nnh(const float* A, std::size_t M, std::size_t K, const Half* B,
                  std::size_t N, float* C, std::size_t ldc,
                  bool accumulate) noexcept;
void gemm_f32_nnh_scalar(const float* A, std::size_t M, std::size_t K,
                         const Half* B, std::size_t N, float* C,
                         std::size_t ldc, bool accumulate) noexcept;

/// int8-operand format, the int8 KV fast path (the decode block kernel's
/// score GEMM and GEMM II): C (M x N, row stride ldc) = A (M x K fp32) *
/// dequant(B8), B8 the K x N k-major int8 operand, += when `accumulate`.
/// Every element dequantizes as scale * float(b8) — exact for the
/// power-of-two scales choose_i8_scale produces — in registers, so the
/// kernel streams the quantized payload directly (1 byte/element) with no
/// dequantize-to-scratch pass.  Both paths form scale * float(b8) before
/// the multiply-add, so the result is bit-identical to gemm_f32_nn over a
/// dequantized image of B8 — the property that keeps int8 decode
/// bit-identical to its fp16 twin.
void gemm_f32_nn_i8(const float* A, std::size_t M, std::size_t K,
                    const std::int8_t* B8, std::size_t N, float scale,
                    float* C, std::size_t ldc, bool accumulate) noexcept;
void gemm_f32_nn_i8_scalar(const float* A, std::size_t M, std::size_t K,
                           const std::int8_t* B8, std::size_t N, float scale,
                           float* C, std::size_t ldc,
                           bool accumulate) noexcept;

/// out (cols x rows) = transpose of in (rows x cols).  Pure data movement
/// (no rounding), cache-blocked.  Used to pack the N x K operand of
/// gemm_f32_nt into the k-major layout gemm_f32_nn consumes.
void transpose_f32(const float* in, std::size_t rows, std::size_t cols,
                   float* out) noexcept;
/// Same at half width: seals a Linear's N x K weights, and stages raw K
/// rows (efta_attention's and flash_attention's slices, a raw decode
/// slice), into the k-major layout gemm_f32_nnh streams.
void transpose_h(const Half* in, std::size_t rows, std::size_t cols,
                 Half* out) noexcept;

}  // namespace ftt::numeric
