#pragma once
// Runtime-dispatched AVX2+FMA GEMM microkernels (optional AVX-512F variant).
//
// These are the MAC inner loops behind sim::gemm_fp16_nt / gemm_f32_nt and
// the strided checksum encodes — the last scalar hot loops after PR 3
// vectorized the fp16<->fp32 conversions.  Same dispatch contract as
// fp16_simd.cpp: compiled only under FTT_SIMD (plus FTT_SIMD_AVX512 for the
// wide variant), per-function target attributes so the rest of the library
// keeps the default architecture, a CPUID check at runtime, and a scalar
// reference path that is always present and always the semantic definition.
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
// fp32 exponent range) and checksum-encode weights are small integers
// (<= 64, <= 7 bits against an fp16 operand).  Feeding arbitrary fp32
// operands voids the scalar-bitwise guarantee — don't.
//
// tests/test_gemm_simd.cpp pins dispatch == scalar bit-for-bit on
// randomized shapes, ragged tails and strided outputs.

#include <cstddef>

#include "numeric/fp16.hpp"

namespace ftt::numeric {

/// True when an AVX2+FMA (or AVX-512F) GEMM kernel is compiled in and this
/// CPU supports it (checked once, then cached).
bool simd_gemm_active() noexcept;

/// True when the AVX-512F variant specifically is compiled in
/// (FTT_SIMD_AVX512) and supported by this CPU.
bool simd_gemm_avx512_active() noexcept;

/// True when the fp16-operand kernels below can take the SIMD path: the
/// AVX2 tier additionally needs F16C for the in-register widen (the
/// AVX-512F tier gets vcvtph2ps from AVX512F itself).
bool simd_gemm_f16c_active() noexcept;

/// y[i] += a * x[i] for i ascending — the checksum-encode primitive.
/// Dispatching entry point and scalar reference; bit-identical under the
/// exact-product precondition above.
void axpy_f32(float a, const float* x, float* y, std::size_t n) noexcept;
void axpy_f32_scalar(float a, const float* x, float* y,
                     std::size_t n) noexcept;

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

/// fp16-operand tier: same contracts as axpy_f32 / gemm_f32_nn with the
/// B-side operand kept at half width and widened in registers
/// (`_mm256_cvtph_ps`, 8 lanes at a time) inside the inner loop.  fp16->fp32
/// widening is exact and the per-element accumulation order is unchanged
/// (ascending k, lanes across output columns), so these are bit-identical to
/// running the fp32 kernels over a pre-widened copy of B — at half the
/// B-side bytes streamed.  The scalar references widen with
/// half_bits_to_float, which quiets sNaNs exactly like hardware F16C, so
/// scalar == SIMD on all 65536 half patterns (tests/test_fp16_gemm.cpp
/// proves it exhaustively).

/// y[i] += a * widen(x[i]) for i ascending.
void axpy_f32_h(float a, const Half* x, float* y, std::size_t n) noexcept;
void axpy_f32_h_scalar(float a, const Half* x, float* y,
                       std::size_t n) noexcept;

/// C (M x N, row stride ldc >= N) = A (M x K fp32) * widen(B) (K x N Half,
/// k-major), += when `accumulate`.  Bit-identical to gemm_f32_nn over the
/// widened image of B.
void gemm_f32_nnh(const float* A, std::size_t M, std::size_t K, const Half* B,
                  std::size_t N, float* C, std::size_t ldc,
                  bool accumulate) noexcept;
void gemm_f32_nnh_scalar(const float* A, std::size_t M, std::size_t K,
                         const Half* B, std::size_t N, float* C,
                         std::size_t ldc, bool accumulate) noexcept;

/// out (cols x rows) = transpose of in (rows x cols).  Pure data movement
/// (no rounding), cache-blocked.  Used to pack the N x K operand of
/// gemm_f32_nt into the k-major layout gemm_f32_nn consumes, and to lay a
/// sealed int8 tile's K payload out k-major at quantization time.
void transpose_f32(const float* in, std::size_t rows, std::size_t cols,
                   float* out) noexcept;
/// Same at half width: seals a Linear's N x K weights, and a sealed KV
/// tile's K side (the kF16T image), into the k-major layout gemm_f32_nnh
/// streams.
void transpose_h(const Half* in, std::size_t rows, std::size_t cols,
                 Half* out) noexcept;

}  // namespace ftt::numeric
