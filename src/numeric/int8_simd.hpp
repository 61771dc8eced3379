#pragma once
// Per-tile symmetric int8 quantization with a power-of-two scale, plus the
// runtime-dispatched AVX2 bulk quantize/dequantize kernels of the int8 KV
// tile format (`_mm256_cvtepi8_epi32` + `_mm256_cvtepi32_ps` widening, in
// the caffe2/operators/quantized spirit, specialized to this repo's
// bit-identity contracts).  The fused dequantizing GEMM that streams the
// payload is numeric::gemm_f32_nn_i8 (numeric/gemm_simd.hpp), on the shared
// register tiles.
//
// Why a power-of-two scale (not amax/127):
//
//   * dequantization  f = q * scale  is EXACT — q has at most 8 significant
//     bits and a power-of-two multiply only shifts the exponent, so the
//     dequantized tile is a set of fp32 values with <= 7-bit significands;
//   * every product of a dequantized operand with an fp16-valued query
//     element therefore has <= 18 significant bits and is exactly
//     representable in fp32, which is precisely the "exact product"
//     precondition the SIMD GEMM microkernels (numeric/gemm_simd.hpp) rely
//     on for their FMA == mul-then-add bit-identity proof — an arbitrary
//     scale would produce 31-bit products and silently break bitwise
//     reproducibility between the scalar and FMA paths;
//   * the fp32 strided-ABFT encodings of the dequantized tile accumulate
//     integer multiples of the scale whose partial sums stay far below
//     2^24, so they are EXACT and equal scale * (integer checksum) — the
//     sealed fp16 encodings are thus derivable, bit for bit, from the int32
//     integer checksums stored next to the payload (abft/int8_checksums).
//
// The cost is at most one extra bit of quantization error versus amax/127
// (the step is at most 2x the optimal step); the gain is that every
// downstream exactness proof in the repo survives quantization untouched.
//
// Dispatch is numeric::simd_level() (numeric/simd.hpp): the AVX2 tier runs
// the vector kernels, and the scalar reference paths are bit-identical for
// every input — including NaN (quantizes to 0) and +-Inf (saturates to
// +-127), so even pathological payloads quantize deterministically on both
// paths.

#include <cstddef>
#include <cstdint>

namespace ftt::numeric {

/// Quantization parameters of one tile: scale = 2^e chosen so that
/// 127 * scale >= amax, i.e. every finite payload value maps into
/// [-127, 127] before rounding.  inv_scale = 2^-e is exact.
struct I8Scale {
  float scale = 1.0f;
  float inv_scale = 1.0f;
};

/// max |x| over n values, ignoring NaNs (a NaN payload element quantizes to
/// zero and must not poison the tile's scale).  +-Inf yields +Inf.
float amax_f32(const float* x, std::size_t n) noexcept;

/// The smallest power-of-two scale with 127 * scale >= amax.  amax <= 0 or
/// non-finite amax yield the neutral scale 1.0 (the payload then saturates
/// element-wise, deterministically).  Exact: no float log involved.
I8Scale choose_i8_scale(float amax) noexcept;

/// dst[i] = round-to-nearest-even(clamp(src[i] * inv_scale, -127, 127));
/// NaN lanes map to 0.  Bit-identical between the SIMD and scalar paths.
void quantize_f32_to_i8(const float* src, std::int8_t* dst, std::size_t n,
                        float inv_scale) noexcept;

/// dst[i] = float(src[i]) * scale — exact when scale is a power of two
/// (choose_i8_scale guarantees it), hence trivially bit-identical between
/// the SIMD widen (_mm256_cvtepi8_epi32 + _mm256_cvtepi32_ps) and scalar.
void dequantize_i8_to_f32(const std::int8_t* src, float* dst, std::size_t n,
                          float scale) noexcept;

/// Scalar reference paths, always available; the dispatching entry points
/// above must match them bit for bit (tests/test_int8_quant.cpp sweeps
/// random and adversarial inputs on every build).
void quantize_f32_to_i8_scalar(const float* src, std::int8_t* dst,
                               std::size_t n, float inv_scale) noexcept;
void dequantize_i8_to_f32_scalar(const std::int8_t* src, float* dst,
                                 std::size_t n, float scale) noexcept;

}  // namespace ftt::numeric
