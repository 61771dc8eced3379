// Bit-identity of the fp16-operand fused microkernel (numeric::gemm_f32_nnh)
// against its scalar reference and against the widen-then-dispatch path it
// replaces.
//
// This kernel carries the decode hot loop after the fp32-image retirement:
// sealed KV payload stays in binary16 and is widened 8 (or 16) lanes at a
// time inside the kernel, so the bitwise chunk/batch/spec proofs now rest
// on two facts proved here exhaustively:
//
//   1. the in-kernel vcvtph2ps widen agrees with the scalar
//      half_bits_to_float table on every one of the 65536 binary16 bit
//      patterns (including subnormals, infinities, and NaNs — signaling
//      NaNs are quieted identically on both paths), and
//   2. with the widen exact and all operands fp16-valued, the fused kernel
//      fixes the same ascending-k accumulation order as gemm_f32_nn over a
//      pre-widened image, so fusing the conversion changes no result bit
//      on any shape, ragged tails and strided outputs included.
//
// The int8 format's fused dequantizing GEMM (numeric::gemm_f32_nn_i8),
// which carries the block kernel's GEMM II on int8 tiles, runs the same
// register tiles: it joins the ragged-shape and output-stride grids, and
// gets the widen-then-dispatch check at the block kernel's shapes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <random>
#include <vector>

#include "numeric/fp16.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/int8_simd.hpp"
#include "tensor/tensor.hpp"

namespace fn = ftt::numeric;
using ftt::numeric::Half;

namespace {

/// Random fp16-valued fp32 buffer (the kernels' exact-product precondition).
std::vector<float> random_fp16_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> f(n);
  for (auto& x : f) x = Half(dist(rng)).to_float();
  return f;
}

/// The same buffer as raw halves (for the B operand of the fused kernels).
std::vector<Half> random_halves(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> h(n);
  for (auto& x : h) x = Half(dist(rng));
  return h;
}

/// Random int8 payload over the full quantized range [-127, 127].
std::vector<std::int8_t> random_i8(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(-127, 127);
  std::vector<std::int8_t> q(n);
  for (auto& x : q) x = static_cast<std::int8_t>(dist(rng));
  return q;
}

struct Shape {
  std::size_t M, K, N;
};

/// The decode block kernel's GEMM shapes: K = 64 softmax weights against
/// the 8-wide checksum blocks, the 64-wide payload and a 72-wide operand
/// (two 32-column panels plus one 8-column panel), at row counts around
/// the 4-row tile.
std::vector<Shape> decode_shapes(std::initializer_list<std::size_t> rows) {
  std::vector<Shape> out;
  for (const std::size_t m : rows) {
    for (const std::size_t n : {8, 64, 72}) out.push_back({m, 64, n});
  }
  return out;
}

/// int8 as one more B-operand format of a shape: the dispatching
/// dequantizing GEMM against its scalar reference over the same A and C0,
/// with a random int8 B, at row stride ldc, leaving the gutter columns
/// [N, ldc) untouched.
void expect_i8_matches_scalar(const std::vector<float>& A, std::size_t M,
                              std::size_t K, std::size_t N, std::size_t ldc,
                              const std::vector<float>& C0, bool accumulate,
                              std::uint64_t seed) {
  const float scale = std::ldexp(1.0f, -6);
  const auto B8 = random_i8(K * N, seed);
  std::vector<float> c_simd = C0, c_ref = C0;
  fn::gemm_f32_nn_i8(A.data(), M, K, B8.data(), N, scale, c_simd.data(), ldc,
                     accumulate);
  fn::gemm_f32_nn_i8_scalar(A.data(), M, K, B8.data(), N, scale, c_ref.data(),
                            ldc, accumulate);
  ASSERT_EQ(0, std::memcmp(c_simd.data(), c_ref.data(),
                           M * ldc * sizeof(float)))
      << "gemm_f32_nn_i8 diverged from scalar at M=" << M << " K=" << K
      << " N=" << N << " ldc=" << ldc << " acc=" << accumulate;
  for (std::size_t r = 0; r < M; ++r) {
    for (std::size_t c = N; c < ldc; ++c) {
      ASSERT_EQ(C0[r * ldc + c], c_ref[r * ldc + c])
          << "int8 gutter column written at (" << r << ", " << c << ")";
    }
  }
}

}  // namespace

TEST(Fp16Gemm, WideningBitParityExhaustiveOverAllPatterns) {
  // Every binary16 bit pattern flows through the in-kernel widen: C = 1.0 *
  // widen(B) for a 1 x 1 A and one B row of all 65536 patterns (plus seven
  // repeats, so the column tails run too) in one call, which exercises
  // every vcvtph2ps lane position.  The dispatch and scalar paths must
  // agree bit for bit on the full output, NaN payloads included (cvtph
  // quiets signaling NaNs exactly as half_bits_to_float does).
  constexpr std::size_t kPatterns = 1u << 16;
  constexpr std::size_t kN = kPatterns + 7;
  std::vector<Half> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = Half::from_bits(static_cast<std::uint16_t>(i % kPatterns));
  }
  const float one = 1.0f;
  std::vector<float> y_simd(kN), y_ref(kN);
  fn::gemm_f32_nnh(&one, 1, 1, x.data(), kN, y_simd.data(), kN, false);
  fn::gemm_f32_nnh_scalar(&one, 1, 1, x.data(), kN, y_ref.data(), kN, false);
  ASSERT_EQ(0, std::memcmp(y_simd.data(), y_ref.data(), kN * sizeof(float)))
      << "in-kernel widen diverged from scalar on some bit pattern";
  // On the numeric patterns (everything but NaNs; +/-0 fold to +0 under
  // the 0.0 + 1.0 * x identity on both paths), the scalar reference must
  // also equal the exact table widening — anchoring both paths to the
  // binary16 value, not merely to each other.
  for (std::size_t i = 0; i < kN; ++i) {
    const auto h = static_cast<std::uint16_t>(i % kPatterns);
    if (x[i].is_nan()) continue;
    const float expect = 1.0f * fn::half_bits_to_float(h) + 0.0f;
    std::uint32_t eb, rb;
    std::memcpy(&eb, &expect, sizeof(eb));
    std::memcpy(&rb, &y_ref[i], sizeof(rb));
    ASSERT_EQ(eb, rb) << "scalar widen wrong for pattern 0x" << std::hex << h;
  }
}

TEST(Fp16Gemm, GemmHalfMatchesScalarBitwiseOnRaggedShapes) {
  // Shapes cover the tile structure of the fused kernels: M crossing the
  // 4-row tiles and their single-row remainder, N crossing the vector
  // panels and their scalar tails, K tiny and non-power-of-two, both fresh
  // and accumulating outputs — plus the block kernel's decode shapes.  The
  // fp16 and int8 B-operand formats run the same tiles, so each shape runs
  // both.
  std::vector<Shape> shapes = {{1, 64, 64},  {1, 64, 8},  {3, 16, 33},
                               {2, 1, 1},    {5, 7, 31},  {4, 64, 65},
                               {1, 48, 127}, {8, 13, 96}, {2, 100, 40},
                               {1, 8, 200},  {7, 21, 17}};
  for (const Shape& sh : decode_shapes({2, 4, 5, 63, 64, 65})) {
    shapes.push_back(sh);
  }
  std::uint64_t seed = 1;
  for (const auto& sh : shapes) {
    for (const bool accumulate : {false, true}) {
      const auto A = random_fp16_values(sh.M * sh.K, seed++);
      const auto B = random_halves(sh.K * sh.N, seed++);
      const auto C0 = random_fp16_values(sh.M * sh.N, seed++);
      std::vector<float> c_simd = C0, c_ref = C0;
      fn::gemm_f32_nnh(A.data(), sh.M, sh.K, B.data(), sh.N, c_simd.data(),
                       sh.N, accumulate);
      fn::gemm_f32_nnh_scalar(A.data(), sh.M, sh.K, B.data(), sh.N,
                              c_ref.data(), sh.N, accumulate);
      ASSERT_EQ(0, std::memcmp(c_simd.data(), c_ref.data(),
                               sh.M * sh.N * sizeof(float)))
          << "gemm_f32_nnh diverged from scalar at M=" << sh.M
          << " K=" << sh.K << " N=" << sh.N << " acc=" << accumulate;
      ASSERT_NO_FATAL_FAILURE(expect_i8_matches_scalar(
          A, sh.M, sh.K, sh.N, sh.N, C0, accumulate, 100000 + seed));
    }
  }
  // The int8 format's fused dequantizing GEMM carries the block kernel's
  // GEMM II on int8 tiles: the decode shapes at one row and a full 64-row
  // block, against its scalar reference.
  const float scale = std::ldexp(1.0f, -6);
  for (const Shape& sh : decode_shapes({1, 64})) {
    for (const bool accumulate : {false, true}) {
      const auto A = random_fp16_values(sh.M * sh.K, seed++);
      const auto B8 = random_i8(sh.K * sh.N, seed++);
      const auto C0 = random_fp16_values(sh.M * sh.N, seed++);
      std::vector<float> c_simd = C0, c_ref = C0;
      fn::gemm_f32_nn_i8(A.data(), sh.M, sh.K, B8.data(), sh.N, scale,
                         c_simd.data(), sh.N, accumulate);
      fn::gemm_f32_nn_i8_scalar(A.data(), sh.M, sh.K, B8.data(), sh.N, scale,
                                c_ref.data(), sh.N, accumulate);
      ASSERT_EQ(0, std::memcmp(c_simd.data(), c_ref.data(),
                               sh.M * sh.N * sizeof(float)))
          << "gemm_f32_nn_i8 diverged from scalar at M=" << sh.M
          << " N=" << sh.N << " acc=" << accumulate;
    }
  }
}

TEST(Fp16Gemm, GemmHalfHonorsOutputStride) {
  // ldc > N: the fused kernels must leave the gutter columns untouched and
  // match the scalar reference on the written ones.  M = 6 runs one 4-row
  // tile plus two single rows over the strided output; the grid after it
  // puts M across the 8-row tiles, the 4-row tiles and the single-row
  // remainder, and N across one to three 8-column panels and a 32-column
  // panel plus one or two of them, at decode's K = 64.  Each shape runs
  // the fp16 and the int8 B-operand formats.
  struct StridedShape {
    std::size_t M, K, N, ldc;
  };
  std::vector<StridedShape> shapes = {
      {5, 37, 29, 40}, {6, 64, 72, 80}, {6, 64, 8, 12}};
  for (const std::size_t M : {7, 8, 9, 12, 15, 16, 17, 64, 65}) {
    for (const std::size_t N : {8, 16, 24, 72, 80}) {
      shapes.push_back({M, 64, N, N + 3});
    }
  }
  std::uint64_t seed = 7001;
  for (const auto& sh : shapes) {
    for (const bool accumulate : {false, true}) {
      const auto A = random_fp16_values(sh.M * sh.K, seed++);
      const auto B = random_halves(sh.K * sh.N, seed++);
      const auto C0 = random_fp16_values(sh.M * sh.ldc, seed++);
      std::vector<float> c_simd = C0, c_ref = C0;
      fn::gemm_f32_nnh(A.data(), sh.M, sh.K, B.data(), sh.N, c_simd.data(),
                       sh.ldc, accumulate);
      fn::gemm_f32_nnh_scalar(A.data(), sh.M, sh.K, B.data(), sh.N,
                              c_ref.data(), sh.ldc, accumulate);
      ASSERT_EQ(0, std::memcmp(c_simd.data(), c_ref.data(),
                               sh.M * sh.ldc * sizeof(float)))
          << "strided gemm_f32_nnh diverged at M=" << sh.M << " N=" << sh.N
          << " acc=" << accumulate;
      for (std::size_t r = 0; r < sh.M; ++r) {
        for (std::size_t c = sh.N; c < sh.ldc; ++c) {
          ASSERT_EQ(C0[r * sh.ldc + c], c_ref[r * sh.ldc + c])
              << "gutter column written at (" << r << ", " << c << ")";
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_i8_matches_scalar(
          A, sh.M, sh.K, sh.N, sh.ldc, C0, accumulate, 100000 + seed));
    }
  }
}

TEST(Fp16Gemm, FusedMatchesWidenThenDispatchBitwise) {
  // The retirement contract: streaming the Half operand through the fused
  // kernel produces the same bits as widening it to an fp32 image first and
  // running the fp32 dispatch — the fp32 image holds exactly representable
  // values, the widen is exact, and both kernels fix ascending-k order.
  std::vector<Shape> shapes = {
      {1, 64, 64}, {4, 64, 65}, {3, 16, 33}, {1, 8, 200}};
  for (const Shape& sh : decode_shapes({2, 4, 5, 63, 64, 65})) {
    shapes.push_back(sh);
  }
  std::uint64_t seed = 9000;
  for (const auto& sh : shapes) {
    for (const bool accumulate : {false, true}) {
      const auto A = random_fp16_values(sh.M * sh.K, seed++);
      const auto B = random_halves(sh.K * sh.N, seed++);
      std::vector<float> Bf(sh.K * sh.N);
      fn::halves_to_floats(B.data(), Bf.data(), Bf.size());
      const auto C0 = random_fp16_values(sh.M * sh.N, seed++);
      std::vector<float> c_fused = C0, c_image = C0;
      fn::gemm_f32_nnh(A.data(), sh.M, sh.K, B.data(), sh.N, c_fused.data(),
                       sh.N, accumulate);
      fn::gemm_f32_nn(A.data(), sh.M, sh.K, Bf.data(), sh.N, c_image.data(),
                      sh.N, accumulate);
      ASSERT_EQ(0, std::memcmp(c_fused.data(), c_image.data(),
                               sh.M * sh.N * sizeof(float)))
          << "fused kernel diverged from widen-then-gemm at M=" << sh.M
          << " K=" << sh.K << " N=" << sh.N << " acc=" << accumulate;
    }
  }
  // The same contract for the int8 tier: streaming the quantized operand
  // equals dequantizing it to an fp32 image (exact under a power-of-two
  // scale) and running the fp32 dispatch.
  const float scale = std::ldexp(1.0f, -6);
  for (const Shape& sh : decode_shapes({1, 64})) {
    for (const bool accumulate : {false, true}) {
      const auto A = random_fp16_values(sh.M * sh.K, seed++);
      const auto B8 = random_i8(sh.K * sh.N, seed++);
      std::vector<float> Bf(sh.K * sh.N);
      fn::dequantize_i8_to_f32(B8.data(), Bf.data(), Bf.size(), scale);
      const auto C0 = random_fp16_values(sh.M * sh.N, seed++);
      std::vector<float> c_fused = C0, c_image = C0;
      fn::gemm_f32_nn_i8(A.data(), sh.M, sh.K, B8.data(), sh.N, scale,
                         c_fused.data(), sh.N, accumulate);
      fn::gemm_f32_nn(A.data(), sh.M, sh.K, Bf.data(), sh.N, c_image.data(),
                      sh.N, accumulate);
      ASSERT_EQ(0, std::memcmp(c_fused.data(), c_image.data(),
                               sh.M * sh.N * sizeof(float)))
          << "fused int8 kernel diverged from dequantize-then-gemm at M="
          << sh.M << " N=" << sh.N << " acc=" << accumulate;
    }
  }
}
