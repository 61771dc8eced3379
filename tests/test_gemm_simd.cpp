// Bit-identity of the runtime-dispatched GEMM microkernels against their
// scalar references (src/numeric/gemm_simd.cpp).
//
// The contract under test: every dispatching entry point — axpy_f32,
// gemm_f32_nn, the sim::gemm_f32_nt pack-and-dispatch path and the
// vectorized strided checksum encodes — produces results bit-for-bit equal
// to the always-present scalar reference, on any shape, including ragged
// tails (N, K not multiples of any vector width) and strided outputs
// (ldc > N).  The equality must hold whether the dispatcher picked AVX2,
// AVX-512 or the scalar fallback, which is exactly what lets the chunk/
// batch/spec/shard bit-identity proofs survive the SIMD build: the kernels
// fix the per-output-element accumulation order to ascending k, and FMA
// equals mul-then-add because every operand is fp16-valued (exact products
// in fp32 — see numeric/gemm_simd.hpp).
//
// All random operands are therefore rounded through fp16 before use: that
// is the precondition the production call sites satisfy, and the one the
// bitwise guarantee is scoped to.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "abft/strided_abft.hpp"
#include "fault/fault.hpp"
#include "numeric/fp16.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/simd.hpp"
#include "sim/mma.hpp"
#include "tensor/tensor.hpp"

namespace fn = ftt::numeric;
using ftt::numeric::Half;

namespace {

/// Random fp16-valued fp32 buffer: the exact-product precondition of the
/// kernels' FMA == mul-add equivalence (all production operands are widened
/// or fp16-rounded halves).
std::vector<float> random_fp16_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<Half> h(n);
  for (auto& x : h) x = Half(dist(rng));
  std::vector<float> f(n);
  fn::halves_to_floats(h.data(), f.data(), n);
  return f;
}

}  // namespace

TEST(GemmSimd, AxpyMatchesScalarBitwiseOnRaggedLengths) {
  // Lengths straddle every tail case: below one AVX2 vector, below one
  // AVX-512 vector, exact multiples, and off-by-one around them.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{31}, std::size_t{64}, std::size_t{100}}) {
    const auto x = random_fp16_values(n, 100 + n);
    const auto y0 = random_fp16_values(n, 200 + n);
    const auto a = random_fp16_values(1, 300 + n);
    std::vector<float> y_simd = y0, y_ref = y0;
    fn::axpy_f32(a[0], x.data(), y_simd.data(), n);
    fn::axpy_f32_scalar(a[0], x.data(), y_ref.data(), n);
    ASSERT_EQ(0, std::memcmp(y_simd.data(), y_ref.data(), n * sizeof(float)))
        << "axpy diverged from scalar at n=" << n;
  }
}

TEST(GemmSimd, GemmMatchesScalarBitwiseOnRandomizedShapes) {
  // Shapes cover the panel structure: N crossing the 32-column AVX2 panel,
  // the 64-column AVX-512 panel, the single-vector loops and the scalar
  // tail; M covers the 4-row register tiles plus a remainder of single
  // rows; K covers tiny and non-power-of-two depths.
  struct Shape {
    std::size_t M, K, N;
  };
  const Shape shapes[] = {{1, 64, 64},  {1, 64, 8},   {3, 16, 33},
                          {2, 1, 1},    {5, 7, 31},   {4, 64, 65},
                          {1, 48, 127}, {8, 13, 96},  {2, 100, 40},
                          {1, 8, 200},  {7, 21, 17},  {64, 64, 8},
                          {64, 64, 64}, {6, 17, 72},  {9, 33, 41}};
  std::uint64_t seed = 1;
  for (const auto& sh : shapes) {
    for (const bool accumulate : {false, true}) {
      const auto A = random_fp16_values(sh.M * sh.K, seed++);
      const auto B = random_fp16_values(sh.K * sh.N, seed++);
      const auto C0 = random_fp16_values(sh.M * sh.N, seed++);
      std::vector<float> c_simd = C0, c_ref = C0;
      fn::gemm_f32_nn(A.data(), sh.M, sh.K, B.data(), sh.N, c_simd.data(),
                      sh.N, accumulate);
      fn::gemm_f32_nn_scalar(A.data(), sh.M, sh.K, B.data(), sh.N,
                             c_ref.data(), sh.N, accumulate);
      ASSERT_EQ(0, std::memcmp(c_simd.data(), c_ref.data(),
                               sh.M * sh.N * sizeof(float)))
          << "gemm diverged from scalar at M=" << sh.M << " K=" << sh.K
          << " N=" << sh.N << " accumulate=" << accumulate;
    }
  }
}

TEST(GemmSimd, GemmHonorsOutputStride) {
  // ldc > N: rows of C are spaced apart, and the pad lanes between them
  // must never be touched.  Beside one ragged shape, M straddles the 8-row
  // tiles, the 4-row tiles and the single-row remainder, and N covers one
  // to three 8-column panels and a 32-column panel plus one or two of
  // them, at decode's K = 64, fresh and accumulating.
  struct Shape {
    std::size_t M, K, N, ldc;
  };
  std::vector<Shape> shapes = {{4, 33, 21, 40}};
  for (const std::size_t M : {7, 8, 9, 12, 15, 16, 17, 64, 65}) {
    for (const std::size_t N : {8, 16, 24, 72, 80}) {
      shapes.push_back({M, 64, N, N + 5});
    }
  }
  std::uint64_t seed = 7;
  for (const Shape& sh : shapes) {
    for (const bool accumulate : {false, true}) {
      const auto A = random_fp16_values(sh.M * sh.K, seed++);
      const auto B = random_fp16_values(sh.K * sh.N, seed++);
      const auto C0 = random_fp16_values(sh.M * sh.ldc, seed++);
      std::vector<float> c_simd = C0, c_ref = C0;
      fn::gemm_f32_nn(A.data(), sh.M, sh.K, B.data(), sh.N, c_simd.data(),
                      sh.ldc, accumulate);
      fn::gemm_f32_nn_scalar(A.data(), sh.M, sh.K, B.data(), sh.N,
                             c_ref.data(), sh.ldc, accumulate);
      ASSERT_EQ(0, std::memcmp(c_simd.data(), c_ref.data(),
                               sh.M * sh.ldc * sizeof(float)))
          << "M=" << sh.M << " N=" << sh.N << " accumulate=" << accumulate;
      // The inter-row gap is untouched by both paths.
      for (std::size_t m = 0; m < sh.M; ++m) {
        for (std::size_t c = sh.N; c < sh.ldc; ++c) {
          ASSERT_EQ(C0[m * sh.ldc + c], c_simd[m * sh.ldc + c]);
        }
      }
    }
  }
}

TEST(GemmSimd, TransposeIsExactDataMovement) {
  constexpr std::size_t R = 37, C = 53;  // deliberately off the 32x32 blocks
  const auto in = random_fp16_values(R * C, 11);
  std::vector<float> t(R * C), back(R * C);
  fn::transpose_f32(in.data(), R, C, t.data());
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      ASSERT_EQ(in[r * C + c], t[c * R + r]);
    }
  }
  fn::transpose_f32(t.data(), C, R, back.data());
  ASSERT_EQ(0, std::memcmp(in.data(), back.data(), R * C * sizeof(float)));
}

TEST(GemmSimd, SimGemmNtMatchesSequentialDotReference) {
  // The sim::gemm_f32_nt entry point (pack B, then dispatch) against the
  // sequential-K dot loop it documents — the same reference test_mma pins
  // gemm_fp16_nt to via the MMA atom chain.  C starts nonzero, so a fresh
  // product must overwrite it, K = 0 included.
  struct Shape {
    std::size_t M, K, N;
  };
  const Shape shapes[] = {
      {1, 64, 64}, {3, 64, 8}, {64, 64, 64}, {5, 16, 9}, {4, 0, 9}};
  std::uint64_t seed = 21;
  for (const auto& sh : shapes) {
    const auto A = random_fp16_values(sh.M * sh.K, seed++);
    const auto B = random_fp16_values(sh.N * sh.K, seed++);  // N x K
    ftt::tensor::MatrixF C(sh.M, sh.N, 7.0f);
    ftt::sim::gemm_f32_nt(A.data(), sh.M, sh.K, B.data(), sh.N, C);
    for (std::size_t m = 0; m < sh.M; ++m) {
      for (std::size_t n = 0; n < sh.N; ++n) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < sh.K; ++k) {
          acc += A[m * sh.K + k] * B[n * sh.K + k];
        }
        ASSERT_EQ(acc, C(m, n)) << "m=" << m << " n=" << n;
      }
    }
  }
}

TEST(GemmSimd, StridedEncodesMatchScalarReferenceAndKeepHookOrder) {
  // The vectorized encode_rows/cols_strided must (a) equal the scalar
  // ascending-l accumulation bit for bit and (b) fire the per-output fault
  // hooks exactly as before — one kChecksum call per output element — so
  // fault-campaign call indices stay stable across the SIMD build.
  constexpr std::size_t kRows = 64, kCols = 64;
  constexpr int s = 8;
  const auto xf = random_fp16_values(kRows * kCols, 31);

  for (const bool weighted : {false, true}) {
    const ftt::tensor::MatrixH rows_enc =
        ftt::abft::StridedAbft::encode_rows_strided_widened(
            xf.data(), kRows, kCols, s, weighted, nullptr);
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      for (std::size_t c = 0; c < kCols; ++c) {
        float acc = 0.0f;
        for (std::size_t l = 0; l < kRows / s; ++l) {
          const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
          acc += w * xf[(jc + l * s) * kCols + c];
        }
        ASSERT_EQ(Half(acc).bits(), rows_enc(jc, c).bits());
      }
    }
    const ftt::tensor::MatrixH cols_enc =
        ftt::abft::StridedAbft::encode_cols_strided_widened(
            xf.data(), kRows, kCols, s, weighted, nullptr);
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
        float acc = 0.0f;
        for (std::size_t l = 0; l < kCols / s; ++l) {
          const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
          acc += w * xf[r * kCols + jc + l * s];
        }
        ASSERT_EQ(Half(acc).bits(), cols_enc(r, jc).bits());
      }
    }
  }

  // Unarmed probe: counts hook calls without changing values.
  ftt::fault::FaultInjector probe;
  const auto with_probe = ftt::abft::StridedAbft::encode_rows_strided_widened(
      xf.data(), kRows, kCols, s, false, &probe);
  EXPECT_EQ(static_cast<std::size_t>(s) * kCols,
            probe.calls(ftt::fault::Site::kChecksum));
  const auto without = ftt::abft::StridedAbft::encode_rows_strided_widened(
      xf.data(), kRows, kCols, s, false, nullptr);
  for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
    for (std::size_t c = 0; c < kCols; ++c) {
      ASSERT_EQ(without(jc, c).bits(), with_probe(jc, c).bits());
    }
  }
}

TEST(GemmSimd, DispatchReportsConsistentState) {
  // simd_level() is the one tier every dispatcher reads.  On x86-64 builds
  // with FTT_SIMD it must match the CPU: kAvx2 needs AVX2, FMA and F16C,
  // and kAvx512 additionally AVX-512F on an FTT_SIMD_AVX512 build.  Every
  // other build runs the scalar references.
  fn::SimdLevel want = fn::SimdLevel::kScalar;
#if defined(FTT_SIMD) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    want = fn::SimdLevel::kAvx2;
#ifdef FTT_SIMD_AVX512
    if (__builtin_cpu_supports("avx512f")) want = fn::SimdLevel::kAvx512;
#endif
  }
#endif
  EXPECT_EQ(want, fn::simd_level())
      << "simd_level=" << fn::simd_level_name(fn::simd_level());
}
