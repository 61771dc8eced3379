// Bit-identity of the runtime-dispatched GEMM microkernels against their
// scalar references (src/numeric/gemm_simd.cpp).
//
// The contract under test: every dispatching entry point — gemm_f32_nn
// and the sim::gemm_f32_nt pack-and-dispatch path — produces results
// bit-for-bit equal to the always-present scalar reference, on any shape,
// including ragged tails (N, K not multiples of any vector width) and
// strided outputs (ldc > N); and the one strided checksum encoder equals
// its naive reference, hooks included.  The equality must hold whether the
// dispatcher picked AVX2, AVX-512 or the scalar fallback, which is exactly
// what lets the chunk/batch/spec bit-identity proofs survive the SIMD
// build: the kernels fix the per-output-element accumulation order to
// ascending k, and FMA equals mul-then-add because every operand is
// fp16-valued (exact products in fp32 — see numeric/gemm_simd.hpp).
//
// All random operands are therefore rounded through fp16 before use: that
// is the precondition the production call sites satisfy, and the one the
// bitwise guarantee is scoped to.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "abft/strided_abft.hpp"
#include "core/efta.hpp"
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

namespace {

/// The naive reference pair assembled into encode_tile_checksums' block
/// layout [Kc1^T | Kc2^T | Vc1 | Vc2], hooks firing in its order.
std::vector<Half> reference_block(const ftt::tensor::MatrixH& K,
                                  const ftt::tensor::MatrixH& V, int s,
                                  ftt::fault::FaultInjector* inj) {
  using Abft = ftt::abft::StridedAbft;
  const std::size_t d = K.cols(), rows = K.rows();
  const auto su = static_cast<std::size_t>(s);
  const auto kc1 = Abft::encode_rows_strided(K, s, false, inj);
  const auto kc2 = Abft::encode_rows_strided(K, s, true, inj);
  const auto vc1 = Abft::encode_cols_strided(V, s, false, inj);
  const auto vc2 = Abft::encode_cols_strided(V, s, true, inj);
  std::vector<Half> block(ftt::core::tile_checksum_halves(rows, d, s));
  for (std::size_t c = 0; c < d; ++c) {
    for (std::size_t jc = 0; jc < su; ++jc) {
      block[c * su + jc] = kc1(jc, c);
      block[d * su + c * su + jc] = kc2(jc, c);
    }
  }
  std::copy_n(vc1.data(), rows * su, block.begin() + 2 * d * su);
  std::copy_n(vc2.data(), rows * su, block.begin() + (2 * d + rows) * su);
  return block;
}

bool same_bits(const std::vector<Half>& a, const std::vector<Half>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Half)) == 0;
}

}  // namespace

TEST(GemmSimd, StridedEncodesMatchScalarReferenceAndKeepHookOrder) {
  // The one encoder (abft::StridedAbft::class_sums, behind
  // core::encode_tile_checksums) over k-major rows must (a) equal the naive
  // ascending-l reference pair bit for bit, plain and weighted, on fp16
  // rows and on exactly widened fp32 rows, at any row and output pitch, and
  // (b) fire one kChecksum hook per output element in the reference's
  // order, so a flip at any call index lands on the same value.
  using Abft = ftt::abft::StridedAbft;
  constexpr std::size_t kRows = 64;
  for (const std::size_t d : {std::size_t{32}, std::size_t{64},
                              std::size_t{128}}) {
    const auto kf = random_fp16_values(kRows * d, 31 + d);
    const auto vf = random_fp16_values(kRows * d, 37 + d);
    ftt::tensor::MatrixH K(kRows, d), V(kRows, d), KT(d, kRows);
    fn::floats_to_halves(kf.data(), K.data(), K.size());
    fn::floats_to_halves(vf.data(), V.data(), V.size());
    fn::transpose_h(K.data(), kRows, d, KT.data());
    std::vector<float> ktf(KT.size());
    fn::halves_to_floats(KT.data(), ktf.data(), ktf.size());

    for (int s = 1; s <= static_cast<int>(kRows); s *= 2) {
      if (d % static_cast<std::size_t>(s) != 0) continue;
      const auto su = static_cast<std::size_t>(s);
      const std::size_t n = ftt::core::tile_checksum_halves(kRows, d, s);
      const std::vector<Half> ref = reference_block(K, V, s, nullptr);
      std::vector<Half> h(n), w(n);
      ftt::core::encode_tile_checksums(KT.data(), V.data(), kRows, d, s,
                                       nullptr, h.data());
      ftt::core::encode_tile_checksums(ktf.data(), vf.data(), kRows, d, s,
                                       nullptr, w.data());
      ASSERT_TRUE(same_bits(ref, h)) << "fp16 rows, d=" << d << " s=" << s;
      ASSERT_TRUE(same_bits(ref, w)) << "fp32 rows, d=" << d << " s=" << s;

      // The K half once more through class_sums alone, over K^T held at a
      // wider row pitch and written c2-beside-c1 at pitch 2s (the sealed
      // Linear columns' layout).
      const std::size_t ldx = kRows + 16;
      std::vector<Half> wide(d * ldx);
      for (std::size_t c = 0; c < d; ++c) {
        std::copy_n(KT.data() + c * kRows, kRows, wide.begin() + c * ldx);
      }
      std::vector<float> sums(d * 2 * su);
      Abft::class_sums(wide.data(), d, kRows, ldx, s, sums.data(),
                       sums.data() + su, 2 * su);
      for (std::size_t c = 0; c < d; ++c) {
        for (std::size_t jc = 0; jc < su; ++jc) {
          ASSERT_EQ(ref[c * su + jc].bits(),
                    Half(sums[c * 2 * su + jc]).bits());
          ASSERT_EQ(ref[d * su + c * su + jc].bits(),
                    Half(sums[c * 2 * su + su + jc]).bits());
        }
      }

      // Unarmed probe: one hook per block element, values unchanged.
      ftt::fault::FaultInjector probe;
      ftt::core::encode_tile_checksums(KT.data(), V.data(), kRows, d, s,
                                       &probe, h.data());
      EXPECT_EQ(n, probe.calls(ftt::fault::Site::kChecksum));
      ASSERT_TRUE(same_bits(ref, h));

      // A bit-30 flip at every 37th call lands on the same element and
      // value as under the reference.
      for (std::size_t call = 0; call < n; call += 37) {
        auto a = ftt::fault::FaultInjector::single(
            ftt::fault::Site::kChecksum, call, 30);
        auto b = a;
        ftt::core::encode_tile_checksums(ktf.data(), vf.data(), kRows, d, s,
                                         &a, w.data());
        ASSERT_EQ(1u, a.injected());
        ASSERT_TRUE(same_bits(reference_block(K, V, s, &b), w))
            << "d=" << d << " s=" << s << " call=" << call;
        ASSERT_EQ(1u, b.injected());
        EXPECT_EQ(a.events()[0].before, b.events()[0].before);
      }
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
