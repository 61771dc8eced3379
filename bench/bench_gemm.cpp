// GEMM microkernel benchmark: scalar reference vs runtime SIMD dispatch.
//
// Every decode GEMM — the score, checksum and value products of a clean
// tick — lands in numeric::gemm_f32_nn (directly, or through the
// sim::gemm_f32_nt pack path).  This bench times the dispatching kernel
// against the always-compiled scalar reference on the decode-shaped
// workload (a query row against a 64-token tile, plus a square prefill-ish
// shape), cross-checks bit-identity on the bench buffers, and emits the
// gemm_simd_speedup CI gauge with --json.  On hosts below the AVX2 tier the
// dispatch IS the scalar path and the speedup reports ~1x — the baseline
// floor is the tripwire for a lost dispatch on CI runners, which all have
// AVX2.

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "numeric/fp16.hpp"
#include "numeric/gemm_simd.hpp"
#include "numeric/simd.hpp"

namespace fn = ftt::numeric;
using fn::Half;

namespace {

/// fp16-valued fp32 operands: the precondition of the kernels' scalar
/// bitwise guarantee, and what the decode paths actually feed them.
std::vector<float> random_fp16_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> f(n);
  for (auto& x : f) x = Half(dist(rng)).to_float();
  return f;
}

struct Case {
  const char* name;
  std::size_t M, K, N;
  int reps;  // inner repetitions per timed pass (small shapes need many)
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::header("GEMM microkernel throughput (scalar vs SIMD dispatch)");
  const char* level = fn::simd_level_name(fn::simd_level());
  std::printf("  simd_level: %s\n", level);

  // decode-tile: one query row vs a sealed 64-token tile (the per-tile
  // score/value shape).  block-64: a full 64-row query block (prefill
  // chunks, speculative blocks).  proj-256: a projection-sized slab.
  const Case cases[] = {{"decode-tile 1x64x64", 1, 64, 64, 4096},
                        {"block 64x64x64", 64, 64, 64, 256},
                        {"proj 64x256x256", 64, 256, 256, 16}};

  std::printf("\n  %-22s %12s %12s %9s\n", "shape", "scalar GF/s",
              "simd GF/s", "speedup");
  bool identical = true;
  double worst_speedup = 1e30;
  std::uint64_t seed = 1;
  for (const Case& c : cases) {
    const auto A = random_fp16_values(c.M * c.K, seed++);
    const auto B = random_fp16_values(c.K * c.N, seed++);
    std::vector<float> c_simd(c.M * c.N, 0.0f), c_ref(c.M * c.N, 0.0f);
    const double t_ref = bench::time_best([&] {
      for (int r = 0; r < c.reps; ++r) {
        fn::gemm_f32_nn_scalar(A.data(), c.M, c.K, B.data(), c.N,
                               c_ref.data(), c.N, false);
      }
    });
    const double t_simd = bench::time_best([&] {
      for (int r = 0; r < c.reps; ++r) {
        fn::gemm_f32_nn(A.data(), c.M, c.K, B.data(), c.N, c_simd.data(),
                        c.N, false);
      }
    });
    identical &= std::memcmp(c_simd.data(), c_ref.data(),
                             c.M * c.N * sizeof(float)) == 0;
    const double flops =
        2.0 * static_cast<double>(c.M * c.K * c.N) * c.reps / 1e9;
    const double speedup = t_ref / t_simd;
    if (speedup < worst_speedup) worst_speedup = speedup;
    std::printf("  %-22s %12.2f %12.2f %8.2fx%s\n", c.name, flops / t_ref,
                flops / t_simd, speedup,
                identical ? "" : "  MISMATCH vs scalar!");
  }

  // --- fp16-operand tier: halve the B-operand memory stream --------------
  // The decode hot loop streams sealed KV payload (Half) through
  // gemm_f32_nnh instead of widening it to an fp32 image first.  On
  // streaming shapes — a query row against a B far larger than
  // cache, the long-context decode regime — the kernel is bandwidth-bound
  // and reading half-width B approaches a 2x win.  The gauge is the WORST
  // fp16-vs-fp32-dispatch speedup across the streaming shapes, gated at
  // 1.3 by the baseline: losing the fused tier (falling back to
  // widen-then-gemm, or a kernel regression that re-inflates the stream)
  // drops it to ~1x.  The cache-resident tile shape is printed for
  // reference but not gauged — at L1 residency the win is compute-bound
  // and hardware-dependent.
  std::printf("\n  fp16-operand format\n");
  const Case hcases[] = {{"h-decode 1x8192x512", 1, 8192, 512, 4},
                         {"h-decode 1x16384x512", 1, 16384, 512, 2},
                         {"h-tile 1x64x64 (info)", 1, 64, 64, 4096}};
  constexpr std::size_t kGatedHCases = 2;  // the streaming shapes above
  std::printf("  %-22s %12s %12s %9s\n", "shape", "fp32-B GF/s",
              "fp16-B GF/s", "speedup");
  bool h_identical = true;
  double fp16_speedup = 1e30;
  for (std::size_t ci = 0; ci < std::size(hcases); ++ci) {
    const Case& c = hcases[ci];
    const auto A = random_fp16_values(c.M * c.K, seed++);
    const auto Bf = random_fp16_values(c.K * c.N, seed++);
    std::vector<Half> Bh(c.K * c.N);
    for (std::size_t i = 0; i < Bh.size(); ++i) Bh[i] = Half(Bf[i]);
    std::vector<float> c_h(c.M * c.N, 0.0f), c_f(c.M * c.N, 0.0f);
    const double t_f32 = bench::time_best([&] {
      for (int r = 0; r < c.reps; ++r) {
        fn::gemm_f32_nn(A.data(), c.M, c.K, Bf.data(), c.N, c_f.data(), c.N,
                        false);
      }
    });
    const double t_f16 = bench::time_best([&] {
      for (int r = 0; r < c.reps; ++r) {
        fn::gemm_f32_nnh(A.data(), c.M, c.K, Bh.data(), c.N, c_h.data(), c.N,
                         false);
      }
    });
    // Bf holds fp16-valued fp32, so widening Bh reproduces it exactly and
    // both kernels must agree bitwise.
    h_identical &= std::memcmp(c_h.data(), c_f.data(),
                               c.M * c.N * sizeof(float)) == 0;
    const double flops =
        2.0 * static_cast<double>(c.M * c.K * c.N) * c.reps / 1e9;
    const double speedup = t_f32 / t_f16;
    if (ci < kGatedHCases && speedup < fp16_speedup) fp16_speedup = speedup;
    std::printf("  %-22s %12.2f %12.2f %8.2fx%s\n", c.name, flops / t_f32,
                flops / t_f16, speedup,
                h_identical ? "" : "  MISMATCH vs fp32 dispatch!");
  }
  identical &= h_identical;

  bool json_ok = true;
  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.begin_object();
    w.key("gemm");
    w.begin_object();
    w.kv("simd_level", std::string(level));
    w.kv("bit_identical_to_scalar", identical);
    w.end_object();
    // Both gauges are the WORST speedup across their shapes: a lost
    // dispatch (or a microkernel regressed below its comparison path on
    // any shape) drops the gauge to ~1x and trips the baseline floor on
    // AVX2-capable CI runners.
    w.key("gauges");
    w.begin_object();
    w.kv("gemm_simd_speedup", worst_speedup);
    w.kv("fp16_gemm_speedup", fp16_speedup);
    w.end_object();
    w.end_object();
    json_ok = w.write_file(json_path);
  }
  // Bit-identity is the hard invariant here, exactly as in the test suite
  // (tests/test_gemm_simd.cpp carries the exhaustive shapes).
  return (identical && json_ok) ? 0 : 1;
}
