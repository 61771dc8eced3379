// Softmax exp benchmark: the AVX2+FMA lanes of softmax::exp_shifted against
// their scalar reference, plus an exhaustive check against the C library.
//
// Every softmax in the library (flash, the EFTA kernels, eval_softmax)
// exponentiates its scores through softmax::exp_shifted: glibc's expf
// algorithm, run in AVX2 double lanes with the same FMA contractions as
// libm's FMA build, and bit-identical to the scalar reference
// exp_shifted_scalar on every input (tests/test_softmax.cpp).  This bench
//   * times both on 64-wide rows of softmax scores (one call per row, the
//     row max as the shift) and emits exp_simd_speedup, the gated tripwire
//     for a lost AVX2+FMA dispatch (~1x without it);
//   * sweeps all 2^32 float inputs with OpenMP, lanes against std::exp, and
//     emits exp_libm_mismatches (informational).  It reads 0 where libm's
//     expf is glibc's (>= 2.27) FMA variant, the bits the kernels had when
//     they called std::exp.  Nonzero means this C library's expf differs:
//     the kernels still agree with themselves, but no longer with libm.
// Exits nonzero only if the lanes and the scalar reference disagree on the
// bench rows.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "softmax/softmax.hpp"

namespace fm = ftt::softmax;

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::header("softmax exp: AVX2 lanes vs scalar reference vs libm");

  constexpr std::size_t kCols = 64, kRows = 4096;
  constexpr int kPasses = 8;
  std::vector<float> scores(kRows * kCols), maxes(kRows);
  std::mt19937_64 rng(0xe4b);
  std::normal_distribution<float> dist(0.0f, 3.0f);
  for (float& s : scores) s = dist(rng);
  for (std::size_t r = 0; r < kRows; ++r) {
    maxes[r] = fm::row_max(scores.data() + r * kCols, kCols);
  }
  std::vector<float> lanes(scores.size()), ref(scores.size()),
      libm(scores.size());

  const auto time_rows = [&](auto&& row_fn) {
    return bench::time_best(
        [&] {
          for (int p = 0; p < kPasses; ++p) {
            for (std::size_t r = 0; r < kRows; ++r) row_fn(r);
          }
        },
        5);
  };
  const double t_lanes = time_rows([&](std::size_t r) {
    fm::exp_shifted(scores.data() + r * kCols, maxes[r],
                    lanes.data() + r * kCols, kCols);
  });
  const double t_ref = time_rows([&](std::size_t r) {
    fm::exp_shifted_scalar(scores.data() + r * kCols, maxes[r],
                           ref.data() + r * kCols, kCols);
  });
  const double t_libm = time_rows([&](std::size_t r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      libm[r * kCols + c] = std::exp(scores[r * kCols + c] - maxes[r]);
    }
  });
  const bool identical =
      std::memcmp(lanes.data(), ref.data(), lanes.size() * sizeof(float)) ==
      0;

  const double per_elem = 1e9 / (static_cast<double>(kPasses) * kRows * kCols);
  const double speedup = t_ref / t_lanes;
  std::printf("  %-30s %8.3f ns/elem\n", "exp_shifted (dispatch)",
              t_lanes * per_elem);
  std::printf("  %-30s %8.3f ns/elem\n", "exp_shifted_scalar (reference)",
              t_ref * per_elem);
  std::printf("  %-30s %8.3f ns/elem\n", "std::exp (libm, info)",
              t_libm * per_elem);
  std::printf("  lanes vs reference: %.2fx%s\n", speedup,
              identical ? "" : "  MISMATCH vs scalar reference!");

  // Exhaustive: every float bit pattern through the lanes (m = 0, so the
  // input is exp's argument exactly) against the C library's expf.
  constexpr std::uint64_t kAll = std::uint64_t{1} << 32;
  constexpr std::size_t kChunk = 4096;
  std::uint64_t mismatches = 0;
  const double sweep_s = bench::time_once([&] {
#pragma omp parallel reduction(+ : mismatches)
    {
      std::vector<float> x(kChunk), e(kChunk);
#pragma omp for schedule(static)
      for (std::uint64_t base = 0; base < kAll; base += kChunk) {
        for (std::size_t i = 0; i < kChunk; ++i) {
          const auto u = static_cast<std::uint32_t>(base + i);
          std::memcpy(&x[i], &u, sizeof(u));
        }
        fm::exp_shifted(x.data(), 0.0f, e.data(), kChunk);
        for (std::size_t i = 0; i < kChunk; ++i) {
          const float want = std::exp(x[i]);
          if (std::memcmp(&want, &e[i], sizeof(float)) != 0) ++mismatches;
        }
      }
    }
  });
  std::printf("  all 2^32 inputs, lanes vs std::exp: %llu mismatches "
              "(%.1f s)\n",
              static_cast<unsigned long long>(mismatches), sweep_s);

  bool json_ok = true;
  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.begin_object();
    w.key("exp");
    w.begin_object();
    w.kv("lanes_ns_per_elem", t_lanes * per_elem);
    w.kv("scalar_ns_per_elem", t_ref * per_elem);
    w.kv("libm_ns_per_elem", t_libm * per_elem);
    w.kv("bit_identical_to_scalar", identical);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    w.kv("exp_simd_speedup", speedup);
    w.kv("exp_libm_mismatches", static_cast<std::size_t>(mismatches));
    w.end_object();
    w.end_object();
    json_ok = w.write_file(json_path);
  }
  return (identical && json_ok) ? 0 : 1;
}
