// fp16 conversion microbenchmark: scalar RTNE vs runtime-dispatched SIMD.
//
// The decode hot path converts every fp16 operand exactly once per tile
// through numeric::halves_to_floats / floats_to_halves, so conversion
// throughput bounds host-side decode speed.  This bench measures both
// directions through the scalar reference path and the dispatching entry
// points (F16C/AVX2 when compiled in and supported), cross-checks the two
// produce bit-identical outputs on the benchmark buffers, and emits the
// CI gauges with --json.  On hosts without F16C the dispatching path is
// the scalar path and the speedups report ~1x.

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "numeric/fp16.hpp"
#include "numeric/simd.hpp"

namespace fn = ftt::numeric;
using fn::Half;

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::header("fp16 conversion throughput (scalar vs SIMD dispatch)");
  const char* level = fn::simd_level_name(fn::simd_level());
  std::printf("  simd_level: %s\n", level);

  constexpr std::size_t kN = 1u << 22;  // 4 Mi elements per pass
  constexpr int kReps = 5;
  std::vector<Half> halves(kN), half_out(kN), half_ref(kN);
  std::vector<float> floats(kN), float_out(kN), float_ref(kN);
  std::mt19937_64 rng(0x5eed);
  std::normal_distribution<float> dist(0.0f, 8.0f);
  for (std::size_t i = 0; i < kN; ++i) {
    floats[i] = dist(rng);
    halves[i] = Half(dist(rng));
  }

  const double mel = static_cast<double>(kN) / 1e6;
  const double widen_scalar = bench::time_best(
      [&] { fn::halves_to_floats_scalar(halves.data(), float_ref.data(), kN); },
      kReps);
  const double widen_simd = bench::time_best(
      [&] { fn::halves_to_floats(halves.data(), float_out.data(), kN); },
      kReps);
  const double narrow_scalar = bench::time_best(
      [&] { fn::floats_to_halves_scalar(floats.data(), half_ref.data(), kN); },
      kReps);
  const double narrow_simd = bench::time_best(
      [&] { fn::floats_to_halves(floats.data(), half_out.data(), kN); },
      kReps);

  // The dispatching path must match the scalar reference bit for bit (the
  // exhaustive guarantee lives in tests/test_fp16.cpp; this is the smoke
  // check on the bench buffers).
  const bool widen_identical =
      std::memcmp(float_out.data(), float_ref.data(), kN * sizeof(float)) == 0;
  const bool narrow_identical =
      std::memcmp(half_out.data(), half_ref.data(), kN * sizeof(Half)) == 0;

  const double widen_mel_s = mel / widen_simd;
  const double narrow_mel_s = mel / narrow_simd;
  const double widen_speedup = widen_scalar / widen_simd;
  const double narrow_speedup = narrow_scalar / narrow_simd;
  std::printf("\n  %-26s %12s %12s %9s\n", "direction", "scalar Mel/s",
              "simd Mel/s", "speedup");
  std::printf("  %-26s %12.1f %12.1f %8.2fx%s\n", "half -> float (widen)",
              mel / widen_scalar, widen_mel_s, widen_speedup,
              widen_identical ? "" : "  MISMATCH vs scalar!");
  std::printf("  %-26s %12.1f %12.1f %8.2fx%s\n", "float -> half (narrow)",
              mel / narrow_scalar, narrow_mel_s, narrow_speedup,
              narrow_identical ? "" : "  MISMATCH vs scalar!");

  bool json_ok = true;
  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.begin_object();
    w.key("fp16");
    w.begin_object();
    w.kv("simd_level", std::string(level));
    w.kv("elements", kN);
    w.kv("widen_scalar_melems_per_s", mel / widen_scalar);
    w.kv("widen_melems_per_s", widen_mel_s);
    w.kv("narrow_scalar_melems_per_s", mel / narrow_scalar);
    w.kv("narrow_melems_per_s", narrow_mel_s);
    w.kv("bit_identical_to_scalar", widen_identical && narrow_identical);
    w.end_object();
    // Absolute floors are machine-dependent, so the baseline keeps them
    // well below a healthy run.  fp16_narrow_speedup is the deliberate
    // tripwire for a lost F16C dispatch: it sits at ~1x on non-F16C hosts
    // (or FTT_SIMD=OFF builds) and WILL fail the baseline floor there —
    // the perf job assumes an F16C-capable runner, which every GitHub
    // ubuntu runner is.
    w.key("gauges");
    w.begin_object();
    w.kv("fp16_widen_melems_per_s", widen_mel_s);
    w.kv("fp16_narrow_melems_per_s", narrow_mel_s);
    // Narrow is the discriminative speedup (scalar narrow does real
    // arithmetic; scalar widen is already a table hit): ~4-8x with F16C.
    w.kv("fp16_narrow_speedup", narrow_speedup);
    w.end_object();
    w.end_object();
    json_ok = w.write_file(json_path);
  }
  return (widen_identical && narrow_identical && json_ok) ? 0 : 1;
}
