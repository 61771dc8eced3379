#!/usr/bin/env bash
# Tier-1 verification, exactly as the CI tier1 job runs it — one script so
# local runs and CI cannot drift: configure (warnings-as-errors), build,
# ctest, then smoke-run the serving demo, the decode-throughput bench and
# the parity digest, and compare the digest against side builds of the
# other SIMD tiers.
#
# Knobs (all optional, same names CI uses):
#   BUILD_DIR   - build tree (default: build-tier1); the digest step builds
#                 parity_digest into $BUILD_DIR-digest-<tier> side trees
#   BUILD_TYPE  - CMake build type (default: Release)
#   FTT_SIMD    - ON (default) or OFF: compile the AVX2-tier SIMD kernels
#                 (the CI matrix runs one OFF leg so the scalar fallback
#                 stays tested)
#   OMP_MATRIX  - space-separated OpenMP thread counts (default: "2"); the
#                 thread-sensitive suites (OMP invariance, the serving and
#                 recovery suites whose engine ticks run the OpenMP
#                 attention batch, and the EFTA fault suite, whose injected
#                 runs use the team) are re-run once per count, pinning
#                 bit-reproducibility against whatever team size the host
#                 would pick
#   CC/CXX      - compiler (default: toolchain default)
#   CMAKE_CXX_COMPILER_LAUNCHER - e.g. ccache (forwarded when set)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tier1}
BUILD_TYPE=${BUILD_TYPE:-Release}
FTT_SIMD=${FTT_SIMD:-ON}
OMP_MATRIX=${OMP_MATRIX:-2}

CONFIGURE_ARGS=(-B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE"
                -DFTT_WERROR=ON -DFTT_SIMD="$FTT_SIMD")
if command -v ninja > /dev/null 2>&1; then
  CONFIGURE_ARGS+=(-G Ninja)
fi
if [[ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]]; then
  CONFIGURE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER")
fi

echo "== configure ($BUILD_TYPE, -Wall -Wextra -Werror, FTT_SIMD=$FTT_SIMD) =="
cmake "${CONFIGURE_ARGS[@]}"

echo "== build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Thread-count invariance: the parallel-serving suites must produce
# bit-identical results whatever OpenMP team size the environment forces.
for omp in $OMP_MATRIX; do
  echo "== ctest (OMP_NUM_THREADS=$omp: invariance/serve/recovery/efta faults) =="
  OMP_NUM_THREADS="$omp" ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'test_omp_invariance|test_serve|test_recovery|test_efta_faults'
done

# Int8-KV leg: re-run the serving-stack suites with the process-wide
# sealed-tile default flipped to the quantized format (FTT_KV_QUANT=1 →
# serve::default_tile_format() == kI8).  Engines, paged caches and the
# recovery ladder then exercise the int8 tile format end to end — seal-time
# quantization, exact integer scrubbing, fused dequantizing GEMMs — so both
# formats stay green in the same matrix.  Suites that pin format-explicit
# behavior pass their formats explicitly and are unaffected by the default.
echo "== ctest (FTT_KV_QUANT=1: serve/tile-pool/recovery/int8 suites) =="
FTT_KV_QUANT=1 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'test_serve|test_tile_pool|test_recovery|test_int8_quant|test_spec|test_scheduler'

# Chaos soak: the recovery ladder's randomized acceptance sweep (seeded,
# seconds-scale).  FTT_CHAOS_SOAK=1 un-skips the heavier soak test on top
# of the chaos test the plain ctest pass already ran: more seeds, longer
# fleets.  Every run the ladder marks fully recovered must end
# bitwise-equal to its clean twin.
echo "== chaos soak (FTT_CHAOS_SOAK=1: test_recovery chaos sweep) =="
FTT_CHAOS_SOAK=1 "$BUILD_DIR"/test_recovery --gtest_filter='Recovery.Chaos*'

echo "== smoke: serving demo + decode throughput bench + parity digest =="
"$BUILD_DIR"/serving
"$BUILD_DIR"/bench_serve_throughput
# One digest line per protected-kernel family; compare them across a
# change that must not move a bit (see bench/parity_digest.cpp).
main_digest=$("$BUILD_DIR"/parity_digest)
echo "$main_digest"

# No bit may depend on the SIMD tier.  Build parity_digest alone into a
# side tree for each tier this build is not: the scalar references
# (FTT_SIMD=OFF), the AVX2 tier (FTT_SIMD=ON), and the AVX-512 tier when
# the CPU lists avx512f (the only step that executes that tier).  Same
# compiler and build type; every tree must print the main build's lines.
side_tiers=()
if [[ "$FTT_SIMD" == "OFF" ]]; then
  side_tiers+=("avx2:-DFTT_SIMD=ON")
else
  side_tiers+=("scalar:-DFTT_SIMD=OFF")
fi
if grep -qw avx512f /proc/cpuinfo 2> /dev/null; then
  side_tiers+=("avx512:-DFTT_SIMD=ON -DFTT_SIMD_AVX512=ON")
fi
main_cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")
for entry in "${side_tiers[@]}"; do
  tier=${entry%%:*}
  read -r -a tier_args <<< "${entry#*:}"
  side_dir="$BUILD_DIR-digest-$tier"
  echo "== parity digest, $tier tier ($side_dir) =="
  side_args=(-B "$side_dir" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE"
             -DCMAKE_CXX_COMPILER="$main_cxx" -DFTT_WERROR=ON
             -DFTT_BUILD_TESTS=OFF -DFTT_BUILD_EXAMPLES=OFF "${tier_args[@]}")
  if command -v ninja > /dev/null 2>&1; then
    side_args+=(-G Ninja)
  fi
  if [[ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]]; then
    side_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER")
  fi
  cmake "${side_args[@]}" > /dev/null
  cmake --build "$side_dir" -j "$(nproc)" --target parity_digest
  side_digest=$("$side_dir"/parity_digest)
  echo "$side_digest"
  if [[ "$side_digest" != "$main_digest" ]]; then
    echo "parity digest of the $tier tier differs from the main build" >&2
    exit 1
  fi
done

echo "tier1 OK"
