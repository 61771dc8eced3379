#pragma once
// The one SIMD dispatch decision of the library: the compile gate, one
// target attribute per ISA tier, and the runtime probe every dispatching
// entry point reads.
//
// Compile gate.  FTT_SIMD_X86 is defined when the vector bodies compile:
// an FTT_SIMD build (CMake's FTT_SIMD option, ON by default) on x86-64
// under GCC or Clang.  FTT_SIMD_AVX512 (CMake's option of that name) adds
// the AVX-512 bodies inside that gate.  CMake defines both for every
// consumer of the library, so simd_level() below reads the same gate in
// every translation unit.
//
// Target attributes.  Every vector function carries its tier's attribute,
// so no file-wide -m flag is needed and a binary still runs, through the
// scalar references, on a CPU below the tier.  Helpers a tier's body calls
// (the GEMM loaders, say) need the same attribute, or GCC will not inline
// their intrinsics into it.  The AVX2 attribute includes FMA, so the
// compiler may fuse a multiply with an add in any vector function; a
// kernel whose bits rest on unfused operations must say why a fusion
// cannot move them (docs/KERNELS.md).

#if defined(FTT_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FTT_SIMD_X86 1
#define FTT_TARGET_AVX2 __attribute__((target("avx2,fma,f16c")))
#define FTT_TARGET_AVX512 __attribute__((target("avx512f,avx2,fma,f16c")))
#include <immintrin.h>
#endif

namespace ftt::numeric {

/// The vector tier the dispatchers run; each tier implies the ones below.
enum class SimdLevel {
  kScalar,  ///< the scalar references: FTT_SIMD=OFF, or a CPU below kAvx2
  kAvx2,    ///< AVX2 + FMA + F16C
  kAvx512,  ///< AVX-512F, on an FTT_SIMD_AVX512 build, plus kAvx2's bits
};

/// The tier this build runs on this CPU, probed once per process.  Cheap
/// enough to call per row: after the first call it is a guard check and a
/// load.
inline SimdLevel simd_level() noexcept {
  static const SimdLevel level = [] {
#ifdef FTT_SIMD_X86
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma") ||
        !__builtin_cpu_supports("f16c")) {
      return SimdLevel::kScalar;
    }
#ifdef FTT_SIMD_AVX512
    if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
#endif
    return SimdLevel::kAvx2;
#else
    return SimdLevel::kScalar;
#endif
  }();
  return level;
}

/// "scalar", "avx2" or "avx512", for bench output.
inline const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace ftt::numeric
