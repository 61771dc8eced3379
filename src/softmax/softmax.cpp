#include "softmax/softmax.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "numeric/simd.hpp"

namespace ftt::softmax {

using tensor::MatrixF;

namespace {

float row_max_scalar(const float* x, std::size_t n) noexcept {
  float m = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

// ---- expf, glibc's algorithm (sysdeps/ieee754/flt-32/e_expf.c) ----
// exp(x) = 2^(k/32) * 2^(r/32) with k = round(x * 32/ln2): a 32-entry
// table of 2^(i/32) (each entry minus i << 47, so adding k << 47 puts k/32
// into the exponent field) times a degree-3 polynomial in r, all in
// double.  The table, 32/ln2 and the polynomial coefficients are the bytes
// of __exp2f_data in libm's .rodata; the FMA contractions are where the
// x86-64 FMA build of libm (__expf_fma) fuses, so the result is that
// build's bits exactly.
constexpr long long kExpTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // 32 / ln 2
constexpr double kShift = 0x1.8p52;  // z + kShift rounds z to an integer
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;
// The polynomial path covers [kExpLo, kExpHi]; everything else (and NaN)
// is one of expf's special cases.
constexpr float kExpHi = 0x1.62e42ep6f;   // above: exp overflows to +inf
constexpr float kExpLo = -0x1.9d1d9ep6f;  // below: under 2^-149
constexpr float kExpZero = -0x1.9fe368p6f;  // below: under 2^-150, so +0

/// expf(x), special cases first in libm's order.  Always inlined, so a
/// caller compiled with FMA gets the fused instructions rather than libm's
/// fma() calls.
__attribute__((always_inline)) inline float expf_ref(float x) noexcept {
  const std::uint32_t abstop = (std::bit_cast<std::uint32_t>(x) >> 20) & 0x7ff;
  if (abstop >= 0x42b) [[unlikely]] {  // |x| >= 88, inf or NaN
    if (x == -std::numeric_limits<float>::infinity()) return 0.0f;
    if (abstop >= 0x7f8) return x + x;  // NaN (quieted) or +inf
    if (x > kExpHi) return std::numeric_limits<float>::infinity();
    if (x < kExpZero) return 0.0f;
    if (x < kExpLo) return 0x1p-149f;  // libm's 0x1.4p-75f * 0x1.4p-75f
  }
  const double xd = x;
  const double z = std::fma(xd, kInvLn2N, kShift);
  const auto ki = std::bit_cast<std::uint64_t>(z);
  const double kd = z - kShift;
  const double r = std::fma(kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(
      static_cast<std::uint64_t>(kExpTab[ki % 32]) + (ki << 47));
  const double y =
      std::fma(std::fma(r, kC0, kC1), r * r, std::fma(r, kC2, 1.0));
  return static_cast<float>(y * s);
}

#ifdef FTT_SIMD_X86

/// Eight interleaved serial chains: vmaxps(x, acc) is (x > acc) ? x : acc,
/// exactly std::max(acc, x) per lane.
FTT_TARGET_AVX2 float row_max_avx2(const float* x, std::size_t n) noexcept {
  __m256 acc = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_max_ps(_mm256_loadu_ps(x + i), acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float m = row_max_scalar(lanes, 8);
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

/// expf_ref compiled with FMA: the single-value entry.
FTT_TARGET_AVX2 float expf_fma(float x) noexcept {
  return expf_ref(x);
}

/// expf_ref's polynomial path on four lanes, op for op in __m256d.
FTT_TARGET_AVX2 inline __m128 exp4_avx2(__m128 x) noexcept {
  const __m256d inv = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kShift);
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d z = _mm256_fmadd_pd(xd, inv, shift);
  const __m256i ki = _mm256_castpd_si256(z);
  const __m256d r = _mm256_fmsub_pd(inv, xd, _mm256_sub_pd(z, shift));
  const __m256i t = _mm256_add_epi64(
      _mm256_i64gather_epi64(kExpTab,
                             _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8),
      _mm256_slli_epi64(ki, 47));
  const __m256d y = _mm256_fmadd_pd(
      _mm256_fmadd_pd(r, _mm256_set1_pd(kC0), _mm256_set1_pd(kC1)),
      _mm256_mul_pd(r, r),
      _mm256_fmadd_pd(r, _mm256_set1_pd(kC2), _mm256_set1_pd(1.0)));
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, _mm256_castsi256_pd(t)));
}

/// out[0..8) = exp(x[0..8) - m); `out` may equal `x`.  Lanes off the
/// polynomial path are recomputed by the scalar reference.
FTT_TARGET_AVX2 inline void exp8_avx2(const float* x, __m256 m,
                                      float* out) noexcept {
  const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x), m);
  const __m256 in_range =
      _mm256_and_ps(_mm256_cmp_ps(d, _mm256_set1_ps(kExpLo), _CMP_GE_OQ),
                    _mm256_cmp_ps(d, _mm256_set1_ps(kExpHi), _CMP_LE_OQ));
  _mm256_storeu_ps(out,
                   _mm256_set_m128(exp4_avx2(_mm256_extractf128_ps(d, 1)),
                                   exp4_avx2(_mm256_castps256_ps128(d))));
  auto special = static_cast<unsigned>(~_mm256_movemask_ps(in_range)) & 0xffu;
  if (special != 0) [[unlikely]] {
    alignas(32) float dl[8];
    _mm256_store_ps(dl, d);
    for (; special != 0; special &= special - 1) {
      const int i = __builtin_ctz(special);
      out[i] = expf_ref(dl[i]);
    }
  }
}

/// Full 8-lane groups, then the ragged tail padded with m (exp(0) lanes)
/// through the same lanes.
FTT_TARGET_AVX2 void exp_shifted_avx2(const float* x, float m, float* out,
                                     std::size_t n) noexcept {
  const __m256 mv = _mm256_set1_ps(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) exp8_avx2(x + i, mv, out + i);
  if (i < n) {
    alignas(32) float buf[8];
    std::fill_n(buf, 8, m);
    std::copy(x + i, x + n, buf);
    exp8_avx2(buf, mv, buf);
    std::copy(buf, buf + (n - i), out + i);
  }
}

#endif  // FTT_SIMD_X86

/// One softmax evaluation of `src` into `dst` with fault hooks.  The EXP
/// hooks fire after the row's bulk exp, per element in column order.
void eval_softmax(const MatrixF& src, MatrixF& dst, fault::FaultInjector* inj) {
  const std::size_t R = src.rows(), C = src.cols();
  for (std::size_t r = 0; r < R; ++r) {
    const float* srow = src.data() + r * C;
    float* drow = dst.data() + r * C;
    const float m =
        fault::corrupt(inj, fault::Site::kReduceMax, row_max(srow, C));

    exp_shifted(srow, m, drow, C);
    float sum = 0.0f;
    for (std::size_t c = 0; c < C; ++c) {
      drow[c] = fault::corrupt(inj, fault::Site::kExp, drow[c]);
      sum += drow[c];
    }
    sum = fault::corrupt(inj, fault::Site::kReduceSum, sum);
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < C; ++c) drow[c] *= inv;
  }
}

float max_abs(const MatrixF& a, const MatrixF& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

bool rowsums_near_one(const MatrixF& p, float eps) {
  for (std::size_t r = 0; r < p.rows(); ++r) {
    float s = 0.0f;
    for (std::size_t c = 0; c < p.cols(); ++c) s += p(r, c);
    if (std::fabs(s - 1.0f) > eps) return false;
  }
  return true;
}

}  // namespace

float row_max(const float* x, std::size_t n) noexcept {
#ifdef FTT_SIMD_X86
  if (n >= 8 && numeric::simd_level() >= numeric::SimdLevel::kAvx2) {
    const float m = row_max_avx2(x, n);
    if (m != 0.0f) return m;
  }
#endif
  return row_max_scalar(x, n);
}

void exp_shifted_scalar(const float* x, float m, float* out,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_shifted(x[i], m);
}

float exp_shifted(float x, float m) noexcept {
#ifdef FTT_SIMD_X86
  if (numeric::simd_level() >= numeric::SimdLevel::kAvx2) {
    return expf_fma(x - m);
  }
#endif
  return expf_ref(x - m);
}

void exp_shifted(const float* x, float m, float* out, std::size_t n) noexcept {
#ifdef FTT_SIMD_X86
  if (numeric::simd_level() >= numeric::SimdLevel::kAvx2) {
    exp_shifted_avx2(x, m, out, n);
    return;
  }
#endif
  exp_shifted_scalar(x, m, out, n);
}

void row_softmax(MatrixF& S, fault::FaultInjector* inj) {
  MatrixF out(S.rows(), S.cols());
  eval_softmax(S, out, inj);
  S = out;
}

DmrResult dmr_row_softmax(MatrixF& S, float eps, fault::FaultInjector* inj,
                          std::size_t max_rounds) {
  DmrResult res;
  MatrixF prev(S.rows(), S.cols());
  MatrixF cur(S.rows(), S.cols());
  eval_softmax(S, prev, inj);
  for (std::size_t round = 1; round < max_rounds; ++round) {
    eval_softmax(S, cur, inj);
    res.recomputes = round;  // evaluations beyond the first
    if (max_abs(cur, prev) < eps && rowsums_near_one(cur, eps)) {
      res.converged = true;
      S = cur;
      return res;
    }
    std::swap(cur, prev);
  }
  // Never converged within budget: keep the last evaluation.
  S = prev;
  return res;
}

sim::CostBreakdown softmax_costs(double rows, double cols) {
  sim::CostBreakdown b;
  auto& sm = b[sim::Phase::kSoftmax];
  sm.fp32_flops = 3.0 * rows * cols;  // max-compares, subtracts, sum-adds
  sm.sfu_ops = rows * cols;           // exp
  b[sim::Phase::kRescale].fp32_flops = rows * cols;  // final 1/sum scaling
  return b;
}

sim::CostBreakdown dmr_overhead_costs(double rows, double cols) {
  sim::CostBreakdown b;
  // One full replica evaluation...
  const sim::CostBreakdown replica = softmax_costs(rows, cols);
  b[sim::Phase::kDmr] = replica.total();
  // ...plus the elementwise agreement check and the rowsum identity.
  b[sim::Phase::kDmr].fp32_flops += 2.0 * rows * cols;
  return b;
}

}  // namespace ftt::softmax
