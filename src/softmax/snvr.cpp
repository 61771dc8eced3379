#include "softmax/snvr.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "numeric/simd.hpp"

namespace ftt::softmax {

namespace {

constexpr double kLn2 = 0.69314718055994530942;
// Fold the running significand product back into [1, 2) every 512 lanes:
// 512 factors in [1, 2) stay below 2^512, far inside double range.
constexpr std::size_t kFold = 512;

}  // namespace

double snvr_lower_bound(std::span<const float> block_maxes, float global_max) {
  double s = 0.0;
  for (const float m : block_maxes) {
    s += std::exp(static_cast<double>(m) - static_cast<double>(global_max));
  }
  return s;
}

SnvrRangeResult snvr_check_rowsum(float rowsum,
                                  std::span<const float> block_maxes,
                                  float global_max, std::size_t seq_len,
                                  float slack) {
  const double lower = snvr_lower_bound(block_maxes, global_max);
  const double upper = static_cast<double>(seq_len) * (1.0 + slack);
  SnvrRangeResult res;
  if (!(rowsum >= lower * (1.0 - slack)) || !(rowsum <= upper) ||
      !std::isfinite(rowsum)) {
    res.violated = true;
    res.corrected_value = static_cast<float>(lower);
  } else {
    res.corrected_value = rowsum;
  }
  return res;
}

std::optional<double> log_product(const float* p, std::size_t stride,
                                  std::size_t n) noexcept {
  double mprod = 1.0, sub = 0.0;
  long esum = 0;
  for (std::size_t l = 0; l < n; ++l) {
    const auto bits = std::bit_cast<std::uint32_t>(p[l * stride]);
    const std::uint32_t e = bits >> 23;  // sign bit set -> e >= 256
    if (e - 1u >= 0xFEu) {
      // Zero, subnormal, negative, infinite or NaN.
      if (bits == 0u || e >= 0xFFu) return std::nullopt;
      sub += std::log(static_cast<double>(p[l * stride]));
      continue;
    }
    mprod *= std::bit_cast<float>((bits & 0x7FFFFFu) | 0x3F800000u);
    esum += static_cast<long>(e) - 127;
    if ((l + 1) % kFold == 0) {
      int fe = 0;
      mprod = std::frexp(mprod, &fe);
      esum += fe;
    }
  }
  return std::log(mprod) + static_cast<double>(esum) * kLn2 + sub;
}

namespace {

#ifdef FTT_SIMD_X86

/// Biased exponent field of positive doubles, as exact doubles: OR the
/// field into the significand of 2^52 and subtract 2^52.
FTT_TARGET_AVX2 inline __m256d exponent_field(__m256d x) noexcept {
  const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
  const __m256i e = _mm256_srli_epi64(_mm256_castpd_si256(x), 52);
  return _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(e, _mm256_castpd_si256(two52))),
      two52);
}

/// x's significand with the exponent field replaced by `field`.
FTT_TARGET_AVX2 inline __m256d with_exponent(__m256d x,
                                              long long field) noexcept {
  const __m256i mant = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL);
  return _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(_mm256_castpd_si256(x), mant),
                      _mm256_set1_epi64x(field << 52)));
}

/// a + b·z in lanes.
FTT_TARGET_AVX2 inline __m256d poly_pair(double a, double b,
                                         __m256d z) noexcept {
  return _mm256_add_pd(_mm256_set1_pd(a), _mm256_mul_pd(_mm256_set1_pd(b), z));
}

/// ln x in lanes for positive normal x: x = 2^k·f with f in
/// [√2/2, √2], ln f = 2·atanh(t) with t = (f − 1)/(f + 1), |t| ≤ 0.1716,
/// summed through t^19 (truncation < 1e-17).  Absolute error ≤ 1.5e-13
/// for |ln x| ≤ 710 — dominated by k·ln2's rounding — against the
/// screen's 2^-40 budget for the gap to std::log.
FTT_TARGET_AVX2 inline __m256d log_pd(__m256d x) noexcept {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d k = _mm256_sub_pd(exponent_field(x), _mm256_set1_pd(1023.0));
  __m256d f = with_exponent(x, 1023);  // [1, 2)
  const __m256d big =
      _mm256_cmp_pd(f, _mm256_set1_pd(1.4142135623730951), _CMP_GT_OQ);
  f = _mm256_blendv_pd(f, _mm256_mul_pd(f, _mm256_set1_pd(0.5)), big);
  k = _mm256_add_pd(k, _mm256_and_pd(big, one));
  const __m256d t =
      _mm256_div_pd(_mm256_sub_pd(f, one), _mm256_add_pd(f, one));
  const __m256d z = _mm256_mul_pd(t, t);
  // 1 + z/3 + z^2/5 + ... + z^9/19 in Estrin form (pairs, then powers of
  // z^2): every term is positive, so the order only shortens the chain.
  const __m256d z2 = _mm256_mul_pd(z, z), z4 = _mm256_mul_pd(z2, z2);
  const __m256d lo =
      _mm256_add_pd(poly_pair(1.0, 1.0 / 3.0, z),
                    _mm256_mul_pd(z2, poly_pair(1.0 / 5.0, 1.0 / 7.0, z)));
  const __m256d mid =
      _mm256_add_pd(poly_pair(1.0 / 9.0, 1.0 / 11.0, z),
                    _mm256_mul_pd(z2, poly_pair(1.0 / 13.0, 1.0 / 15.0, z)));
  const __m256d hi = _mm256_mul_pd(z4, poly_pair(1.0 / 17.0, 1.0 / 19.0, z));
  const __m256d q =
      _mm256_add_pd(lo, _mm256_mul_pd(z4, _mm256_add_pd(mid, hi)));
  const __m256d lnf = _mm256_mul_pd(_mm256_add_pd(t, t), q);
  return _mm256_add_pd(_mm256_mul_pd(k, _mm256_set1_pd(kLn2)), lnf);
}

/// Bit c (c < 4) set when class c passes: lhs = ln(mprod) + esum·ln2 —
/// log_product's closing expression, with the lane log — lies within thr of
/// rhs by more than the bound on its distance from the scalar lhs: 2^-40
/// for the two logs (each within 1.5e-13 of ln for |ln| <= 710), plus 8u
/// per magnitude for the rounding of the sums and of this comparison.
FTT_TARGET_AVX2 inline std::uint64_t decide4(__m256d mprod, __m256d esum,
                                             const double* rhs,
                                             double thr) noexcept {
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d lg = log_pd(mprod);
  const __m256d big_e = _mm256_mul_pd(esum, _mm256_set1_pd(kLn2));
  const __m256d r = _mm256_loadu_pd(rhs);
  const __m256d d = _mm256_sub_pd(_mm256_add_pd(lg, big_e), r);
  const __m256d vthr = _mm256_set1_pd(thr);
  const __m256d mag = _mm256_add_pd(
      _mm256_add_pd(_mm256_and_pd(lg, absmask), _mm256_and_pd(big_e, absmask)),
      _mm256_add_pd(_mm256_and_pd(r, absmask), vthr));
  const __m256d margin = _mm256_add_pd(
      _mm256_set1_pd(0x1p-40), _mm256_mul_pd(mag, _mm256_set1_pd(0x1p-50)));
  const __m256d ok = _mm256_cmp_pd(
      _mm256_add_pd(_mm256_and_pd(d, absmask), margin), vthr, _CMP_LE_OQ);
  return static_cast<std::uint64_t>(_mm256_movemask_pd(ok));
}

/// log_product's fold in lanes: frexp(mprod) = m·2^fe with m in [0.5, 1)
/// and fe = field − 1022; fe adds into `efold`.
FTT_TARGET_AVX2 inline void fold(__m256d& mprod, __m256d& efold) noexcept {
  efold = _mm256_add_pd(
      efold, _mm256_sub_pd(exponent_field(mprod), _mm256_set1_pd(1022.0)));
  mprod = with_exponent(mprod, 1022);
}

/// Σ_l (e_l − 127) + folds, from the lanes' biased-exponent sum: integers
/// below 2^53 throughout, so exactly log_product's double(esum).
FTT_TARGET_AVX2 inline __m256d exponent_sum(__m128i biased, std::size_t n,
                                            __m256d efold) noexcept {
  return _mm256_add_pd(
      _mm256_sub_pd(_mm256_cvtepi32_pd(biased),
                    _mm256_set1_pd(127.0 * static_cast<double>(n))),
      efold);
}

/// Eight classes (lanes of one l, 32 bytes) of log_product_screen: two
/// significand-product chains in double, the biased exponents summed in
/// int32 lanes, their min/max kept to spot special lanes.  Returns false
/// when any lane is zero, subnormal, negative or non-finite.
FTT_TARGET_AVX2 bool screen8(const float* p, std::size_t s, std::size_t n,
                             const double* rhs, double thr,
                             std::uint64_t& pass) noexcept {
  const __m256i mmask = _mm256_set1_epi32(0x7FFFFF);
  const __m256i one_bits = _mm256_set1_epi32(0x3F800000);
  __m256d lo = _mm256_set1_pd(1.0), hi = lo;
  __m256d flo = _mm256_setzero_pd(), fhi = flo;
  __m256i esum = _mm256_setzero_si256(), emax = esum;
  __m256i emin = _mm256_set1_epi32(1);
  for (std::size_t l = 0; l < n; ++l) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + l * s));
    const __m256i e = _mm256_srli_epi32(bits, 23);  // sign set -> e >= 256
    emin = _mm256_min_epu32(emin, e);
    emax = _mm256_max_epu32(emax, e);
    esum = _mm256_add_epi32(esum, e);
    const __m256 mant = _mm256_castsi256_ps(
        _mm256_or_si256(_mm256_and_si256(bits, mmask), one_bits));
    lo = _mm256_mul_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(mant)));
    hi = _mm256_mul_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps(mant, 1)));
    if ((l + 1) % kFold == 0) {
      fold(lo, flo);
      fold(hi, fhi);
    }
  }
  const __m256i special =
      _mm256_or_si256(_mm256_cmpeq_epi32(emin, _mm256_setzero_si256()),
                      _mm256_cmpgt_epi32(emax, _mm256_set1_epi32(254)));
  if (!_mm256_testz_si256(special, special)) return false;
  pass |= decide4(lo, exponent_sum(_mm256_castsi256_si128(esum), n, flo),
                  rhs, thr) |
          decide4(hi, exponent_sum(_mm256_extracti128_si256(esum, 1), n, fhi),
                  rhs + 4, thr)
              << 4;
  return true;
}

/// screen8 over four classes (16 bytes per l): the s % 8 == 4 remainder.
FTT_TARGET_AVX2 bool screen4(const float* p, std::size_t s, std::size_t n,
                             const double* rhs, double thr,
                             std::uint64_t& pass) noexcept {
  const __m128i mmask = _mm_set1_epi32(0x7FFFFF);
  const __m128i one_bits = _mm_set1_epi32(0x3F800000);
  __m256d mprod = _mm256_set1_pd(1.0), efold = _mm256_setzero_pd();
  __m128i esum = _mm_setzero_si128(), emax = esum;
  __m128i emin = _mm_set1_epi32(1);
  for (std::size_t l = 0; l < n; ++l) {
    const __m128i bits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + l * s));
    const __m128i e = _mm_srli_epi32(bits, 23);
    emin = _mm_min_epu32(emin, e);
    emax = _mm_max_epu32(emax, e);
    esum = _mm_add_epi32(esum, e);
    const __m128 mant =
        _mm_castsi128_ps(_mm_or_si128(_mm_and_si128(bits, mmask), one_bits));
    mprod = _mm256_mul_pd(mprod, _mm256_cvtps_pd(mant));
    if ((l + 1) % kFold == 0) fold(mprod, efold);
  }
  const __m128i special =
      _mm_or_si128(_mm_cmpeq_epi32(emin, _mm_setzero_si128()),
                   _mm_cmpgt_epi32(emax, _mm_set1_epi32(254)));
  if (!_mm_testz_si128(special, special)) return false;
  pass |= decide4(mprod, exponent_sum(esum, n, efold), rhs, thr);
  return true;
}

#endif  // FTT_SIMD_X86

}  // namespace

std::uint64_t log_product_screen(const float* p, std::size_t s,
                                 std::size_t n, const double* rhs,
                                 double thr) noexcept {
#ifdef FTT_SIMD_X86
  // n bound: the int32 biased-exponent sums stay below 2^31.
  if (s % 4 != 0 || s > 64 || n >= (std::size_t{1} << 22) ||
      numeric::simd_level() < numeric::SimdLevel::kAvx2) {
    return 0;
  }
  std::uint64_t pass = 0, bits = 0;
  std::size_t g = 0;
  for (; g + 8 <= s; g += 8) {
    bits = 0;
    if (!screen8(p + g, s, n, rhs + g, thr, bits)) return 0;
    pass |= bits << g;
  }
  if (g < s) {
    bits = 0;
    if (!screen4(p + g, s, n, rhs + g, thr, bits)) return 0;
    pass |= bits << g;
  }
  return pass;
#else
  (void)p, (void)s, (void)n, (void)rhs, (void)thr;
  return 0;
#endif
}

}  // namespace ftt::softmax
