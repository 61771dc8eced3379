#include "softmax/snvr.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

namespace ftt::softmax {

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
  constexpr double kLn2 = 0.69314718055994530942;
  // Fold the running significand product back into [1, 2) every 512 lanes:
  // 512 factors in [1, 2) stay below 2^512, far inside double range.
  constexpr std::size_t kFold = 512;
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

}  // namespace ftt::softmax
