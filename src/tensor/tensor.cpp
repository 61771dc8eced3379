#include "tensor/tensor.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace ftt::tensor {

void widen(std::span<const numeric::Half> src, MatrixF& dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("widen: size mismatch");
  }
  numeric::halves_to_floats(src.data(), dst.data(), src.size());
}

void widen(MatrixHView src, float* dst) {
  if (src.dense()) {
    numeric::halves_to_floats(src.data, dst, src.rows * src.cols);
    return;
  }
  for (std::size_t r = 0; r < src.rows; ++r) {
    numeric::halves_to_floats(src.data + r * src.stride, dst + r * src.cols,
                              src.cols);
  }
}

MatrixH load_slice(const Tensor4H& T, std::size_t b, std::size_t h,
                   float scale) {
  MatrixH m(T.seq(), T.dim());
  const auto src = T.slice(b, h);
  if (scale == 1.0f) {
    for (std::size_t i = 0; i < src.size(); ++i) m.data()[i] = src[i];
  } else {
    for (std::size_t i = 0; i < src.size(); ++i) {
      m.data()[i] = numeric::Half(src[i].to_float() * scale);
    }
  }
  return m;
}

void narrow(const MatrixF& src, std::span<numeric::Half> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("narrow: size mismatch");
  }
  numeric::floats_to_halves(src.data(), dst.data(), dst.size());
}

float max_abs_diff(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return std::numeric_limits<float>::infinity();
    m = std::max(m, d);
  }
  return m;
}

float max_rel_diff(const MatrixF& a, const MatrixF& b, float eps) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_rel_diff: shape mismatch");
  }
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return std::numeric_limits<float>::infinity();
    m = std::max(m, d / (std::fabs(b.data()[i]) + eps));
  }
  return m;
}

}  // namespace ftt::tensor
