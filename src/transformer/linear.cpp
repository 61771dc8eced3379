#include "transformer/linear.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

#include "numeric/fp16.hpp"
#include "sim/mma.hpp"

namespace ftt::transformer {

using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::uint64_t seed, bool bias) {
  if (out_features % abft::StridedAbft::kTile != 0) {
    throw std::invalid_argument(
        "Linear: out_features must be a multiple of the 64-row ABFT tile");
  }
  // Scaled-normal init, typical of trained transformer projections, drawn
  // in out x in order and then sealed k-major.
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(
      0.0f, 1.0f / std::sqrt(static_cast<float>(in_features)));
  MatrixH w(out_features, in_features);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = Half(dist(rng));
  w_ = abft::StridedAbft::seal(w, abft::StridedAbft::kDefaultStride);
  if (bias) {
    bias_.assign(out_features, 0.0f);
    std::normal_distribution<float> bdist(0.0f, 0.02f);
    for (auto& b : bias_) b = bdist(rng);
  }
}

abft::Report Linear::forward(const MatrixF& x, MatrixF& y,
                             LinearProtect protect, fault::FaultInjector* inj,
                             float rel_threshold) const {
  const std::size_t in = in_features(), out = out_features();
  if (x.cols() != in) throw std::invalid_argument("Linear: in_features");
  const std::size_t M = x.rows();
  if (y.rows() != M || y.cols() != out) y = MatrixF(M, out);
  if (out == 0) return {};  // zero-width layer: nothing to compute

  // Round activations to fp16 once (the tensor-core operand), held widened
  // for the fp32-accumulate GEMMs.  thread_local scratch: engines on
  // different threads may run their linears at once.
  thread_local std::vector<Half> xh;
  thread_local std::vector<float> xa;
  if (xa.size() < x.size()) {
    xh.resize(x.size());
    xa.resize(x.size());
  }
  numeric::floats_to_halves(x.data(), xh.data(), x.size());
  numeric::halves_to_floats(xh.data(), xa.data(), x.size());

  abft::Report rep;
  if (protect == LinearProtect::kStridedAbft) {
    rep = abft::StridedAbft::apply(xa.data(), M, w_, y, rel_threshold, inj,
                                   fault::Site::kLinear);
  } else {
    sim::gemm_f32_nnh(xa.data(), M, in, w_.image.data(), out, y);
    if (inj) {
      for (std::size_t i = 0; i < y.size(); ++i) {
        y.data()[i] = inj->corrupt(fault::Site::kLinear, y.data()[i]);
      }
    }
  }

  if (!bias_.empty()) {
    for (std::size_t r = 0; r < M; ++r) {
      float* row = &y(r, 0);
      for (std::size_t c = 0; c < out; ++c) row[c] += bias_[c];
    }
  }
  return rep;
}

sim::CostBreakdown Linear::costs(double m) const {
  sim::CostBreakdown b;
  const auto in = static_cast<double>(in_features());
  const auto out = static_cast<double>(out_features());
  b[sim::Phase::kGemm].tc_flops = 2.0 * m * out * in;
  b[sim::Phase::kMemory].hbm_bytes = (m * in + m * out + in * out) * 2.0;
  b[sim::Phase::kRescale].fp32_flops = m * out;  // bias
  return b;
}

sim::CostBreakdown Linear::protection_costs(double m) const {
  return abft::StridedAbft::costs(m, static_cast<double>(out_features()),
                                  static_cast<double>(in_features()),
                                  abft::StridedAbft::kDefaultStride);
}

}  // namespace ftt::transformer
