#include "softmax/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(FTT_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FTT_SIMD_ROWMAX 1
#include <immintrin.h>
#endif

namespace ftt::softmax {

using tensor::MatrixF;

namespace {

float row_max_scalar(const float* x, std::size_t n) noexcept {
  float m = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

#ifdef FTT_SIMD_ROWMAX

bool avx2_active() noexcept {
  static const bool active = __builtin_cpu_supports("avx2");
  return active;
}

/// Eight interleaved serial chains: vmaxps(x, acc) is (x > acc) ? x : acc,
/// exactly std::max(acc, x) per lane.
__attribute__((target("avx2"))) float row_max_avx2(const float* x,
                                                   std::size_t n) noexcept {
  __m256 acc = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_max_ps(_mm256_loadu_ps(x + i), acc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float m = row_max_scalar(lanes, 8);
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

#endif  // FTT_SIMD_ROWMAX

/// One softmax evaluation of `src` into `dst` with fault hooks.
void eval_softmax(const MatrixF& src, MatrixF& dst, fault::FaultInjector* inj) {
  const std::size_t R = src.rows(), C = src.cols();
  for (std::size_t r = 0; r < R; ++r) {
    float m = -std::numeric_limits<float>::infinity();
    for (std::size_t c = 0; c < C; ++c) m = std::max(m, src(r, c));
    m = fault::corrupt(inj, fault::Site::kReduceMax, m);

    float sum = 0.0f;
    for (std::size_t c = 0; c < C; ++c) {
      const float e =
          fault::corrupt(inj, fault::Site::kExp, std::exp(src(r, c) - m));
      dst(r, c) = e;
      sum += e;
    }
    sum = fault::corrupt(inj, fault::Site::kReduceSum, sum);
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < C; ++c) dst(r, c) *= inv;
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
#ifdef FTT_SIMD_ROWMAX
  if (n >= 8 && avx2_active()) {
    const float m = row_max_avx2(x, n);
    if (m != 0.0f) return m;
  }
#endif
  return row_max_scalar(x, n);
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
