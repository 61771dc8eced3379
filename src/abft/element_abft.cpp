#include "abft/element_abft.hpp"

#include <cmath>
#include <vector>

#include "numeric/gemm_simd.hpp"
#include "sim/mma.hpp"

namespace ftt::abft {

using tensor::MatrixF;
using tensor::MatrixH;

namespace {
bool near_integer(float x, float tol = 0.02f) {
  return std::fabs(x - std::round(x)) < tol;
}
}  // namespace

MatrixF ElementAbft::encode_rows(const MatrixF& A) {
  const std::size_t M = A.rows(), K = A.cols();
  MatrixF out(M + 2, K);
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t k = 0; k < K; ++k) out(i, k) = A(i, k);
  }
  for (std::size_t k = 0; k < K; ++k) {
    float s1 = 0.0f, s2 = 0.0f;
    for (std::size_t i = 0; i < M; ++i) {
      s1 += A(i, k);
      s2 += static_cast<float>(i + 1) * A(i, k);
    }
    out(M, k) = s1;
    out(M + 1, k) = s2;
  }
  return out;
}

MatrixF ElementAbft::encode_cols(const MatrixF& B) {
  const std::size_t K = B.rows(), N = B.cols();
  MatrixF out(K, N + 2);
  for (std::size_t k = 0; k < K; ++k) {
    float s1 = 0.0f, s2 = 0.0f;
    for (std::size_t j = 0; j < N; ++j) {
      out(k, j) = B(k, j);
      s1 += B(k, j);
      s2 += static_cast<float>(j + 1) * B(k, j);
    }
    out(k, N) = s1;
    out(k, N + 1) = s2;
  }
  return out;
}

Report ElementAbft::gemm_nt(const MatrixH& A, const MatrixH& B, MatrixF& C,
                            float relative_threshold,
                            fault::FaultInjector* inj, fault::Site gemm_site) {
  const std::size_t M = A.rows(), K = A.cols(), N = B.rows();
  std::vector<float> af(M * K);
  std::vector<numeric::Half> bt(K * N);
  numeric::halves_to_floats(A.data(), af.data(), M * K);
  numeric::transpose_h(B.data(), N, K, bt.data());
  const MatrixF a_chk = checksum_rows(af.data(), M, K, inj);

  // Payload GEMM with per-output fault hooks.
  sim::gemm_f32_nnh(af.data(), M, K, bt.data(), N, C);
  if (inj) {
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        C(i, j) = inj->corrupt(gemm_site, C(i, j));
      }
    }
  }
  return verify_nnh(a_chk, bt.data(), N, C, relative_threshold, inj);
}

MatrixF ElementAbft::checksum_rows(const float* A, std::size_t M,
                                   std::size_t K, fault::FaultInjector* inj) {
  // CCG: on real hardware this sum crosses thread boundaries (Fig. 6) —
  // costed as shuffles.
  MatrixF out(2, K);
  for (std::size_t k = 0; k < K; ++k) {
    float s1 = 0.0f, s2 = 0.0f;
    for (std::size_t i = 0; i < M; ++i) {
      const float v = A[i * K + k];
      s1 += v;
      s2 += static_cast<float>(i + 1) * v;
    }
    out(0, k) = numeric::round_to_half(
        fault::corrupt(inj, fault::Site::kChecksum, s1));
    out(1, k) = numeric::round_to_half(
        fault::corrupt(inj, fault::Site::kChecksum, s2));
  }
  return out;
}

Report ElementAbft::verify_nnh(const MatrixF& a_checksums,
                               const numeric::Half* Bt, std::size_t N,
                               MatrixF& C, float relative_threshold,
                               fault::FaultInjector* inj) {
  // Checksum GEMM: 2 x N column checksums of C.
  MatrixF col_chk(2, N);
  sim::gemm_f32_nnh(a_checksums.data(), 2, a_checksums.cols(), Bt, N,
                    col_chk);
  if (inj) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t j = 0; j < N; ++j) {
        col_chk(r, j) = inj->corrupt(fault::Site::kChecksum, col_chk(r, j));
      }
    }
  }
  return verify_correct(C, col_chk, relative_threshold);
}

Report ElementAbft::verify_correct(MatrixF& C, const MatrixF& col_checksums,
                                   float relative_threshold) {
  Report rep;
  const std::size_t M = C.rows(), N = C.cols();
  for (std::size_t j = 0; j < N; ++j) {
    float sum1 = 0.0f, sum2 = 0.0f, norm = 0.0f;
    for (std::size_t i = 0; i < M; ++i) {
      sum1 += C(i, j);
      sum2 += static_cast<float>(i + 1) * C(i, j);
      norm += std::fabs(C(i, j));
    }
    ++rep.checks;

    if (!std::isfinite(sum1)) {
      // A NaN/Inf landed in the payload (exponent-field flip): locate it by
      // scanning the column and reconstruct from the checksum directly.
      ++rep.flagged;
      std::size_t bad = M;
      std::size_t bad_count = 0;
      float others = 0.0f;
      for (std::size_t i = 0; i < M; ++i) {
        if (!std::isfinite(C(i, j))) {
          bad = i;
          ++bad_count;
        } else {
          others += C(i, j);
        }
      }
      if (bad_count == 1 && std::isfinite(col_checksums(0, j))) {
        C(bad, j) = col_checksums(0, j) - others;
        ++rep.corrected;
      } else {
        ++rep.uncorrectable;
      }
      continue;
    }

    // Residual relative to the column's L1 norm: stable under cancellation
    // in the plain sum (a near-zero sum would otherwise make the error-free
    // rounding residual look arbitrarily large).
    const float d1 = col_checksums(0, j) - sum1;
    const float rel = std::fabs(d1) / (norm + 1e-4f);
    if (rel <= relative_threshold || std::fabs(d1) < 1e-6f) continue;
    ++rep.flagged;

    const float d2 = col_checksums(1, j) - sum2;
    const float ratio = d2 / d1;
    const float row = ratio - 1.0f;
    if (std::isfinite(ratio) && near_integer(row, 0.1f) && row >= -0.5f &&
        row < static_cast<float>(M) - 0.5f) {
      // Reconstruct rather than add the residual: exact even when the
      // corrupted value dwarfs the true one (additive repair would lose the
      // true value to fp32 cancellation).
      const auto bi = static_cast<std::size_t>(std::lround(row));
      float others = 0.0f;
      for (std::size_t i = 0; i < M; ++i) {
        if (i != bi) others += C(i, j);
      }
      const float old = C(bi, j);
      C(bi, j) = col_checksums(0, j) - others;
      // Validate against the weighted checksum; revert a mislocation.
      float sum2_new = 0.0f, norm2 = 0.0f;
      for (std::size_t i = 0; i < M; ++i) {
        const float w = static_cast<float>(i + 1);
        sum2_new += w * C(i, j);
        norm2 += w * std::fabs(C(i, j));
      }
      // Accept only if the c2 residual collapsed to rounding scale: a
      // mislocated repair leaves it comparable to the error magnitude.
      if (std::fabs(col_checksums(1, j) - sum2_new) <=
          0.02f * std::fabs(d1) + 2.0f * numeric::kHalfEps * norm2 + 1e-3f) {
        ++rep.corrected;
      } else {
        C(bi, j) = old;
        ++rep.uncorrectable;
      }
    } else if (std::fabs(d1) > 1e30f) {
      // Weighted sum overflowed: the culprit dominates the column — locate
      // by magnitude and reconstruct.
      std::size_t bad = M, bad_count = 0;
      for (std::size_t i = 0; i < M; ++i) {
        if (std::fabs(C(i, j)) > 0.25f * std::fabs(d1)) {
          bad = i;
          ++bad_count;
        }
      }
      if (bad_count == 1) {
        float others = 0.0f;
        for (std::size_t i = 0; i < M; ++i) {
          if (i != bad) others += C(i, j);
        }
        C(bad, j) = col_checksums(0, j) - others;
        ++rep.corrected;
      } else {
        ++rep.uncorrectable;
      }
    } else if (std::isfinite(ratio) && near_integer(ratio) &&
               std::lround(ratio) == 0) {
      // d2 == 0 with d1 != 0: the flip hit the c1 checksum itself.
      ++rep.checksum_repairs;
    } else {
      // Multiple errors in one column (or a checksum-path flip): the single
      // element checksum cannot locate them.
      ++rep.uncorrectable;
    }
  }
  return rep;
}

sim::CostBreakdown ElementAbft::costs(double m, double n, double k) {
  sim::CostBreakdown b;
  // CCG: both operand encodings (2 weighted sums each), with cross-thread
  // reduction traffic on tensor-core data layouts.
  b[sim::Phase::kChecksumGen].fp32_flops = 4.0 * m * k + 4.0 * n * k;
  b[sim::Phase::kChecksumGen].shuffles = 2.0 * m * k + 2.0 * n * k;
  // Extra GEMM work for checksum rows/columns.
  b[sim::Phase::kGemm].tc_flops = 4.0 * n * k + 4.0 * m * k;
  // CCV: recompute both weighted sums over the payload and compare.
  b[sim::Phase::kVerify].fp32_flops = 4.0 * m * n + 2.0 * (m + n);
  b[sim::Phase::kVerify].shuffles = 2.0 * m * n;
  return b;
}

}  // namespace ftt::abft
