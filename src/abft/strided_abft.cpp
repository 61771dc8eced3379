#include "abft/strided_abft.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "numeric/gemm_simd.hpp"
#include "sim/mma.hpp"

namespace ftt::abft {

using numeric::Half;
using tensor::MatrixF;
using tensor::MatrixH;

namespace {
bool near_integer(float x, float tol = 0.02f) {
  return std::fabs(x - std::round(x)) < tol;
}
}  // namespace

namespace {

/// Widen a view into dense R x C fp32 scratch (bulk SIMD conversion).
/// Exact, so the accumulations below stay bit-identical to per-element
/// table conversion.
std::vector<float> widen_view(tensor::MatrixHView X) {
  std::vector<float> xf(X.rows * X.cols);
  tensor::widen(X, xf.data());
  return xf;
}

}  // namespace

MatrixH StridedAbft::encode_rows_strided_widened(const float* xf,
                                                 std::size_t rows,
                                                 std::size_t cols, int s,
                                                 bool weighted,
                                                 fault::FaultInjector* inj) {
  if (s <= 0 || rows % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument("encode_rows_strided: rows % stride != 0");
  }
  const std::size_t loops = rows / static_cast<std::size_t>(s);
  MatrixH out(static_cast<std::size_t>(s), cols);
  // Accumulate a whole checksum row at a time: each output element is summed
  // over ascending l exactly as the scalar l-inner loop did (axpy_f32 adds
  // one l-term to every column per call), so the vector and scalar paths are
  // bit-identical, and the fault hooks still fire once per output element in
  // (jc, c) order after the accumulation.
  std::vector<float> acc(cols);
  for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
    for (std::size_t c = 0; c < cols; ++c) acc[c] = 0.0f;
    for (std::size_t l = 0; l < loops; ++l) {
      const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
      numeric::axpy_f32(w, xf + (jc + l * static_cast<std::size_t>(s)) * cols,
                        acc.data(), cols);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      out(jc, c) = Half(fault::corrupt(inj, fault::Site::kChecksum, acc[c]));
    }
  }
  return out;
}

MatrixH StridedAbft::encode_rows_strided_h(const Half* x, std::size_t rows,
                                           std::size_t cols, int s,
                                           bool weighted,
                                           fault::FaultInjector* inj) {
  if (s <= 0 || rows % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument("encode_rows_strided: rows % stride != 0");
  }
  const std::size_t loops = rows / static_cast<std::size_t>(s);
  MatrixH out(static_cast<std::size_t>(s), cols);
  // Same accumulation structure as the _widened overload, with the l-term
  // rows streamed at half width: axpy_f32_h widens exactly in registers, so
  // the sums (and hence the rounded checksums and fault-hook order) are
  // bit-identical — minus the fp32 staging pass.
  std::vector<float> acc(cols);
  for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
    for (std::size_t c = 0; c < cols; ++c) acc[c] = 0.0f;
    for (std::size_t l = 0; l < loops; ++l) {
      const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
      numeric::axpy_f32_h(w, x + (jc + l * static_cast<std::size_t>(s)) * cols,
                          acc.data(), cols);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      out(jc, c) = Half(fault::corrupt(inj, fault::Site::kChecksum, acc[c]));
    }
  }
  return out;
}

MatrixH StridedAbft::encode_rows_strided(tensor::MatrixHView X, int s,
                                         bool weighted,
                                         fault::FaultInjector* inj) {
  const std::vector<float> xf = widen_view(X);
  return encode_rows_strided_widened(xf.data(), X.rows, X.cols, s, weighted,
                                     inj);
}

MatrixH StridedAbft::encode_rows_strided(const MatrixH& X, int s, bool weighted,
                                         fault::FaultInjector* inj) {
  return encode_rows_strided(tensor::view(X), s, weighted, inj);
}

MatrixH StridedAbft::encode_cols_strided_widened(const float* xf,
                                                 std::size_t rows,
                                                 std::size_t cols, int s,
                                                 bool weighted,
                                                 fault::FaultInjector* inj) {
  if (s <= 0 || cols % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument("encode_cols_strided: cols % stride != 0");
  }
  const std::size_t loops = cols / static_cast<std::size_t>(s);
  MatrixH out(rows, static_cast<std::size_t>(s));
  // Same vector/scalar bit-identity argument as encode_rows: the s outputs
  // of a row accumulate their l-terms in ascending order (each axpy adds one
  // contiguous s-wide group), hooks fire per element in (r, jc) order.
  std::vector<float> acc(static_cast<std::size_t>(s));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      acc[jc] = 0.0f;
    }
    for (std::size_t l = 0; l < loops; ++l) {
      const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
      numeric::axpy_f32(w, xf + r * cols + l * static_cast<std::size_t>(s),
                        acc.data(), static_cast<std::size_t>(s));
    }
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      out(r, jc) = Half(fault::corrupt(inj, fault::Site::kChecksum, acc[jc]));
    }
  }
  return out;
}

MatrixH StridedAbft::encode_cols_strided_h(const Half* x, std::size_t rows,
                                           std::size_t cols, int s,
                                           bool weighted,
                                           fault::FaultInjector* inj) {
  if (s <= 0 || cols % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument("encode_cols_strided: cols % stride != 0");
  }
  const std::size_t loops = cols / static_cast<std::size_t>(s);
  MatrixH out(rows, static_cast<std::size_t>(s));
  std::vector<float> acc(static_cast<std::size_t>(s));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      acc[jc] = 0.0f;
    }
    for (std::size_t l = 0; l < loops; ++l) {
      const float w = weighted ? static_cast<float>(l + 1) : 1.0f;
      numeric::axpy_f32_h(w, x + r * cols + l * static_cast<std::size_t>(s),
                          acc.data(), static_cast<std::size_t>(s));
    }
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      out(r, jc) = Half(fault::corrupt(inj, fault::Site::kChecksum, acc[jc]));
    }
  }
  return out;
}

MatrixH StridedAbft::encode_cols_strided(tensor::MatrixHView X, int s,
                                         bool weighted,
                                         fault::FaultInjector* inj) {
  const std::vector<float> xf = widen_view(X);
  return encode_cols_strided_widened(xf.data(), X.rows, X.cols, s, weighted,
                                     inj);
}

MatrixH StridedAbft::encode_cols_strided(const MatrixH& X, int s, bool weighted,
                                         fault::FaultInjector* inj) {
  return encode_cols_strided(tensor::view(X), s, weighted, inj);
}

Report StridedAbft::verify_correct(MatrixF& S, const MatrixF& chk1,
                                   const MatrixF& chk2, int s,
                                   float relative_threshold, std::size_t col0,
                                   std::size_t cols) {
  Report rep;
  const std::size_t R = S.rows();
  if (cols == 0) cols = S.cols() - col0;
  if (cols % static_cast<std::size_t>(s) != 0) {
    throw std::invalid_argument("verify_correct: cols % stride != 0");
  }
  const std::size_t loops = cols / static_cast<std::size_t>(s);

  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t jc = 0; jc < static_cast<std::size_t>(s); ++jc) {
      float sum1 = 0.0f, sum2 = 0.0f, norm = 0.0f;
      for (std::size_t l = 0; l < loops; ++l) {
        const float v = S(i, col0 + jc + l * s);
        sum1 += v;
        sum2 += static_cast<float>(l + 1) * v;
        norm += std::fabs(v);
      }
      ++rep.checks;

      if (!std::isfinite(sum1)) {
        // A NaN/Inf in the residue class (exponent-field flip): locate it
        // directly and reconstruct the value from the checksum.
        ++rep.flagged;
        std::size_t bad = loops;
        std::size_t bad_count = 0;
        float others = 0.0f;
        for (std::size_t l = 0; l < loops; ++l) {
          const float v = S(i, col0 + jc + l * s);
          if (!std::isfinite(v)) {
            bad = l;
            ++bad_count;
          } else {
            others += v;
          }
        }
        if (bad_count == 1 && std::isfinite(chk1(i, jc))) {
          S(i, col0 + jc + bad * s) = chk1(i, jc) - others;
          ++rep.corrected;
        } else {
          ++rep.uncorrectable;
        }
        continue;
      }

      // Residual relative to the class L1 norm: robust to cancellation in
      // the plain sum and scale-invariant, so the check works equally on
      // raw scores and on normalized (small-magnitude) outputs.  The tiny
      // absolute floor mutes all-zero classes.
      const float d1 = chk1(i, jc) - sum1;
      const float rel = std::fabs(d1) / (norm + 1e-4f);
      if (rel <= relative_threshold || std::fabs(d1) < 1e-6f) continue;
      ++rep.flagged;

      const float d2 = chk2(i, jc) - sum2;
      const float ratio = d2 / d1;  // = l* + 1 for a single payload error
      const float lstar = ratio - 1.0f;
      if (std::isfinite(lstar) && near_integer(lstar, 0.1f) &&
          lstar >= -0.5f && lstar < static_cast<float>(loops) - 0.5f) {
        // Reconstruct from the checksum (exact for arbitrarily large errors,
        // unlike adding the residual, which cancels in fp32).
        const auto lbad = static_cast<std::size_t>(std::lround(lstar));
        float others = 0.0f;
        for (std::size_t l = 0; l < loops; ++l) {
          if (l != lbad) others += S(i, col0 + jc + l * s);
        }
        const float old = S(i, col0 + jc + lbad * s);
        S(i, col0 + jc + lbad * s) = chk1(i, jc) - others;
        // Reconstruction forces the c1 residual to zero, so validate the
        // repair against the *weighted* checksum: a mislocated correction
        // leaves the c2 residual large, and we revert.
        float sum2_new = 0.0f, norm2 = 0.0f;
        for (std::size_t l = 0; l < loops; ++l) {
          const float w = static_cast<float>(l + 1);
          sum2_new += w * S(i, col0 + jc + l * s);
          norm2 += w * std::fabs(S(i, col0 + jc + l * s));
        }
        // Accept only if the c2 residual collapsed to rounding scale: a
        // mislocated repair leaves it comparable to the error magnitude.
        if (std::fabs(chk2(i, jc) - sum2_new) <=
            0.02f * std::fabs(d1) + 2.0f * numeric::kHalfEps * norm2 + 1e-3f) {
          ++rep.corrected;
        } else {
          S(i, col0 + jc + lbad * s) = old;
          ++rep.uncorrectable;
        }
      } else if (std::fabs(d1) > 1e30f) {
        // The corrupted value is so large the weighted sum overflowed (or
        // the ratio lost all precision): the culprit dominates the class by
        // magnitude, so locate it directly and reconstruct.
        std::size_t bad = loops, bad_count = 0;
        for (std::size_t l = 0; l < loops; ++l) {
          if (std::fabs(S(i, col0 + jc + l * s)) > 0.25f * std::fabs(d1)) {
            bad = l;
            ++bad_count;
          }
        }
        if (bad_count == 1) {
          float others = 0.0f;
          for (std::size_t l = 0; l < loops; ++l) {
            if (l != bad) others += S(i, col0 + jc + l * s);
          }
          S(i, col0 + jc + bad * s) = chk1(i, jc) - others;
          ++rep.corrected;
        } else {
          ++rep.uncorrectable;
        }
      } else if (std::isfinite(ratio) && std::fabs(ratio) < 0.5f) {
        // c2 residual is ~0 while c1 residual is not: the flip hit the c1
        // checksum pipeline itself; payload is intact.
        ++rep.checksum_repairs;
      } else {
        // Two or more errors in the same residue class, or a weighted-
        // checksum flip: detectable, not locatable.
        ++rep.uncorrectable;
      }
    }
  }
  return rep;
}

Report StridedAbft::gemm_nt(const MatrixH& A, const MatrixH& B, MatrixF& C,
                            int s, float relative_threshold,
                            fault::FaultInjector* inj, fault::Site gemm_site) {
  const std::size_t M = A.rows(), N = B.rows();
  if (N % kTile != 0) {
    throw std::invalid_argument("StridedAbft::gemm_nt: N must be a multiple "
                                "of the 64-row tile");
  }

  // Payload GEMM with per-output fault hooks.
  sim::gemm_fp16_nt(A, B, C, /*accumulate=*/false);
  if (inj) {
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        C(i, j) = inj->corrupt(gemm_site, C(i, j));
      }
    }
  }

  Report rep;
  const std::size_t tiles = N / kTile;
  for (std::size_t t = 0; t < tiles; ++t) {
    // Slice tile rows of B (columns of C).
    MatrixH Bt(kTile, B.cols());
    for (std::size_t r = 0; r < kTile; ++r) {
      for (std::size_t c = 0; c < B.cols(); ++c) Bt(r, c) = B(t * kTile + r, c);
    }
    const MatrixH bc1 = encode_rows_strided(Bt, s, /*weighted=*/false, inj);
    const MatrixH bc2 = encode_rows_strided(Bt, s, /*weighted=*/true, inj);

    MatrixF chk1(M, static_cast<std::size_t>(s)),
        chk2(M, static_cast<std::size_t>(s));
    sim::gemm_fp16_nt(A, bc1, chk1, /*accumulate=*/false);
    sim::gemm_fp16_nt(A, bc2, chk2, /*accumulate=*/false);
    if (inj) {
      for (std::size_t i = 0; i < M; ++i) {
        for (std::size_t j = 0; j < static_cast<std::size_t>(s); ++j) {
          chk1(i, j) = inj->corrupt(fault::Site::kChecksum, chk1(i, j));
          chk2(i, j) = inj->corrupt(fault::Site::kChecksum, chk2(i, j));
        }
      }
    }
    rep += verify_correct(C, chk1, chk2, s, relative_threshold, t * kTile,
                          kTile);
  }
  return rep;
}

sim::CostBreakdown StridedAbft::costs(double m, double n, double k, int s) {
  sim::CostBreakdown b;
  // CCG: two strided (weighted) sums over the B operand, intra-thread.
  b[sim::Phase::kChecksumGen].fp32_flops = 4.0 * n * k;
  // Checksum GEMM: two s-wide virtual-row blocks per operand tile.
  b[sim::Phase::kGemm].tc_flops = 4.0 * m * s * k * (n / kTile);
  // CCV: two strided sums over the payload plus s compares per row-tile.
  b[sim::Phase::kVerify].fp32_flops = 4.0 * m * n + 2.0 * m * s * (n / kTile);
  return b;
}

}  // namespace ftt::abft
