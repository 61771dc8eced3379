#pragma once
// Classic (element-checksum) ABFT for GEMM, Eqs. (8)-(9) of the paper.
//
// A (M x K) is encoded with two extra *rows* — the plain column sum c1·A and
// the index-weighted sum c2·A with c2 = [1, 2, ..., M] — and B (K x N) with
// two extra *columns* B·r1, B·r2.  The product then carries checksum rows
// C_r1, C_r2 and columns C_c1, C_c2; recomputing the sums from C and
// comparing locates a single corrupted element at
//   row i = (C_c2'[j] - C_c2[j]) / (C_c1'[j] - C_c1[j]) - 1,  column j,
// which is corrected by adding the c1 residual.
//
// This is the decoupled baseline's protection and the "traditional ABFT" bar
// in Fig. 11.  On tensor cores its column sums cross thread boundaries
// (Fig. 6), which the cost model charges as warp shuffles — the overhead the
// strided scheme eliminates.  Its single checksum column per weight also means
// two errors in one column are detectable but not locatable (Fig. 12 left).

#include "abft/report.hpp"
#include "fault/fault.hpp"
#include "sim/cost.hpp"
#include "tensor/tensor.hpp"

namespace ftt::abft {

/// Detection threshold semantics shared by all schemes: a comparison of
/// checksum `c` against recomputed sum `s` is flagged when
/// |c - s| / (|s| + 1e-6) > relative_threshold.
struct ElementAbft {
  /// Append the two weighted row checksums (Eq. 8): result is (M+2) x K.
  static tensor::MatrixF encode_rows(const tensor::MatrixF& A);
  /// Append the two weighted column checksums (Eq. 9): result is K x (N+2).
  static tensor::MatrixF encode_cols(const tensor::MatrixF& B);

  /// Protected C = A * B^T over fp16 operands (the QK^T layout).
  /// A: M x K, B: N x K, C out: M x N.  Checksums are encoded in fp16 (they
  /// ride through the same tensor-core GEMM), verification sums in fp32.
  /// `gemm_site` selects which fault-injection site the payload MACs report
  /// to (kGemm1 for QK^T, kGemm2 for PV, kLinear for feed-forward).
  static Report gemm_nt(const tensor::MatrixH& A, const tensor::MatrixH& B,
                        tensor::MatrixF& C, float relative_threshold,
                        fault::FaultInjector* inj,
                        fault::Site gemm_site = fault::Site::kGemm1);

  /// The two weighted column-sum rows of A (M x K, row-major fp32), c1·A
  /// and c2·A (Eq. 8), as the 2 x K operand they ride the tensor-core GEMM
  /// as: each sum passes one kChecksum hook (column by column, plain then
  /// weighted) and rounds to fp16.
  static tensor::MatrixF checksum_rows(const float* A, std::size_t M,
                                       std::size_t K,
                                       fault::FaultInjector* inj);

  /// Verify + correct C = A * B, B k-major fp16 (K x N), against A's
  /// checksum_rows carried through the same GEMM; each of the 2 x N
  /// products passes one kChecksum hook before the compare.
  static Report verify_nnh(const tensor::MatrixF& a_checksums,
                           const numeric::Half* Bt, std::size_t N,
                           tensor::MatrixF& C, float relative_threshold,
                           fault::FaultInjector* inj);

  /// Verify + correct an M x N payload given its c1/c2 column-checksum rows
  /// (2 x N, computed through the encoded GEMM).  Exposed separately so tests
  /// and the coverage study can drive it with arbitrary corruption.
  static Report verify_correct(tensor::MatrixF& C,
                               const tensor::MatrixF& col_checksums,
                               float relative_threshold);

  /// Closed-form cost of one protected M x N x K GEMM (per Fig. 3 phases):
  /// CCG (with cross-thread shuffles), checksum GEMM columns, CCV.
  static sim::CostBreakdown costs(double m, double n, double k);
};

}  // namespace ftt::abft
