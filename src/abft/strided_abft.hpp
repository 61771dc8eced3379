#pragma once
// Strided ABFT with tensor checksums, Eqs. (12)-(15) and Fig. 7.
//
// The SM80 MMA thread layout puts row elements at stride 8 (the atom's N) and
// column elements at stride 64 (the TiledMMA's M) in the *same thread*, so a
// checksum that sums elements at that stride can be encoded and verified with
// purely intra-thread arithmetic — no warp shuffles.  The checksum of a
// B x d operand block is therefore a *tensor*: s = 8 virtual rows (columns),
// each the (optionally index-weighted) sum of every stride-8 slice.
//
// Compared to the single element checksum, the s-wide tensor checksum keeps
// s independent residue classes per row, so up to s errors per row can be
// located and corrected as long as no two fall in the same class — the
// "up to a factor of 8" coverage gain of Fig. 12 (left).
//
// Column checksums would need stride 64 and a 64 x d layout (8x the memory of
// the row checksum), which is why the paper — and this implementation —
// adopts a row-checksum-only design for attention.

#include "abft/report.hpp"
#include "fault/fault.hpp"
#include "sim/cost.hpp"
#include "tensor/tensor.hpp"

namespace ftt::abft {

struct StridedAbft {
  /// Default checksum width: the MMA atom's N dimension.
  static constexpr int kDefaultStride = 8;
  /// Operand tile height: the TiledMMA's M dimension.  Checksums are encoded
  /// per tile so the c2 weights stay in [1, tile/s] and fit fp16 comfortably.
  static constexpr int kTile = 64;

  /// The one strided checksum encoder, over fp16 rows (T = numeric::Half)
  /// or exactly dequantized fp32 rows (T = float).  Row r of X (rows x cols,
  /// row pitch ldx, s dividing cols and kTile) has s residue classes, class
  /// jc holding X(r, jc + s*l) for l in [0, cols/s), whose sums land at
  ///   c1[r * ldc + jc] = sum_l X(r, jc + s*l)
  ///   c2[r * ldc + jc] = sum_l (l + 1) * X(r, jc + s*l)
  /// in fp32, each from zero in ascending l, over k-major rows (K^T, V, a
  /// sealed B^T image).  The products are exact — an integer weight below
  /// 2^13 times a value of <= 11 significant bits needs <= 24 — so fusing a
  /// multiply into its add cannot move a bit, and fp16 rows equal their
  /// exact fp32 widening.  The kChecksum hooks and the fp16 narrowing are
  /// the caller's.
  template <typename T>
  static void class_sums(const T* x, std::size_t rows, std::size_t cols,
                         std::size_t ldx, int s, float* c1, float* c2,
                         std::size_t ldc) noexcept;

  /// The naive reference pair the encoder is tested against (production
  /// never calls it): one ascending-l loop per element, narrowed to fp16
  /// after its kChecksum hook.  Rows (R % s == 0): out(jc, c) = sum_l w_l *
  /// X(jc + s*l, c), w_l = 1 or (weighted) l + 1, hooks in (jc, c) order.
  static tensor::MatrixH encode_rows_strided(tensor::MatrixHView X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);
  static tensor::MatrixH encode_rows_strided(const tensor::MatrixH& X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);

  /// Columns (C % s == 0): out(r, jc) = sum_l w_l * X(r, jc + s*l), hooks
  /// in (r, jc) order.
  static tensor::MatrixH encode_cols_strided(tensor::MatrixHView X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);
  static tensor::MatrixH encode_cols_strided(const tensor::MatrixH& X, int s,
                                             bool weighted,
                                             fault::FaultInjector* inj);

  /// Verify an R x C payload S against its two strided checksums chk1/chk2
  /// (each at least R x s): for every (row, residue class jc) compare chk1
  /// with the recomputed strided sum; locate the column offset l* from the
  /// c2/c1 residual ratio and correct in place.  `col0` offsets the check
  /// into a wider matrix (for per-tile verification of a big GEMM).  Shape
  /// mismatches throw std::invalid_argument.
  ///
  /// Each row's residue classes first go through the verify screen (AVX2
  /// lanes, compiled under FTT_SIMD): it forms every class's sum and L1 norm
  /// with the scalar body's float adds in the same order, so it passes
  /// exactly the classes the scalar body passes without a flag; the rest
  /// run that body.  Reports and repairs equal verify_correct_scalar's.
  static Report verify_correct(tensor::MatrixF& S, const tensor::MatrixF& chk1,
                               const tensor::MatrixF& chk2, int s,
                               float relative_threshold, std::size_t col0 = 0,
                               std::size_t cols = 0);
  /// verify_correct over the whole payload, also mending chk1: a class
  /// classified as a flip in the c1 path (payload intact, counted in
  /// checksum_repairs) gets chk1(i, jc) rewritten with the recomputed
  /// class sum, so a later reader of chk1 sees the payload's sum.  Classes
  /// that do not flag are not touched.
  static Report verify_correct_fix_c1(tensor::MatrixF& S,
                                      tensor::MatrixF& chk1,
                                      const tensor::MatrixF& chk2, int s,
                                      float relative_threshold);
  /// The scalar reference: every class through the scalar body.
  static Report verify_correct_scalar(tensor::MatrixF& S,
                                      const tensor::MatrixF& chk1,
                                      const tensor::MatrixF& chk2, int s,
                                      float relative_threshold,
                                      std::size_t col0 = 0,
                                      std::size_t cols = 0);

  /// An N x K GEMM operand B sealed once for repeated protected products
  /// C = A * B^T, the way TilePool seals KV tiles: the k-major fp16 image
  /// B^T (K x N, the layout gemm_f32_nnh streams) and, for every 64-column
  /// tile t, the k-major strided checksum columns [c1^T | c2^T] (K x 2s)
  /// side by side in one K x (N / kTile * 2s) image — 2s / kTile = 0.25x
  /// the image bytes at the default stride.
  struct Sealed {
    tensor::MatrixH image;      ///< K x N
    tensor::MatrixH checksums;  ///< K x (N / kTile * 2s)
    int s = kDefaultStride;
  };

  /// Seal B (N x K): cache-blocked transpose into the image, then each
  /// tile's class_sums over it, narrowed into the tile's sealed columns.
  static Sealed seal(const tensor::MatrixH& B, int s);

  /// Fully protected C = A * B^T over a sealed B.  A is M x K fp32 holding
  /// fp16 values (the widened tensor-core operand, dense); C must be M x N.
  /// One GEMM over the image, `gemm_site` hooks on every output, one GEMM
  /// over the sealed checksum columns, then a per-tile verify.  Under an
  /// injector the sealed columns stand in for each tile's two per-call
  /// encodings through FaultInjector::skip, in the per-call hook order
  /// (tile; c1 then c2; jc; k; then the tile's checksum outputs); only a
  /// tile one of whose encode hooks would flip re-derives its encodings
  /// from the image and passes them through the kChecksum hooks.
  static Report apply(const float* A, std::size_t M, const Sealed& B,
                      tensor::MatrixF& C, float relative_threshold,
                      fault::FaultInjector* inj, fault::Site gemm_site);

  /// Fully protected C = A * B^T (A: M x K fp16, B: N x K fp16, C: M x N):
  /// seal B, then apply.  B's rows are tiled by kTile; each tile contributes
  /// an s-wide tensor checksum verified independently.  This is the
  /// building block for EFTA's GEMM I and for strided-ABFT feed-forward
  /// layers.  Mismatched K or a C that is not M x N throws
  /// std::invalid_argument.
  static Report gemm_nt(const tensor::MatrixH& A, const tensor::MatrixH& B,
                        tensor::MatrixF& C, int s, float relative_threshold,
                        fault::FaultInjector* inj,
                        fault::Site gemm_site = fault::Site::kGemm1);

  /// Protection overhead (CCG + checksum GEMM + CCV) for one M x N x K GEMM
  /// with stride s.  No shuffle term: encoding/verification is intra-thread.
  static sim::CostBreakdown costs(double m, double n, double k, int s);
};

}  // namespace ftt::abft
