#pragma once
// Minimal dense tensor types used throughout the library.
//
// Attention tensors have logical shape batch x num_head x seq_len x dim.
// batch and num_head are embarrassingly parallel (the paper tiles only over
// seq_len / feature dim), so kernels operate on 2-D slices and the 4-D type
// is a thin indexer over contiguous storage.

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "numeric/fp16.hpp"

namespace ftt::tensor {

/// Row-major 2-D matrix owning its storage.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  T& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<T> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  void fill(T v) { data_.assign(data_.size(), v); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixH = Matrix<numeric::Half>;

/// Non-owning row-major const view over fp16 storage: the zero-copy handle
/// the decode hot path uses to consume KV-cache tiles (and their memoized
/// checksum encodings) in place, without materializing a Matrix.  `stride`
/// is the row stride in elements (stride == cols when densely packed).
struct MatrixHView {
  const numeric::Half* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  const numeric::Half& operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows && c < cols);
    return data[r * stride + c];
  }
  [[nodiscard]] bool dense() const noexcept { return stride == cols; }
};

/// Whole-matrix view (densely packed).
inline MatrixHView view(const MatrixH& m) noexcept {
  return {m.data(), m.rows(), m.cols(), m.cols()};
}

/// Non-owning rectangular window into a Matrix.  Used for the B_r x B_c block
/// tiling of Q/K/V along seq_len (Figs. 2 and 4).
template <typename T>
class BlockView {
 public:
  BlockView(Matrix<T>& m, std::size_t r0, std::size_t c0, std::size_t rows,
            std::size_t cols) noexcept
      : base_(&m), r0_(r0), c0_(c0), rows_(rows), cols_(cols) {
    assert(r0 + rows <= m.rows() && c0 + cols <= m.cols());
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  T& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return (*base_)(r0_ + r, c0_ + c);
  }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return (*base_)(r0_ + r, c0_ + c);
  }

 private:
  Matrix<T>* base_;
  std::size_t r0_, c0_, rows_, cols_;
};

/// batch x num_head x seq_len x dim tensor over contiguous storage.
template <typename T>
class Tensor4D {
 public:
  Tensor4D() = default;
  Tensor4D(std::size_t batch, std::size_t heads, std::size_t seq,
           std::size_t dim, T init = T{})
      : batch_(batch),
        heads_(heads),
        seq_(seq),
        dim_(dim),
        data_(batch * heads * seq * dim, init) {}

  [[nodiscard]] std::size_t batch() const noexcept { return batch_; }
  [[nodiscard]] std::size_t heads() const noexcept { return heads_; }
  [[nodiscard]] std::size_t seq() const noexcept { return seq_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  T& at(std::size_t b, std::size_t h, std::size_t s, std::size_t d) noexcept {
    return data_[((b * heads_ + h) * seq_ + s) * dim_ + d];
  }
  const T& at(std::size_t b, std::size_t h, std::size_t s,
              std::size_t d) const noexcept {
    return data_[((b * heads_ + h) * seq_ + s) * dim_ + d];
  }

  /// Contiguous seq x dim slice for one (batch, head) pair.
  [[nodiscard]] std::span<T> slice(std::size_t b, std::size_t h) noexcept {
    return {data_.data() + ((b * heads_ + h) * seq_) * dim_, seq_ * dim_};
  }
  [[nodiscard]] std::span<const T> slice(std::size_t b,
                                         std::size_t h) const noexcept {
    return {data_.data() + ((b * heads_ + h) * seq_) * dim_, seq_ * dim_};
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

 private:
  std::size_t batch_ = 0, heads_ = 0, seq_ = 0, dim_ = 0;
  std::vector<T> data_;
};

using Tensor4F = Tensor4D<float>;
using Tensor4H = Tensor4D<numeric::Half>;

/// Copy a seq x dim fp16 slice into an fp32 working matrix.
void widen(std::span<const numeric::Half> src, MatrixF& dst);
/// Widen a view into a dense rows x cols fp32 buffer (bulk SIMD conversion;
/// one contiguous pass when the view is densely packed, per-row otherwise).
/// `dst` must hold rows * cols floats.
void widen(MatrixHView src, float* dst);
/// Copy one seq x dim fp16 slice into a matrix, optionally pre-scaling by
/// `scale` and rounding back to fp16 (applied to Q with 1/sqrt(dim), so the
/// attention kernels' GEMMs need no epilogue scaling).
MatrixH load_slice(const Tensor4H& T, std::size_t b, std::size_t h,
                   float scale = 1.0f);
/// Round an fp32 matrix through fp16 into a Half slice.
void narrow(const MatrixF& src, std::span<numeric::Half> dst);

/// Max |a-b| over all elements; requires same shape.
float max_abs_diff(const MatrixF& a, const MatrixF& b);
/// Max |a-b| / (|b| + eps) over all elements.
float max_rel_diff(const MatrixF& a, const MatrixF& b, float eps = 1e-6f);

}  // namespace ftt::tensor
