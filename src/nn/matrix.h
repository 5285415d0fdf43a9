// A small dense row-major matrix of doubles.
//
// This is the numeric workhorse of the from-scratch neural-network substrate
// (the paper used TensorFlow; Decima's model is ~12.7k parameters, so a
// straightforward CPU implementation is fully adequate).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace decima::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(data_.size() == rows_ * cols_);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  void zero() { fill(0.0); }
  // Reshapes to rows x cols in the same buffer, which only grows, so a
  // matrix reused as an output allocates only when it outgrows every earlier
  // shape. The values are unspecified afterwards.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // this += other (shapes must match).
  void add_in_place(const Matrix& other);

  // The three products of a dense layer, forward and backward. Widths 8, 16
  // and 32 (the output width; for matmul_transposed_acc, rhs.rows()) run
  // register-blocked kernels that vectorize across output columns only, so
  // every output element adds the same products in the same order from the
  // same starting value as the scalar loops of every other width: the results
  // are bit-identical whatever the width or the target ISA.
  //
  // Matrix product: (rows x cols) * (cols x n) -> (rows x n). Each output
  // element sums its terms in k order from +0; zero entries of this matrix
  // contribute no term (so 0 * inf adds nothing).
  Matrix matmul(const Matrix& rhs) const;
  // The same product written into `out`, resized to rows x n; `out` must be
  // neither operand.
  void matmul_into(const Matrix& rhs, Matrix& out) const;
  // dst += this * rhs^T. Each element's dot product is summed from +0 in k
  // order (every term, zeros included) before a single add into dst.
  void matmul_transposed_acc(const Matrix& rhs, Matrix& dst) const;
  // dst += this^T * rhs. Each term is added straight onto dst's running
  // value, rows of this matrix in order, zero entries skipped. On a zeroed
  // dst this is the plain product; on a non-zero dst it differs from adding
  // that product at the ulp level.
  void transposed_matmul_acc(const Matrix& rhs, Matrix& dst) const;

  double squared_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// The forward of a dense layer into `out` (resized to x.rows() x w.cols(),
// never x itself): x * w, then bias (1 x w.cols()) added to every row, then,
// when `leaky`, v > 0 ? v : slope * v. Tape::linear and Mlp::forward both
// evaluate layers with it, so the tape and the incremental embedding cache
// agree bit for bit.
void linear_forward(const Matrix& x, const Matrix& w, const Matrix& bias,
                    bool leaky, Matrix& out, double slope = 0.2);

}  // namespace decima::nn
