#include "nn/matrix.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace decima::nn {

namespace {

// Register-blocked kernels for the model's layer widths (8, 16, 32). Each
// vectorizes across output columns only, so every output element sums the
// same products in the same order from the same starting value as the scalar
// loop it replaces: the results are bit-identical, not merely close. The lane
// width follows the target ISA: without AVX a 4-lane vector is emulated, runs
// slower than 2 lanes and changes the function-call ABI (GCC's -Wpsabi).
#if defined(__AVX__)
constexpr std::size_t kLanes = 4;
#else
constexpr std::size_t kLanes = 2;
#endif
using Vec = double __attribute__((vector_size(kLanes * sizeof(double))));

inline Vec load(const double* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, Vec v) { std::memcpy(p, &v, sizeof v); }

inline Vec splat(double x) {
  Vec v = {};
  for (std::size_t l = 0; l < kLanes; ++l) v[l] = x;
  return v;
}

// Calls f(std::integral_constant<std::size_t, width>) for a width with a
// blocked kernel; false (f not called) for every other width.
template <typename F>
bool with_blocked_width(std::size_t width, F&& f) {
  switch (width) {
    case 8:
      f(std::integral_constant<std::size_t, 8>{});
      return true;
    case 16:
      f(std::integral_constant<std::size_t, 16>{});
      return true;
    case 32:
      f(std::integral_constant<std::size_t, 32>{});
      return true;
    default:
      return false;
  }
}

// Row i of out (rows x N) = sum over k of a(i, k) * b(k, :), k ascending, from
// +0. Zero a(i, k) terms are skipped when kSkipZero. The row is stored, or
// added to out's row once when kAccumulate.
template <std::size_t N, bool kSkipZero, bool kAccumulate>
void rows_times(const double* a, std::size_t rows, std::size_t inner,
                const double* b, double* out) {
  constexpr std::size_t kVecs = N / kLanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* ai = a + i * inner;
    Vec acc[kVecs] = {};
    for (std::size_t k = 0; k < inner; ++k) {
      if (kSkipZero && ai[k] == 0.0) continue;
      const Vec s = splat(ai[k]);
      const double* bk = b + k * N;
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[v] += s * load(bk + v * kLanes);
      }
    }
    double* o = out + i * N;
    for (std::size_t v = 0; v < kVecs; ++v) {
      const Vec row = kAccumulate ? load(o + v * kLanes) + acc[v] : acc[v];
      store(o + v * kLanes, row);
    }
  }
}

// dst (cols x N) += x^T * dy for x (rows x cols) and dy (rows x N): row k of
// dst stays in registers while the rows of dy arrive in i order, each added
// straight onto dst's running value; zero x(i, k) terms are skipped.
template <std::size_t N>
void columns_times_acc(const double* x, std::size_t rows, std::size_t cols,
                       const double* dy, double* dst) {
  constexpr std::size_t kVecs = N / kLanes;
  for (std::size_t k = 0; k < cols; ++k) {
    double* o = dst + k * N;
    Vec acc[kVecs] = {};
    for (std::size_t v = 0; v < kVecs; ++v) acc[v] = load(o + v * kLanes);
    for (std::size_t i = 0; i < rows; ++i) {
      const double xv = x[i * cols + k];
      if (xv == 0.0) continue;
      const Vec s = splat(xv);
      const double* bi = dy + i * N;
      for (std::size_t v = 0; v < kVecs; ++v) {
        acc[v] += s * load(bi + v * kLanes);
      }
    }
    for (std::size_t v = 0; v < kVecs; ++v) store(o + v * kLanes, acc[v]);
  }
}

// matmul_transposed_acc copies rhs transposed onto the stack when its inner
// dimension is at most this (every layer of the model).
constexpr std::size_t kMaxTransposedInner = 32;

}  // namespace

void Matrix::add_in_place(const Matrix& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::axpy(double scale, const Matrix& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

Matrix Matrix::matmul(const Matrix& rhs) const {
  Matrix out;
  matmul_into(rhs, out);
  return out;
}

void Matrix::matmul_into(const Matrix& rhs, Matrix& out) const {
  assert(cols_ == rhs.rows_ && &out != this && &out != &rhs);
  out.resize(rows_, rhs.cols_);
  const auto blocked = [&](auto n) {
    rows_times<decltype(n)::value, true, false>(data(), rows_, cols_,
                                                rhs.data(), out.data());
  };
  if (with_blocked_width(rhs.cols_, blocked)) return;
  out.zero();
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* a = data_.data() + i * cols_;
    double* o = out.data() + i * rhs.cols_;
    for (std::size_t k = 0; k < cols_; ++k) {
      const double av = a[k];
      if (av == 0.0) continue;
      const double* b = rhs.data() + k * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) o[j] += av * b[j];
    }
  }
}

void Matrix::matmul_transposed_acc(const Matrix& rhs, Matrix& dst) const {
  assert(cols_ == rhs.cols());
  assert(dst.rows() == rows_ && dst.cols() == rhs.rows());
  const auto blocked = [&](auto m) {
    constexpr std::size_t M = decltype(m)::value;
    double rhs_t[kMaxTransposedInner * M];
    for (std::size_t j = 0; j < M; ++j) {
      for (std::size_t k = 0; k < cols_; ++k) rhs_t[k * M + j] = rhs(j, k);
    }
    rows_times<M, false, true>(data(), rows_, cols_, rhs_t, dst.data());
  };
  if (rows_ > 0 && cols_ <= kMaxTransposedInner &&
      with_blocked_width(rhs.rows(), blocked)) {
    return;
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* a = data_.data() + i * cols_;
    double* o = dst.data() + i * rhs.rows();
    for (std::size_t j = 0; j < rhs.rows(); ++j) {
      const double* b = rhs.data() + j * rhs.cols();
      double acc = 0.0;
      for (std::size_t k = 0; k < cols_; ++k) acc += a[k] * b[k];
      o[j] += acc;
    }
  }
}

void Matrix::transposed_matmul_acc(const Matrix& rhs, Matrix& dst) const {
  assert(rows_ == rhs.rows());
  assert(dst.rows() == cols_ && dst.cols() == rhs.cols());
  const auto blocked = [&](auto n) {
    columns_times_acc<decltype(n)::value>(data(), rows_, cols_, rhs.data(),
                                          dst.data());
  };
  if (with_blocked_width(rhs.cols(), blocked)) return;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* a = data_.data() + i * cols_;
    const double* b = rhs.data() + i * rhs.cols();
    for (std::size_t k = 0; k < cols_; ++k) {
      const double av = a[k];
      if (av == 0.0) continue;
      double* o = dst.data() + k * rhs.cols();
      for (std::size_t j = 0; j < rhs.cols(); ++j) o[j] += av * b[j];
    }
  }
}

void linear_forward(const Matrix& x, const Matrix& w, const Matrix& bias,
                    bool leaky, Matrix& out, double slope) {
  assert(bias.rows() == 1 && bias.cols() == w.cols());
  x.matmul_into(w, out);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += bias(0, c);
  }
  if (leaky) {
    for (double& v : out.raw()) v = v > 0.0 ? v : slope * v;
  }
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::squared_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

}  // namespace decima::nn
