#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "nn/matrix.h"
#include "util/rng.h"

namespace decima::nn {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, Matmul) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = a.matmul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposedMatmulMatchesExplicit) {
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  // a^T b: (2x3)(3x2) = 2x2
  Matrix c(2, 2);
  a.transposed_matmul_acc(b, c);
  // a^T = [[1,3,5],[2,4,6]]
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 3 * 9 + 5 * 11);
  EXPECT_DOUBLE_EQ(c(1, 1), 2 * 8 + 4 * 10 + 6 * 12);
}

TEST(Matrix, MatmulTransposed) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(2, 3, {7, 8, 9, 10, 11, 12});
  // a b^T: 2x2
  Matrix c(2, 2);
  a.matmul_transposed_acc(b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 2 * 8 + 3 * 9);
  EXPECT_DOUBLE_EQ(c(1, 0), 4 * 7 + 5 * 8 + 6 * 9);
}

// --- Exact bits: every kernel against a naive loop in the reference order ---
//
// The products must equal these loops bit for bit at every width (the
// register-blocked ones, 8, 16 and 32, and the fallback around them), for any
// row count, and through zeros, negative zeros and infinities. A native AVX
// build pins the 4-lane kernels; the sanitizer builds compile without
// -march=native and pin the 2-lane ones.

// Magnitudes over many binades, so a changed summation order changes bits;
// about 20% exact zeros and 5% negative zeros.
Matrix random_operand(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.raw()) {
    const double u = rng.uniform();
    if (u < 0.2) {
      v = 0.0;
    } else if (u < 0.25) {
      v = -0.0;
    } else {
      v = std::ldexp(rng.uniform(-1.0, 1.0), rng.uniform_int(-20, 20));
    }
  }
  return m;
}

std::size_t pick(std::size_t n, Rng& rng) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// The top-left rows x cols block of m: each shape takes its operands from
// pools drawn once per row count.
Matrix block(const Matrix& m, std::size_t rows, std::size_t cols) {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out(r, c) = m(r, c);
  }
  return out;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// out = a * b: terms in k order from +0, zero a(i, k) skipped.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (a(i, k) == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += a(i, k) * b(k, j);
    }
  }
  return out;
}

// dst += a * b^T: each dot product from +0 in k order, then one add.
void naive_matmul_transposed_acc(const Matrix& a, const Matrix& b,
                                 Matrix& dst) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      dst(i, j) += acc;
    }
  }
}

// dst += a^T * b: terms straight onto dst in i order, zero a(i, k) skipped.
void naive_transposed_matmul_acc(const Matrix& a, const Matrix& b,
                                 Matrix& dst) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (a(i, k) == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) dst(k, j) += a(i, k) * b(i, j);
    }
  }
}

constexpr std::size_t kMaxDim = 40;
constexpr std::size_t kRowCounts[] = {0, 1, 2, 3, 7, 8, 9, 64, 257};

TEST(MatrixExactBits, Matmul) {
  Rng rng(11);
  for (std::size_t rows : kRowCounts) {
    const Matrix a_pool = random_operand(rows, kMaxDim, rng);
    const Matrix b_pool = random_operand(kMaxDim, kMaxDim, rng);
    for (std::size_t inner = 1; inner <= kMaxDim; ++inner) {
      for (std::size_t width = 1; width <= kMaxDim; ++width) {
        Matrix a = block(a_pool, rows, inner);
        Matrix b = block(b_pool, inner, width);
        if (rows > 0) {
          // inf facing a skipped zero: row 0 must not read NaN.
          const std::size_t k = pick(inner, rng);
          b(k, pick(width, rng)) = kInf;
          a(0, k) = 0.0;
        }
        ASSERT_TRUE(same_bits(a.matmul(b), naive_matmul(a, b)))
            << rows << "x" << inner << " * " << inner << "x" << width;
      }
    }
  }
}

TEST(MatrixExactBits, MatmulTransposedAcc) {
  Rng rng(12);
  for (std::size_t rows : kRowCounts) {
    const Matrix a_pool = random_operand(rows, kMaxDim, rng);
    const Matrix b_pool = random_operand(kMaxDim, kMaxDim, rng);
    const Matrix dst_pool = random_operand(rows, kMaxDim, rng);
    for (std::size_t inner = 1; inner <= kMaxDim; ++inner) {
      for (std::size_t width = 1; width <= kMaxDim; ++width) {
        Matrix a = block(a_pool, rows, inner);
        Matrix b = block(b_pool, width, inner);
        if (rows > 0) {
          // No zero-skip here: inf facing a zero makes NaN, as in the loop.
          const std::size_t k = pick(inner, rng);
          b(pick(width, rng), k) = kInf;
          a(0, k) = 0.0;
        }
        Matrix got = block(dst_pool, rows, width);
        Matrix want = got;
        a.matmul_transposed_acc(b, got);
        naive_matmul_transposed_acc(a, b, want);
        ASSERT_TRUE(same_bits(got, want))
            << rows << "x" << inner << " * (" << width << "x" << inner << ")^T";
      }
    }
  }
}

TEST(MatrixExactBits, TransposedMatmulAcc) {
  Rng rng(13);
  for (std::size_t rows : kRowCounts) {
    const Matrix a_pool = random_operand(rows, kMaxDim, rng);
    const Matrix b_pool = random_operand(rows, kMaxDim, rng);
    const Matrix dst_pool = random_operand(kMaxDim, kMaxDim, rng);
    for (std::size_t inner = 1; inner <= kMaxDim; ++inner) {
      for (std::size_t width = 1; width <= kMaxDim; ++width) {
        Matrix a = block(a_pool, rows, inner);
        Matrix b = block(b_pool, rows, width);
        if (rows > 0) {
          // inf facing a skipped zero: that row of dst must not read NaN.
          b(0, pick(width, rng)) = kInf;
          a(0, pick(inner, rng)) = 0.0;
        }
        Matrix got = block(dst_pool, inner, width);
        Matrix want = got;
        a.transposed_matmul_acc(b, got);
        naive_transposed_matmul_acc(a, b, want);
        ASSERT_TRUE(same_bits(got, want))
            << "(" << rows << "x" << inner << ")^T * " << rows << "x" << width;
      }
    }
  }
}

TEST(Matrix, AddAndAxpy) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {10, 20, 30});
  a.add_in_place(b);
  EXPECT_DOUBLE_EQ(a(0, 2), 33.0);
  a.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0 + 5.0);
}

TEST(Matrix, SumAndNorm) {
  Matrix a(1, 3, {3, 4, 0});
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
  EXPECT_DOUBLE_EQ(a.squared_norm(), 25.0);
}

TEST(Matrix, FillZero) {
  Matrix a(2, 2, 5.0);
  a.zero();
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
  a.fill(2.0);
  EXPECT_DOUBLE_EQ(a.sum(), 8.0);
}

TEST(Matrix, ShapeChecks) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  Matrix c(3, 2);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

}  // namespace
}  // namespace decima::nn
