// Gradient correctness of the autodiff tape: every operator is verified
// against central finite differences. This is the foundation the GNN and
// policy-gradient training rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/tape.h"
#include "util/rng.h"

namespace decima::nn {
namespace {

// Finite-difference check: builds the graph with `forward` (which must use
// the provided params), compares analytic parameter gradients to central
// differences. Returns the max relative error.
double grad_check(std::vector<Param*> params,
                  const std::function<Var(Tape&)>& forward,
                  double eps = 1e-6) {
  // Analytic gradients.
  for (Param* p : params) p->zero_grad();
  {
    Tape tape;
    Var out = forward(tape);
    tape.backward(out);
  }
  double max_err = 0.0;
  for (Param* p : params) {
    for (std::size_t i = 0; i < p->value.raw().size(); ++i) {
      const double orig = p->value.raw()[i];
      p->value.raw()[i] = orig + eps;
      double f_plus;
      {
        Tape tape;
        f_plus = tape.value(forward(tape))(0, 0);
      }
      p->value.raw()[i] = orig - eps;
      double f_minus;
      {
        Tape tape;
        f_minus = tape.value(forward(tape))(0, 0);
      }
      p->value.raw()[i] = orig;
      const double numeric = (f_plus - f_minus) / (2 * eps);
      const double analytic = p->grad.raw()[i];
      const double scale =
          std::max({std::abs(numeric), std::abs(analytic), 1.0});
      max_err = std::max(max_err, std::abs(numeric - analytic) / scale);
    }
  }
  return max_err;
}

Param make_param(const std::string& name, std::size_t r, std::size_t c,
                 std::uint64_t seed) {
  Param p(name, r, c);
  Rng rng(seed);
  for (double& v : p.value.raw()) v = rng.uniform(-1.0, 1.0);
  return p;
}

// c * x for a 1 x 1 x: a matmul by a 1 x 1 constant, as the replay losses
// are weighted.
Var scaled(Tape& t, Var x, double c) {
  return t.matmul(x, t.constant(Matrix(1, 1, c)));
}

TEST(Autodiff, MatmulGradient) {
  Param a = make_param("a", 1, 4, 1);
  Param b = make_param("b", 4, 3, 2);
  Param c = make_param("c", 3, 1, 3);
  const double err = grad_check({&a, &b, &c}, [&](Tape& t) {
    return t.matmul(t.matmul(t.param(a), t.param(b)), t.param(c));
  });
  EXPECT_LT(err, 1e-6);
}

TEST(Autodiff, AddAndScale) {
  Param a = make_param("a", 1, 1, 4);
  Param b = make_param("b", 1, 1, 5);
  const double err = grad_check({&a, &b}, [&](Tape& t) {
    return t.add(scaled(t, t.param(a), 2.5), t.param(b));
  });
  EXPECT_LT(err, 1e-6);
}

TEST(Autodiff, AddnGradient) {
  Param a = make_param("a", 1, 3, 13);
  Param b = make_param("b", 1, 3, 14);
  Param c = make_param("c", 1, 3, 15);
  Param w = make_param("w", 3, 1, 16);
  const double err = grad_check({&a, &b, &c, &w}, [&](Tape& t) {
    Var s = t.addn({t.param(a), t.param(b), t.param(c)});
    return t.matmul(s, t.param(w));
  });
  EXPECT_LT(err, 1e-6);
}

TEST(Autodiff, ConcatColsGradient) {
  Param a = make_param("a", 1, 2, 17);
  Param b = make_param("b", 1, 3, 18);
  Param w = make_param("w", 5, 1, 19);
  const double err = grad_check({&a, &b, &w}, [&](Tape& t) {
    return t.matmul(t.concat_cols({t.param(a), t.param(b)}), t.param(w));
  });
  EXPECT_LT(err, 1e-6);
}

TEST(Autodiff, RowAndElementGradient) {
  // Rows are gathered with rows(), a repeated pick tiling row 1; an element
  // is a row of the matrix reshaped to one column.
  Param a = make_param("a", 3, 3, 20);
  Param w = make_param("w", 3, 1, 21);
  const double err = grad_check({&a, &w}, [&](Tape& t) {
    Var r = t.rows(t.param(a), {1, 0, 1});
    Var e = t.rows(t.reshape(t.param(a), 9, 1), {8});  // a(2, 2)
    return t.add(t.sum_rows(t.matmul(r, t.param(w))), e);
  });
  EXPECT_LT(err, 1e-6);
}

TEST(Autodiff, SumRowsGradient) {
  Param a = make_param("a", 4, 2, 22);
  Param w = make_param("w", 2, 1, 23);
  const double err = grad_check({&a, &w}, [&](Tape& t) {
    return t.matmul(t.sum_rows(t.param(a)), t.param(w));
  });
  EXPECT_LT(err, 1e-6);
}

TEST(Autodiff, ConcatScalarsAndLogProbPick) {
  Param a = make_param("a", 1, 1, 24);
  Param b = make_param("b", 1, 1, 25);
  Param c = make_param("c", 1, 1, 26);
  const double err = grad_check({&a, &b, &c}, [&](Tape& t) {
    Var logits =
        t.reshape(t.concat_cols({t.param(a), t.param(b), t.param(c)}), 3, 1);
    return t.log_prob_pick_segments(logits, {0}, {1});
  });
  EXPECT_LT(err, 1e-6);
}

TEST(Autodiff, EntropyGradient) {
  Param a = make_param("a", 5, 1, 27);
  const double err = grad_check({&a}, [&](Tape& t) {
    return t.entropy_segments(t.param(a), {0});
  });
  EXPECT_LT(err, 1e-5);
}

TEST(Autodiff, SharedParamAccumulates) {
  // The same parameter used twice must receive the sum of both paths.
  Param a = make_param("a", 1, 1, 28);
  const double err = grad_check({&a}, [&](Tape& t) {
    Var x = t.param(a);
    return t.add(scaled(t, x, 2.0), scaled(t, x, 3.0));  // f = 5a
  });
  EXPECT_LT(err, 1e-8);
  // And the absolute value: df/da = 5.
  a.zero_grad();
  Tape t;
  Var x = t.param(a);
  Var out = t.add(scaled(t, x, 2.0), scaled(t, x, 3.0));
  t.backward(out);
  EXPECT_NEAR(a.grad(0, 0), 5.0, 1e-12);
}

TEST(Autodiff, BackwardSeedScalesGradient) {
  Param a = make_param("a", 1, 1, 29);
  a.zero_grad();
  Tape t;
  Var out = scaled(t, t.param(a), 4.0);
  t.backward(out, -2.5);
  EXPECT_NEAR(a.grad(0, 0), -10.0, 1e-12);
}

TEST(Autodiff, LogProbMatchesSoftmax) {
  Tape t;
  Var logits = t.constant(Matrix(3, 1, {1.0, 2.0, 3.0}));
  const auto p = softmax(t.value(logits).raw().data(), 3);
  const Var lp = t.log_prob_pick_segments(logits, {0}, {2});
  EXPECT_NEAR(t.value(lp)(0, 0), std::log(p[2]), 1e-12);
}

TEST(Autodiff, SegmentedLogProbMatchesPerSegment) {
  // A stacked 3-segment logits column against each segment's softmax in
  // closed form: entry s is log p_s[pick_s], and row i of segment s gets
  // w_s (1[i = pick_s] - p_s[i]). The one-row segment gets exactly zero.
  Param logits = make_param("logits", 7, 1, 44);
  const std::vector<std::size_t> starts = {0, 3, 4};  // segment 1: one row
  const std::vector<std::size_t> picks = {2, 0, 1};
  const std::vector<std::size_t> ends = {3, 4, 7};
  const Matrix weights(3, 1, {0.7, -1.3, 0.4});

  logits.zero_grad();
  Tape t;
  const Var seg = t.log_prob_pick_segments(t.param(logits), starts, picks);
  t.backward(t.matmul(seg, t.constant(weights)));
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const std::size_t n = ends[s] - starts[s];
    const auto p = softmax(logits.value.data() + starts[s], n);
    EXPECT_NEAR(t.value(seg)(0, s), std::log(p[picks[s]]), 1e-12);
    for (std::size_t i = 0; i < n; ++i) {
      const double want =
          weights(s, 0) * ((i == picks[s] ? 1.0 : 0.0) - p[i]);
      EXPECT_NEAR(logits.grad(starts[s] + i, 0), want, 1e-12)
          << "row " << starts[s] + i;
    }
  }
  EXPECT_EQ(t.value(seg)(0, 1), 0.0);
  EXPECT_EQ(logits.grad(3, 0), 0.0);

  const double err = grad_check({&logits}, [&](Tape& t) {
    return t.matmul(t.log_prob_pick_segments(t.param(logits), starts, picks),
                    t.constant(weights));
  });
  EXPECT_LT(err, 1e-5);
}

TEST(Autodiff, SegmentedEntropyMatchesPerSegment) {
  // Entry s is H_s = -sum_i p_s[i] log p_s[i], and row i of segment s gets
  // -w_s p_s[i] (log p_s[i] + H_s). The one-row segment gets exactly zero.
  Param logits = make_param("logits", 6, 1, 45);
  const std::vector<std::size_t> starts = {0, 2, 5};  // segment 2: one row
  const std::vector<std::size_t> ends = {2, 5, 6};
  const Matrix weights(3, 1, {1.0, -0.5, 2.0});

  logits.zero_grad();
  Tape t;
  const Var seg = t.entropy_segments(t.param(logits), starts);
  t.backward(t.matmul(seg, t.constant(weights)));
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const std::size_t n = ends[s] - starts[s];
    const auto p = softmax(logits.value.data() + starts[s], n);
    double h = 0.0;
    for (double pi : p) h -= pi * std::log(pi);
    EXPECT_NEAR(t.value(seg)(0, s), h, 1e-12);
    for (std::size_t i = 0; i < n; ++i) {
      const double want = -weights(s, 0) * p[i] * (std::log(p[i]) + h);
      EXPECT_NEAR(logits.grad(starts[s] + i, 0), want, 1e-12)
          << "row " << starts[s] + i;
    }
  }
  EXPECT_EQ(t.value(seg)(0, 2), 0.0);
  EXPECT_EQ(logits.grad(5, 0), 0.0);

  const double err = grad_check({&logits}, [&](Tape& t) {
    return t.matmul(t.entropy_segments(t.param(logits), starts),
                    t.constant(weights));
  });
  EXPECT_LT(err, 1e-5);
}

TEST(Autodiff, ConstantsHaveNoGradientPath) {
  Param a = make_param("a", 1, 1, 30);
  a.zero_grad();
  Tape t;
  Var c = t.constant(Matrix(1, 1, {3.0}));
  Var out = t.add(t.param(a), c);
  t.backward(out);
  EXPECT_NEAR(a.grad(0, 0), 1.0, 1e-12);  // flows through param only
}

// Property-style sweep: random small MLP-like compositions gradcheck clean.
// The hidden layer is the fused Tape::linear with its leaky-ReLU.
class RandomGraphGradcheck : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphGradcheck, MlpLikeComposition) {
  const int seed = GetParam();
  Param w1 = make_param("w1", 4, 8, static_cast<std::uint64_t>(seed * 3 + 1));
  Param b1 = make_param("b1", 1, 8, static_cast<std::uint64_t>(seed * 3 + 2));
  Param w2 = make_param("w2", 8, 1, static_cast<std::uint64_t>(seed * 3 + 3));
  Rng rng(static_cast<std::uint64_t>(seed));
  Matrix x(2, 4);
  for (double& v : x.raw()) v = rng.uniform(-1, 1);
  const double err = grad_check({&w1, &b1, &w2}, [&](Tape& t) {
    Var h = t.linear(t.constant(x), t.param(w1), t.param(b1), /*leaky=*/true);
    return t.sum_rows(t.matmul(h, t.param(w2)));
  });
  EXPECT_LT(err, 1e-5) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphGradcheck,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace decima::nn
