#include <gtest/gtest.h>

#include <cmath>

#include "nn/adam.h"
#include "nn/mlp.h"

namespace decima::nn {
namespace {

TEST(Mlp, ShapesAndParamCount) {
  Mlp mlp("m", 5, 3, {32, 16});
  // 5*32+32 + 32*16+16 + 16*3+3 = 192 + 528 + 51
  EXPECT_EQ(mlp.num_parameters(), 5u * 32 + 32 + 32u * 16 + 16 + 16u * 3 + 3);
  Rng rng(1);
  mlp.init(rng);
  Tape tape;
  Var x = tape.constant(Matrix(4, 5, 0.3));
  Var y = mlp.apply(tape, x);
  EXPECT_EQ(tape.value(y).rows(), 4u);
  EXPECT_EQ(tape.value(y).cols(), 3u);
}

TEST(Mlp, DeterministicInit) {
  Mlp a("m", 3, 2), b("m", 3, 2);
  Rng r1(9), r2(9);
  a.init(r1);
  b.init(r2);
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.raw(), pb[i]->value.raw());
  }
}

TEST(ParamSet, FlatGradsRoundTrip) {
  Mlp mlp("m", 2, 2, {4});
  Rng rng(3);
  mlp.init(rng);
  ParamSet set;
  set.add(mlp.params());
  EXPECT_EQ(set.num_parameters(), mlp.num_parameters());
  set.zero_grads();
  std::vector<double> flat(set.num_parameters(), 0.5);
  set.add_flat_to_grads(flat, 2.0);
  const auto out = set.flat_grads();
  for (double g : out) EXPECT_DOUBLE_EQ(g, 1.0);
}

TEST(ParamSet, CopyAndAccumulate) {
  Mlp a("m", 2, 2, {4});
  Mlp b("m", 2, 2, {4});
  Rng r1(1), r2(2);
  a.init(r1);
  b.init(r2);
  ParamSet sa, sb;
  sa.add(a.params());
  sb.add(b.params());
  sb.copy_values_from(sa);
  EXPECT_EQ(a.params()[0]->value.raw(), b.params()[0]->value.raw());

  sa.zero_grads();
  sb.zero_grads();
  for (Param* p : sb.params()) p->grad.fill(3.0);
  sa.add_flat_to_grads(sb.flat_grads(), 0.5);
  EXPECT_DOUBLE_EQ(sa.params()[0]->grad.raw()[0], 1.5);
}

TEST(ParamSet, GradClipScalesDown) {
  Param p("p", 1, 4);
  p.grad = Matrix(1, 4, {3.0, 0.0, 4.0, 0.0});  // norm 5
  ParamSet set;
  set.add(&p);
  set.clip_grad_norm(1.0);
  EXPECT_NEAR(set.grad_norm(), 1.0, 1e-12);
  set.clip_grad_norm(10.0);  // already below: unchanged
  EXPECT_NEAR(set.grad_norm(), 1.0, 1e-12);
}

TEST(Adam, MinimizesQuadratic) {
  // f(x) = (x - 3)^2, gradient 2(x - 3).
  Param x("x", 1, 1);
  x.value(0, 0) = -5.0;
  ParamSet set;
  set.add(&x);
  Adam adam(&set, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    set.zero_grads();
    x.grad(0, 0) = 2.0 * (x.value(0, 0) - 3.0);
    adam.step();
  }
  EXPECT_NEAR(x.value(0, 0), 3.0, 1e-3);
  EXPECT_EQ(adam.steps_taken(), 500);
}

TEST(Adam, TrainsMlpOnRegression) {
  // Teach a tiny MLP y = 2 x0 - x1 via SGD with Adam.
  Mlp mlp("m", 2, 1, {8});
  Rng rng(7);
  mlp.init(rng);
  ParamSet set;
  set.add(mlp.params());
  Adam adam(&set, {.lr = 0.01});
  double final_loss = 1e9;
  for (int it = 0; it < 800; ++it) {
    const double x0 = rng.uniform(-1, 1), x1 = rng.uniform(-1, 1);
    const double target = 2 * x0 - x1;
    set.zero_grads();
    Tape tape;
    Var out = mlp.apply(tape, tape.constant(Matrix(1, 2, {x0, x1})));
    const double pred = tape.value(out)(0, 0);
    // d(pred-target)^2/dpred = 2 (pred - target)
    tape.backward(out, 2.0 * (pred - target));
    adam.step();
    final_loss = (pred - target) * (pred - target);
  }
  EXPECT_LT(final_loss, 0.05);
}

}  // namespace
}  // namespace decima::nn
