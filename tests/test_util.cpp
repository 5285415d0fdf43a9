#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/env_flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace decima {
namespace {

TEST(Rng, Determinism) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniform_int(1, 3);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 3);
    saw_lo |= x == 1;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ExponentialNonPositiveMeanIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.exponential(0.0), 0.0);
  EXPECT_EQ(rng.exponential(-1.0), 0.0);
}

TEST(Rng, LognormalMeanTargetsMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal_mean(2.0, 0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0};
  int hi = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_index(w) == 1) ++hi;
  }
  EXPECT_NEAR(static_cast<double>(hi) / n, 0.75, 0.03);
}

TEST(Rng, WeightedIndexDegenerate) {
  Rng rng(1);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(zero), 0u);
}

TEST(Rng, ForkDecorrelates) {
  Rng rng(5);
  const auto s1 = rng.fork();
  const auto s2 = rng.fork();
  EXPECT_NE(s1, s2);
}

TEST(RunningStats, MeanVariance) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(MovingAverage, ConvergesToConstant) {
  MovingAverage ma(10.0);
  for (int i = 0; i < 500; ++i) ma.add(3.0);
  EXPECT_NEAR(ma.value(), 3.0, 1e-9);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"a", fmt(1.5)});
  t.add_row({"bb", fmt_int(42)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("bb,42"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.to_string().find("x"), std::string::npos);
}

TEST(Fmt, Helpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_int(-7), "-7");
  EXPECT_EQ(fmt_pct(0.215, 1), "21.5%");
}

TEST(EnvFlags, FallbacksAndParsing) {
  EXPECT_EQ(env_int("DECIMA_DOES_NOT_EXIST", 5), 5);
  setenv("DECIMA_TEST_FLAG", "17", 1);
  EXPECT_EQ(env_int("DECIMA_TEST_FLAG", 5), 17);
  setenv("DECIMA_TEST_FLAG", "junk", 1);
  EXPECT_EQ(env_int("DECIMA_TEST_FLAG", 5), 5);
  unsetenv("DECIMA_TEST_FLAG");
}

TEST(Sparkline, Renders) {
  const std::string s = ascii_sparkline({0, 1, 2, 3}, 10);
  EXPECT_EQ(s.size(), 10u);
}

}  // namespace
}  // namespace decima
