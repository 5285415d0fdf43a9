// Streaming and batch statistics helpers used by metrics and benches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace decima {

// Welford streaming mean/variance.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance of the samples seen
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  void reset();

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exponential moving average; `horizon` is the effective averaging window in
// number of samples (the paper uses a 1e5-step window for the differential
// reward baseline).
class MovingAverage {
 public:
  explicit MovingAverage(double horizon) : alpha_(1.0 / std::max(horizon, 1.0)) {}
  void add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ += alpha_ * (x - value_);
    }
  }
  double value() const { return value_; }
  bool initialized() const { return initialized_; }
  // Restores a snapshot taken via value()/initialized() (checkpoint resume).
  void restore(double value, bool initialized) {
    value_ = value;
    initialized_ = initialized;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;

  static double max(double a, double b) { return a > b ? a : b; }
};

// Percentile of a sample set with linear interpolation; p in [0, 100].
double percentile(std::vector<double> samples, double p);

double mean_of(const std::vector<double>& samples);

// Render a crude ASCII CDF/series sparkline for console output.
std::string ascii_sparkline(const std::vector<double>& values, int width = 60);

}  // namespace decima
