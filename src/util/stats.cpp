#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace decima {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::reset() { *this = RunningStats{}; }

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  p = std::clamp(p, 0.0, 100.0);
  const double idx = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples) s += x;
  return s / static_cast<double>(samples.size());
}

std::string ascii_sparkline(const std::vector<double>& values, int width) {
  static const char* levels = " .:-=+*#%@";
  if (values.empty() || width <= 0) return "";
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = hi - lo;
  std::string out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const std::size_t idx =
        std::min(values.size() - 1,
                 static_cast<std::size_t>(static_cast<double>(i) /
                                          std::max(width - 1, 1) *
                                          static_cast<double>(values.size() - 1)));
    const double norm = range > 0 ? (values[idx] - lo) / range : 0.5;
    const int level = std::clamp(static_cast<int>(norm * 9.0), 0, 9);
    out.push_back(levels[level]);
  }
  return out;
}

}  // namespace decima
