#include "rl/objectives.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace decima::rl {

namespace {

// Applies `penalty(t0, t1)` over the K+1 action-aligned intervals in time
// order, so a penalty may carry state from one interval to the next.
template <typename F>
std::vector<double> per_interval(const sim::ClusterEnv& env, F&& penalty) {
  const auto& times = env.action_times();
  std::vector<double> out;
  out.reserve(times.size() + 1);
  double prev = 0.0;
  for (double t : times) {
    out.push_back(-penalty(prev, t));
    prev = t;
  }
  out.push_back(-penalty(prev, env.now()));
  return out;
}

// ∫_{t0}^{t1} age_j(t) dt for one job active on a sub-interval.
double age_integral(double arrival, double finish, double t0, double t1) {
  const double lo = std::max(t0, arrival);
  const double hi = std::min(t1, finish);
  if (hi <= lo) return 0.0;
  const double a0 = lo - arrival;
  const double a1 = hi - arrival;
  return 0.5 * (a1 * a1 - a0 * a0);
}

}  // namespace

std::vector<double> avg_jct_rewards(const sim::ClusterEnv& env) {
  // J(t) steps +1 at each arrival and -1 at each completion; the integral
  // walks the steps in time order. Steps that share an instant add
  // count * 0.0 after the first, so their order among themselves changes no
  // bit.
  std::vector<std::pair<double, int>> steps;
  for (const auto& j : env.jobs()) {
    if (!j.arrived) continue;
    steps.emplace_back(j.arrival, +1);
    if (j.done()) steps.emplace_back(j.finish, -1);
  }
  std::sort(steps.begin(), steps.end());
  std::size_t next = 0;
  int count = 0;
  return per_interval(env, [&](double t0, double t1) {
    double area = 0.0;
    double prev = t0;
    for (; next < steps.size() && steps[next].first <= t1; ++next) {
      area += count * (steps[next].first - prev);
      count += steps[next].second;
      prev = steps[next].first;
    }
    return area + count * (t1 - prev);
  });
}

std::vector<double> makespan_rewards(const sim::ClusterEnv& env) {
  return per_interval(env, [](double t0, double t1) { return t1 - t0; });
}

std::vector<double> tail_jct_rewards(const sim::ClusterEnv& env) {
  const auto& jobs = env.jobs();
  return per_interval(env, [&](double t0, double t1) {
    double total = 0.0;
    for (const auto& j : jobs) {
      if (!j.arrived) continue;
      const double fin = j.done() ? j.finish : env.now();
      total += age_integral(j.arrival, fin, t0, t1);
    }
    return total;
  });
}

std::vector<double> deadline_rewards(const sim::ClusterEnv& env,
                                     const DeadlineConfig& config) {
  const auto& jobs = env.jobs();
  // Precompute per-job deadline and miss time (the moment the miss becomes
  // definite: the late finish, or the deadline itself if still unfinished).
  std::vector<double> miss_at;
  for (const auto& j : jobs) {
    if (!j.arrived) continue;
    const double deadline =
        j.arrival + config.slack * j.shape->critical_path_duration;
    if (j.done()) {
      if (j.finish > deadline) miss_at.push_back(j.finish);
    } else if (env.now() > deadline) {
      miss_at.push_back(deadline);
    }
  }
  const auto& times = env.action_times();
  std::vector<double> out = avg_jct_rewards(env);
  double prev = 0.0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    const double t =
        k < times.size() ? times[k] : std::max(prev, env.now());
    for (double m : miss_at) {
      if (m > prev && m <= t) out[k] -= config.miss_penalty;
    }
    prev = t;
  }
  return out;
}

double deadline_hit_rate(const sim::ClusterEnv& env,
                         const DeadlineConfig& config) {
  int done = 0, hit = 0;
  for (const auto& j : env.jobs()) {
    if (!j.done()) continue;
    ++done;
    const double deadline =
        j.arrival + config.slack * j.shape->critical_path_duration;
    if (j.finish <= deadline) ++hit;
  }
  return done ? static_cast<double>(hit) / done : 0.0;
}

}  // namespace decima::rl
