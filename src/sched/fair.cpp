#include "sched/heuristics.h"

#include <algorithm>
#include <cmath>

namespace decima::sched {

// Weighted fair scheduling (§7.1 baselines (3)-(5)): each unfinished job i
// receives a share of the executors proportional to T_i^alpha, where T_i is
// the job's total work. alpha = 0 is the simple fair scheme, alpha = 1 the
// naive weighted fair one, and the tuned variant sweeps alpha (usually to
// ≈ -1, i.e. shares inversely proportional to job size). Within a job the
// scheduler round-robins over runnable stages to drain all branches
// concurrently. When a job cannot absorb its share, the spare executors are
// backfilled to other jobs (work conservation).
Action WeightedFairScheduler::schedule(const ClusterEnv& env) {
  const auto& jobs = env.jobs();
  cursors_.resize(jobs.size(), 0);

  // Shares are computed over all active (arrived, unfinished) jobs, whether
  // or not they have a runnable stage at this instant.
  auto weight = [&](int j) {
    return std::pow(
        std::max(jobs[static_cast<std::size_t>(j)].shape->total_work, 1e-9),
        alpha_);
  };
  double total_weight = 0.0;
  for (int j : env.active_jobs()) total_weight += weight(j);
  if (env.active_jobs().empty() || total_weight <= 0.0) return Action::none();

  // Target allocation per job (at least 1 to avoid starvation).
  auto target = [&](int j) {
    return std::max(1, static_cast<int>(std::floor(
                           env.total_executors() * weight(j) / total_weight)));
  };

  // Over the jobs with a runnable stage: the most-deficit job below its
  // target, and the first with the fewest executors (for backfill).
  int best = -1;
  int fewest = -1;
  double best_deficit = 0.0;
  for (int j : env.active_jobs()) {
    const sim::JobState& job = jobs[static_cast<std::size_t>(j)];
    if (job.runnable_stages == 0) continue;
    if (fewest < 0 ||
        job.executors < jobs[static_cast<std::size_t>(fewest)].executors) {
      fewest = j;
    }
    const int t = target(j);
    const double deficit = static_cast<double>(t - job.executors) /
                           static_cast<double>(std::max(t, 1));
    if (job.executors < t && deficit > best_deficit) {
      best_deficit = deficit;
      best = j;
    }
  }
  if (fewest < 0) return Action::none();

  int limit;
  if (best >= 0) {
    limit = target(best);
  } else {
    // Backfill: all runnable jobs are at/above target but executors remain
    // free. Give the spare capacity to the job with the fewest executors.
    best = fewest;
    limit = jobs[static_cast<std::size_t>(best)].executors +
            env.free_executor_count();
  }

  const NodeRef node =
      round_robin_stage(env, best, cursors_[static_cast<std::size_t>(best)]);
  if (!node.valid()) return Action::none();
  Action a;
  a.node = node;
  a.limit = limit;
  a.exec_class = best_fit_class(
      env, jobs[static_cast<std::size_t>(best)]
               .spec.stages[static_cast<std::size_t>(node.stage)]
               .mem_req);
  return a;
}

std::string WeightedFairScheduler::name() const {
  if (alpha_ == 0.0) return "Fair";
  if (alpha_ == 1.0) return "NaiveWeightedFair";
  return "WeightedFair(alpha=" + std::to_string(alpha_).substr(0, 5) + ")";
}

}  // namespace decima::sched
