#include "sched/heuristics.h"

namespace decima::sched {

// Shortest-job-first critical-path heuristic (§7.1 baseline (2)): strictly
// prioritizes the job with the least total work, and within that job runs
// tasks from the next stage on its critical path.
Action SjfCpScheduler::schedule(const ClusterEnv& env) {
  int best = -1;
  double best_work = sim::kInfTime;
  for (int j : env.active_jobs()) {
    const auto& job = env.jobs()[static_cast<std::size_t>(j)];
    if (job.runnable_stages == 0) continue;
    const double w = job.shape->total_work;
    if (w < best_work) {
      best_work = w;
      best = j;
    }
  }
  if (best < 0) return Action::none();
  const NodeRef node = critical_path_stage(env, best);
  if (!node.valid()) return Action::none();
  Action a;
  a.node = node;
  a.limit = env.total_executors();  // SJF dedicates all slots to the next job
  a.exec_class = best_fit_class(
      env, env.jobs()[static_cast<std::size_t>(best)]
               .spec.stages[static_cast<std::size_t>(node.stage)]
               .mem_req);
  return a;
}

}  // namespace decima::sched
