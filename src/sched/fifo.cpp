#include "sched/heuristics.h"

namespace decima::sched {

// Spark's default FIFO scheduling (§7.1 baseline (1)): jobs are served in
// arrival order and each job is granted as many executors as it can use (the
// behavior of a user requesting the whole cluster, the common default).
// Leftover executors spill over to the next job in arrival order because the
// environment re-queries within the same scheduling event.
Action FifoScheduler::schedule(const ClusterEnv& env) {
  int best = -1;
  double best_arrival = sim::kInfTime;
  for (int j : env.active_jobs()) {
    const auto& job = env.jobs()[static_cast<std::size_t>(j)];
    if (job.runnable_stages == 0) continue;
    if (job.arrival < best_arrival) {
      best_arrival = job.arrival;
      best = j;
    }
  }
  if (best < 0) return Action::none();
  const NodeRef node = first_runnable_stage(env, best);
  if (!node.valid()) return Action::none();
  Action a;
  a.node = node;
  a.limit = env.total_executors();
  a.exec_class = best_fit_class(
      env, env.jobs()[static_cast<std::size_t>(best)]
               .spec.stages[static_cast<std::size_t>(node.stage)]
               .mem_req);
  return a;
}

}  // namespace decima::sched
