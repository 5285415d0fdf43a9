#include "sched/heuristics.h"

#include <algorithm>

namespace decima::sched {

// Tetris (§7.1 baseline (6)): greedily schedules the (stage, executor class)
// pair that maximizes the dot product of the stage's requested resource
// vector ⟨cpu, mem⟩ and the available resource vector of the class, then
// grants as much parallelism as the stage's tasks need. This is the packing
// ingredient without fairness or DAG-awareness (Appendix F).
Action TetrisScheduler::schedule(const ClusterEnv& env) {
  const auto runnable = env.runnable_nodes();
  if (runnable.empty()) return Action::none();
  const auto& classes = env.executor_classes();

  NodeRef best;
  int best_class = -1;
  double best_score = -1.0;
  for (const NodeRef node : runnable) {
    const auto& spec = env.jobs()[static_cast<std::size_t>(node.job)]
                           .spec.stages[static_cast<std::size_t>(node.stage)];
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (!classes[c].fits(spec.mem_req)) continue;
      const int free_c = env.free_executor_count_of_class(static_cast<int>(c));
      if (free_c == 0) continue;
      // Demand ⟨cpu=1, mem_req⟩ · availability ⟨free slots, free memory⟩.
      const double avail_cpu = static_cast<double>(free_c);
      const double avail_mem = static_cast<double>(free_c) * classes[c].mem;
      const double score = spec.cpu_req * avail_cpu + spec.mem_req * avail_mem;
      if (score > best_score) {
        best_score = score;
        best = node;
        best_class = static_cast<int>(c);
      }
    }
  }
  if (!best.valid()) return Action::none();
  Action a;
  a.node = best;
  a.limit = env.total_executors();  // greedy: as much parallelism as possible
  a.exec_class = classes.size() == 1 ? -1 : best_class;
  return a;
}

}  // namespace decima::sched
