#include "sched/heuristics.h"

#include <algorithm>

namespace decima::sched {

NodeRef critical_path_stage(const ClusterEnv& env, int job) {
  const sim::JobState& j = env.jobs()[static_cast<std::size_t>(job)];
  const std::vector<double>& cp = j.shape->critical_path;
  NodeRef best;
  double best_cp = -1.0;
  for (std::size_t v = 0; v < j.stages.size(); ++v) {
    if (!j.stages[v].runnable()) continue;
    if (cp[v] > best_cp) {
      best_cp = cp[v];
      best = NodeRef{job, static_cast<int>(v)};
    }
  }
  return best;
}

NodeRef first_runnable_stage(const ClusterEnv& env, int job) {
  const sim::JobState& j = env.jobs()[static_cast<std::size_t>(job)];
  for (std::size_t v = 0; v < j.stages.size(); ++v) {
    if (j.stages[v].runnable()) return NodeRef{job, static_cast<int>(v)};
  }
  return NodeRef{};
}

NodeRef round_robin_stage(const ClusterEnv& env, int job, int& cursor) {
  const sim::JobState& j = env.jobs()[static_cast<std::size_t>(job)];
  const int n = static_cast<int>(j.stages.size());
  for (int k = 0; k < n; ++k) {
    const int v = (cursor + k) % n;
    if (j.stages[static_cast<std::size_t>(v)].runnable()) {
      cursor = (v + 1) % n;
      return NodeRef{job, v};
    }
  }
  return NodeRef{};
}

int best_fit_class(const ClusterEnv& env, double mem_req) {
  const auto& classes = env.executor_classes();
  if (classes.size() == 1) return -1;  // single-resource setup: no preference
  int best = -1;
  double best_mem = 2.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (!classes[c].fits(mem_req)) continue;
    if (env.free_executor_count_of_class(static_cast<int>(c)) == 0) continue;
    if (classes[c].mem < best_mem) {
      best_mem = classes[c].mem;
      best = static_cast<int>(c);
    }
  }
  return best;
}

std::vector<int> jobs_with_runnable_stages(const ClusterEnv& env) {
  std::vector<int> out;
  const auto& jobs = env.jobs();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sim::JobState& job = jobs[j];
    if (!job.arrived || job.done()) continue;
    for (const auto& st : job.stages) {
      if (st.runnable()) {
        out.push_back(static_cast<int>(j));
        break;
      }
    }
  }
  return out;
}

}  // namespace decima::sched
