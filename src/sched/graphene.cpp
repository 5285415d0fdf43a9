#include "sched/heuristics.h"

#include <algorithm>
#include <cmath>

namespace decima::sched {

// Graphene* (§7.1 baseline (7), Appendix F): an adaptation of Graphene
// [OSDI'16] to discrete executor classes.
//  - Troublesome nodes: stages that carry a large fraction of their job's
//    work or have a large memory request (Graphene §4.1's long/resource-
//    hungry criterion). Their priority is suppressed until the *whole*
//    troublesome group of the DAG is simultaneously runnable, so the group
//    gets scheduled together (Graphene's offline planning essence).
//  - Parallelism control: tuned weighted fair shares (T_i^alpha).
//  - Packing: best-fit executor class by memory.
std::vector<int> GrapheneScheduler::troublesome_stages(
    const sim::JobSpec& spec, const sim::JobShape& shape,
    const GrapheneConfig& config) {
  std::vector<int> out;
  const double total = std::max(shape.total_work, 1e-9);
  for (std::size_t v = 0; v < spec.stages.size(); ++v) {
    const bool long_stage =
        spec.stages[v].work() / total > config.work_threshold;
    const bool hungry = spec.stages[v].mem_req > config.mem_threshold;
    if (long_stage || hungry) out.push_back(static_cast<int>(v));
  }
  return out;
}

Action GrapheneScheduler::schedule(const ClusterEnv& env) {
  const auto& jobs = env.jobs();
  // The troublesome groups of jobs loaded since the last call.
  troublesome_.reserve(jobs.size());
  for (std::size_t j = troublesome_.size(); j < jobs.size(); ++j) {
    troublesome_.push_back(
        troublesome_stages(jobs[j].spec, *jobs[j].shape, config_));
  }

  // Weighted fair targets, as in WeightedFairScheduler.
  auto weight = [&](int j) {
    return std::pow(
        std::max(jobs[static_cast<std::size_t>(j)].shape->total_work, 1e-9),
        config_.alpha);
  };
  double total_weight = 0.0;
  for (int j : env.active_jobs()) total_weight += weight(j);
  if (env.active_jobs().empty()) return Action::none();
  auto target = [&](int j) {
    return std::max(1, static_cast<int>(std::floor(
                           env.total_executors() * weight(j) /
                           std::max(total_weight, 1e-12))));
  };

  // A troublesome node is eligible only when its job's entire troublesome
  // group is currently runnable or already finished.
  auto group_ready = [&](const sim::JobState& job,
                         const std::vector<int>& group) {
    for (int v : group) {
      const auto& st = job.stages[static_cast<std::size_t>(v)];
      const bool finished_or_running = st.waiting == 0;
      if (!st.runnable() && !finished_or_running) return false;
    }
    return true;
  };

  // Choose among the runnable stages, in job-then-stage order: prefer jobs
  // under their fair-share target with the largest deficit; among a job's
  // runnable stages prefer (a) eligible troublesome groups (schedule them
  // together), then (b) critical-path order.
  NodeRef first;  // the first runnable stage
  NodeRef best;
  double best_key = -1e18;
  int best_limit = 0;
  for (int j : env.active_jobs()) {
    const sim::JobState& job = jobs[static_cast<std::size_t>(j)];
    if (job.runnable_stages == 0) continue;
    const std::vector<int>& group = troublesome_[static_cast<std::size_t>(j)];
    const bool ready = group_ready(job, group);
    const int tgt = target(j);
    const int cur = job.executors;
    const double deficit =
        static_cast<double>(tgt - cur) / static_cast<double>(std::max(tgt, 1));
    for (std::size_t v = 0; v < job.stages.size(); ++v) {
      if (!job.stages[v].runnable()) continue;
      const NodeRef node{j, static_cast<int>(v)};
      if (!first.valid()) first = node;
      const bool troublesome =
          std::binary_search(group.begin(), group.end(), node.stage);
      if (troublesome && !ready) continue;  // suppressed
      double key = deficit * 1e6 + job.shape->critical_path[v];
      if (troublesome) key += 1e9;  // group goes together
      if (key > best_key) {
        best_key = key;
        best = node;
        best_limit = cur < tgt ? tgt : cur + env.free_executor_count();
      }
    }
  }
  if (!first.valid()) return Action::none();
  if (!best.valid()) {
    // Everything runnable is a suppressed troublesome node; fall back to the
    // first runnable stage so the cluster is not left idle.
    best = first;
    best_limit = jobs[static_cast<std::size_t>(best.job)].executors +
                 env.free_executor_count();
  }

  Action a;
  a.node = best;
  a.limit = best_limit;
  a.exec_class = best_fit_class(
      env, jobs[static_cast<std::size_t>(best.job)]
               .spec.stages[static_cast<std::size_t>(best.stage)]
               .mem_req);
  return a;
}

}  // namespace decima::sched
