#include "metrics/experiment.h"

namespace decima::metrics {

RunResult run_episode(sim::ClusterEnv& env,
                      const std::vector<workload::ArrivingJob>& workload,
                      sim::Scheduler& sched, sim::Time until) {
  workload::load(env, workload);
  env.run(sched, until);
  RunResult r;
  r.avg_jct = env.avg_jct();
  r.makespan = env.makespan();
  r.jcts = env.jcts();
  r.jobs_completed = static_cast<int>(r.jcts.size());
  r.jobs_total = static_cast<int>(env.jobs().size());
  r.all_done = env.all_done();
  return r;
}

RunResult run_episode(const sim::EnvConfig& config,
                      const std::vector<workload::ArrivingJob>& workload,
                      sim::Scheduler& sched, sim::Time until) {
  sim::ClusterEnv env(config);
  return run_episode(env, workload, sched, until);
}

double evaluate_avg_jct(
    sim::Scheduler& sched, const sim::EnvConfig& config,
    const std::vector<std::vector<workload::ArrivingJob>>& workloads) {
  double total = 0.0;
  for (const auto& w : workloads) {
    sim::ClusterEnv env(config);
    workload::load(env, w);
    env.run(sched);
    double jct_sum = 0.0;
    for (const auto& job : env.jobs()) {
      jct_sum += job.done() ? job.jct() : env.now() - job.arrival;
    }
    total += jct_sum / static_cast<double>(env.jobs().size());
  }
  return total / static_cast<double>(workloads.size());
}

}  // namespace decima::metrics
