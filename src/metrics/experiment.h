// One-stop experiment runner: builds an environment, loads a workload, runs a
// scheduler, and returns the metrics every bench/test consumes.
//
// Thread-safety: stateless free functions; safe from concurrent threads as
// long as each call owns its env/scheduler (the rollout-worker pattern,
// docs/concurrency.md) — which is why no util/sync.h lock lives here.
#pragma once

#include <vector>

#include "sim/cluster_env.h"
#include "sim/scheduler.h"
#include "workload/arrivals.h"

namespace decima::metrics {

struct RunResult {
  double avg_jct = 0.0;
  double makespan = 0.0;
  int jobs_completed = 0;
  int jobs_total = 0;
  std::vector<double> jcts;
  bool all_done = false;
};

// Runs one full episode (until all jobs complete or `until` simulated
// seconds elapse) and summarizes it.
RunResult run_episode(const sim::EnvConfig& config,
                      const std::vector<workload::ArrivingJob>& workload,
                      sim::Scheduler& sched, sim::Time until = sim::kInfTime);

// Same, but also hands back the environment for trace-level analysis.
RunResult run_episode(sim::ClusterEnv& env,
                      const std::vector<workload::ArrivingJob>& workload,
                      sim::Scheduler& sched, sim::Time until = sim::kInfTime);

// Mean avg-JCT of `sched` over full episodes of `workloads`; unfinished jobs
// are charged their age at episode end, so unstable policies score poorly
// instead of vacuously.
double evaluate_avg_jct(sim::Scheduler& sched, const sim::EnvConfig& config,
                        const std::vector<std::vector<workload::ArrivingJob>>&
                            workloads);

}  // namespace decima::metrics
