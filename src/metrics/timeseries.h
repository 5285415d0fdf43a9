// Time-series and per-job analyses backing Fig. 10 / Fig. 12 / Fig. 20/21:
// concurrent-job counts over time, executor usage per job, executed-work
// inflation, and executor-class usage profiles.
#pragma once

#include <vector>

#include "sim/cluster_env.h"

namespace decima::metrics {

// Number of jobs in the system sampled every `step` seconds over [0, end].
std::vector<double> concurrent_jobs_series(const sim::ClusterEnv& env,
                                           double step);

// Mean number of executors each job held while it was active (executor-
// seconds / JCT), indexed by job.
std::vector<double> mean_executors_per_job(const sim::ClusterEnv& env);

// Executed work (inflated, from the trace) per job, indexed by job. Compare
// with JobShape::total_work to measure work inflation (Fig. 10e).
std::vector<double> executed_work_per_job(const sim::ClusterEnv& env);

// For multi-resource experiments: the number of tasks each job ran on each
// executor class; result[job][class].
std::vector<std::vector<int>> class_usage_per_job(const sim::ClusterEnv& env);

// Renders the executor-by-time occupancy as ASCII art (Fig. 3 / Fig. 13
// schedule visualizations): one row per executor, one column per time step;
// letters identify jobs, '.' is idle.
std::string ascii_gantt(const sim::ClusterEnv& env, int width = 100);

}  // namespace decima::metrics
