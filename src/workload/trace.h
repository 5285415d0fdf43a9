// Synthetic industrial trace, standing in for Alibaba cluster-trace-v2018.
//
// The paper (§7.3) uses ~20,000 production jobs where 59% of DAGs have four
// or more stages and some have hundreds, with per-task CPU/memory requests
// and bursty arrivals. The public trace is not available offline, so this
// generator reproduces those aggregate properties from a seeded model:
//   - DAG size: 41% small (1-3 stages), 59% ≥ 4, Pareto tail up to `max_stages`;
//   - task counts & durations: heavy-tailed lognormals;
//   - memory requests: mixture favoring small requests with occasional
//     memory-hungry stages;
//   - arrivals: Poisson process modulated by a diurnal-style intensity with
//     busy "peak hours" (drives the busy-period analysis of Fig. 10/20).
#pragma once

#include <cstdint>
#include <vector>

#include "workload/arrivals.h"

namespace decima::workload {

struct TraceConfig {
  int num_jobs = 2000;
  double mean_iat = 20.0;   // base mean interarrival time (seconds)
  double burstiness = 0.6;  // 0 = homogeneous Poisson, 1 = strong peaks
  int max_stages = 200;
  std::uint64_t seed = 7;
  bool with_memory = true;  // emit per-stage memory requests
};

// Generates the full trace, arrival-sorted.
std::vector<ArrivingJob> synthesize_trace(const TraceConfig& config);

// Aggregate statistics used by tests to verify trace shape.
struct TraceStats {
  double frac_ge4_stages = 0.0;  // fraction of DAGs with >= 4 stages
  int max_stages = 0;
  double mean_stages = 0.0;
  double max_work = 0.0;
  double mean_work = 0.0;
};
TraceStats trace_stats(const std::vector<ArrivingJob>& trace);

}  // namespace decima::workload
