#include "workload/trace.h"

#include <algorithm>
#include <cmath>

namespace decima::workload {

namespace {

sim::JobSpec synth_job(decima::Rng& rng, int index, const TraceConfig& config) {
  sim::JobSpec job;
  job.name = "trace-" + std::to_string(index);

  // DAG size: 41% in [1,3]; the rest Pareto-tailed with alpha ~1.6 so a few
  // DAGs reach hundreds of stages.
  int n;
  if (rng.bernoulli(0.41)) {
    n = rng.uniform_int(1, 3);
  } else {
    n = std::min(config.max_stages,
                 static_cast<int>(std::round(rng.pareto(4.0, 1.6))));
    n = std::max(n, 4);
  }

  // Chain-with-branches structure: production DAGs are mostly deep with
  // moderate fan-in.
  for (int v = 0; v < n; ++v) {
    sim::StageSpec s;
    s.name = job.name + "/s" + std::to_string(v);
    s.num_tasks = std::max(
        1, static_cast<int>(std::round(rng.lognormal_mean(12.0, 1.0))));
    s.task_duration = std::max(0.05, rng.lognormal_mean(1.2, 0.9));
    if (config.with_memory) {
      // Mostly small requests; ~15% memory-hungry stages.
      s.mem_req = rng.bernoulli(0.15) ? rng.uniform(0.6, 1.0)
                                      : rng.uniform(0.02, 0.45);
    }
    if (v > 0) {
      const int num_parents = rng.bernoulli(0.25) ? 2 : 1;
      for (int k = 0; k < num_parents; ++k) {
        // Mostly the previous stage; occasionally a farther ancestor (join).
        const int p = rng.bernoulli(0.75)
                          ? v - 1
                          : rng.uniform_int(0, v - 1);
        if (std::find(s.parents.begin(), s.parents.end(), p) ==
            s.parents.end()) {
          s.parents.push_back(p);
        }
      }
    }
    job.stages.push_back(std::move(s));
  }

  // Parallelism profile: most production jobs scale modestly.
  job.sweet_spot = std::max(2.0, rng.lognormal_mean(15.0, 0.7));
  job.inflation = rng.uniform(0.3, 1.0);
  return job;
}

}  // namespace

std::vector<ArrivingJob> synthesize_trace(const TraceConfig& config) {
  decima::Rng rng(config.seed);
  std::vector<ArrivingJob> out;
  out.reserve(static_cast<std::size_t>(config.num_jobs));

  sim::Time t = 0.0;
  for (int i = 0; i < config.num_jobs; ++i) {
    // Diurnal-style intensity: interarrival mean oscillates so the trace has
    // distinct busy and quiet periods (cf. the "hours 7-9" busy period in
    // Fig. 10). Period chosen so a few cycles fit in a typical run; the
    // modulation shape is shared with diurnal_arrivals (workload/arrivals.h).
    t += rng.exponential(
        config.mean_iat *
        diurnal_iat_factor(t, config.mean_iat * 400.0, config.burstiness));
    out.push_back({synth_job(rng, i, config), t});
  }
  return out;
}

TraceStats trace_stats(const std::vector<ArrivingJob>& trace) {
  TraceStats s;
  if (trace.empty()) return s;
  double stage_sum = 0.0, work_sum = 0.0;
  int ge4 = 0;
  for (const auto& j : trace) {
    const int n = static_cast<int>(j.spec.stages.size());
    stage_sum += n;
    s.max_stages = std::max(s.max_stages, n);
    if (n >= 4) ++ge4;
    const double w = sim::JobShape::of(j.spec)->total_work;
    work_sum += w;
    s.max_work = std::max(s.max_work, w);
  }
  s.frac_ge4_stages =
      static_cast<double>(ge4) / static_cast<double>(trace.size());
  s.mean_stages = stage_sum / static_cast<double>(trace.size());
  s.mean_work = work_sum / static_cast<double>(trace.size());
  return s;
}

}  // namespace decima::workload
