#include "sched/tuning.h"

#include "metrics/experiment.h"

namespace decima::sched {

std::vector<double> alpha_grid(double step) {
  std::vector<double> out;
  for (double a = -2.0; a <= 2.0 + 1e-9; a += step) out.push_back(a);
  return out;
}

TuneResult tune_weighted_fair_alpha(
    const sim::EnvConfig& config,
    const std::vector<std::vector<workload::ArrivingJob>>& workloads,
    const std::vector<double>& grid) {
  TuneResult best;
  bool first = true;
  for (double alpha : grid) {
    WeightedFairScheduler sched(alpha);
    const double jct = metrics::evaluate_avg_jct(sched, config, workloads);
    if (first || jct < best.avg_jct) {
      best.alpha = alpha;
      best.avg_jct = jct;
      first = false;
    }
  }
  return best;
}

GrapheneTuneResult tune_graphene(
    const sim::EnvConfig& config,
    const std::vector<std::vector<workload::ArrivingJob>>& workloads) {
  GrapheneTuneResult best;
  bool first = true;
  for (double work_th : {0.2, 0.3, 0.5}) {
    for (double mem_th : {0.4, 0.6, 0.8}) {
      for (double alpha : {-1.5, -1.0, -0.5}) {
        GrapheneConfig c;
        c.work_threshold = work_th;
        c.mem_threshold = mem_th;
        c.alpha = alpha;
        GrapheneScheduler sched(c);
        const double jct =
            metrics::evaluate_avg_jct(sched, config, workloads);
        if (first || jct < best.avg_jct) {
          best.config = c;
          best.avg_jct = jct;
          first = false;
        }
      }
    }
  }
  return best;
}

}  // namespace decima::sched
