// Figure 22 (Appendix H): how close is Decima to optimal?
//
// In a simplified environment (no waves, no startup delay, no inflation —
// stage durations scale perfectly with executors), an exhaustive search over
// all job orderings yields a near-optimal schedule. The paper compares
// Decima against that search, SJF-CP, and the tuned weighted-fair heuristic
// on batches of 10 jobs; Decima matches or slightly beats the search.
// We run the same protocol with a (configurable) smaller batch so the n!
// search stays tractable in a bench.
#include "bench_common.h"

#include <algorithm>

using namespace decima;

namespace {

sim::EnvConfig simplified_env(int execs) {
  sim::EnvConfig c;
  c.num_executors = execs;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  return c;
}

// Follows a fixed job ordering: all executors to the earliest unfinished job
// in the order, critical-path stages first.
struct JobOrderScheduler : sim::Scheduler {
  explicit JobOrderScheduler(std::vector<int> order) : order_(std::move(order)) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    for (int j : order_) {
      const auto node = sched::critical_path_stage(env, j);
      if (node.valid()) {
        sim::Action a;
        a.node = node;
        a.limit = env.total_executors();
        return a;
      }
    }
    return sim::Action::none();
  }
  std::string name() const override { return "job-order"; }
  std::vector<int> order_;
};

double run_order(const sim::EnvConfig& env,
                 const std::vector<workload::ArrivingJob>& workload,
                 std::vector<int> order) {
  JobOrderScheduler sched(std::move(order));
  return metrics::run_episode(env, workload, sched).avg_jct;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 22 (Appendix H)",
      "Simplified environment (perfectly elastic stages): Decima vs an\n"
      "exhaustive search over all job orderings, SJF-CP, and tuned\n"
      "weighted fair. Paper: Decima matches the exhaustive search (and\n"
      "beats it slightly by adapting stage order at runtime).");

  constexpr int num_jobs = 6;  // 6! = 720 orderings
  const sim::EnvConfig env = simplified_env(10);
  const auto sampler = bench::tpch_batch_sampler(num_jobs);

  rl::TrainConfig train;
  train.episodes_per_iter = 8;
  train.rollout_threads = 8;
  train.curriculum = false;
  train.differential_reward = false;
  train.env = env;
  train.sampler = sampler;
  auto decima = bench::trained_agent(bench::agent_with_seed(41), train,
                                     "fig22_simplified",
                                     bench::train_iters(80));

  sched::SjfCpScheduler sjf;
  sched::WeightedFairScheduler opt(-1.0);

  const int experiments = std::max(3, bench::bench_runs(6) / 2);
  RunningStats s_search, s_decima, s_sjf, s_fair;
  for (int e = 0; e < experiments; ++e) {
    const auto workload = sampler(81000 + static_cast<std::uint64_t>(e));

    // Exhaustive search over all num_jobs! orderings.
    std::vector<int> order(static_cast<std::size_t>(num_jobs));
    for (int i = 0; i < num_jobs; ++i) order[static_cast<std::size_t>(i)] = i;
    double best = 1e18;
    std::sort(order.begin(), order.end());
    do {
      best = std::min(best, run_order(env, workload, order));
    } while (std::next_permutation(order.begin(), order.end()));

    s_search.add(best);
    s_decima.add(metrics::run_episode(env, workload, *decima).avg_jct);
    s_sjf.add(metrics::run_episode(env, workload, sjf).avg_jct);
    s_fair.add(metrics::run_episode(env, workload, opt).avg_jct);
  }

  Table t({"scheduler", "mean avg JCT [s]", "vs exhaustive search"});
  auto rel = [&](double x) {
    return fmt_pct((x - s_search.mean()) / s_search.mean());
  };
  t.add_row({"Exhaustive job-order search", fmt(s_search.mean(), 1), "-"});
  t.add_row({"Decima", fmt(s_decima.mean(), 1), rel(s_decima.mean())});
  t.add_row({"SJF-CP", fmt(s_sjf.mean(), 1), rel(s_sjf.mean())});
  t.add_row({"Opt. weighted fair", fmt(s_fair.mean(), 1), rel(s_fair.mean())});
  std::cout << t.to_string();
  std::cout << "\n(" << num_jobs << " jobs => "
            << [&] {
                 long long f = 1;
                 for (int i = 2; i <= num_jobs; ++i) f *= i;
                 return f;
               }()
            << " orderings per experiment, " << experiments
            << " experiments)\n"
            << "paper shape: search < SJF-CP < weighted fair in the\n"
               "simplified setting; Decima within ~±10% of the search.\n";
  return 0;
}
