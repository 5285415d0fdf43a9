// Robustness scenario suite (docs/robustness.md): one trained Decima policy
// against the heuristic baselines across a stress matrix — clean, executor
// failures, stragglers, heterogeneous executor speeds, flash crowd, diurnal
// load with micro-bursts. Per-scenario average JCTs go to
// BENCH_scenarios.json; the clean-scenario policy-vs-worst-heuristic ratio
// is gated in CI (scripts/check_bench.py). DECIMA_SCENARIO_SEED re-seeds the
// fault plans and stress workloads without recompiling.
#include "bench_common.h"
#include "sim/faults.h"
#include "workload/arrivals.h"

using namespace decima;

namespace {

struct Scenario {
  std::string name;
  sim::EnvConfig env;
  rl::WorkloadSampler sampler;
};

}  // namespace

int main() {
  bench::print_header(
      "Robustness scenario suite (docs/robustness.md)",
      "Decima vs heuristics across fault scenarios (failures, stragglers,\n"
      "heterogeneity, flash crowd, diurnal bursts)\n"
      "(writes BENCH_scenarios.json; DECIMA_SCENARIO_SEED re-seeds).");

  const std::uint64_t seed = bench::scenario_seed();

  // --- simulator scenarios ------------------------------------------------
  sim::EnvConfig base;
  base.num_executors = 25;
  const int batch_jobs = 12;
  const auto clean_sampler = bench::tpch_batch_sampler(batch_jobs);

  rl::TrainConfig train;
  train.episodes_per_iter = 8;
  train.rollout_threads = 8;
  train.curriculum = false;
  train.differential_reward = false;
  train.env = base;
  train.sampler = clean_sampler;
  auto decima = bench::trained_agent(bench::agent_with_seed(5), train,
                                     "scenarios_batch", bench::train_iters(60));

  // Size the failure window to the workload's actual horizon so outages land
  // inside the episode at any DECIMA_* budget.
  double horizon;
  {
    sched::FifoScheduler probe;
    std::vector<std::vector<workload::ArrivingJob>> w = {clean_sampler(seed)};
    horizon = metrics::evaluate_avg_jct(probe, base, w);
  }

  std::vector<Scenario> scenarios;
  scenarios.push_back({"clean", base, clean_sampler});
  {
    sim::EnvConfig env = base;
    Rng frng(seed);
    env.faults.failures = sim::random_failures(
        frng, env.num_executors, /*count=*/6, /*window=*/horizon,
        /*mean_downtime=*/horizon / 3.0);
    env.faults.seed = seed + 1;
    scenarios.push_back({"executor_failures", env, clean_sampler});
  }
  {
    sim::EnvConfig env = base;
    env.faults.stragglers = {/*prob=*/0.1, /*factor=*/8.0};
    env.faults.seed = seed + 2;
    scenarios.push_back({"stragglers", env, clean_sampler});
  }
  {
    sim::EnvConfig env = base;
    Rng frng(seed + 3);
    env.faults.executor_speeds = sim::heterogeneous_speeds(
        frng, env.num_executors, /*slow_fraction=*/0.3, /*slow_factor=*/2.0);
    scenarios.push_back({"hetero_executors", env, clean_sampler});
  }
  {
    rl::WorkloadSampler flash = [](std::uint64_t s) {
      Rng rng(s);
      auto specs = workload::sample_tpch_batch(rng, 14);
      Rng arr(rng.fork());
      workload::FlashCrowdConfig fc;
      fc.base_iat = 30.0;
      fc.burst_at = 150.0;
      fc.burst_fraction = 0.5;
      fc.burst_iat = 1.0;
      return workload::flash_crowd(std::move(specs), arr, fc);
    };
    scenarios.push_back({"flash_crowd", base, flash});
  }
  {
    rl::WorkloadSampler diurnal = [](std::uint64_t s) {
      Rng rng(s);
      auto specs = workload::sample_tpch_batch(rng, 14);
      Rng arr(rng.fork());
      workload::DiurnalConfig dc;
      dc.mean_iat = 20.0;
      dc.period = 600.0;
      dc.burstiness = 0.8;
      dc.burst_prob = 0.1;
      dc.burst_size = 4;
      dc.burst_iat = 0.5;
      return workload::diurnal_arrivals(std::move(specs), arr, dc);
    };
    scenarios.push_back({"diurnal_burst", base, diurnal});
  }

  sched::FifoScheduler fifo;
  sched::SjfCpScheduler sjf;
  sched::WeightedFairScheduler fair(0.0);
  const std::vector<std::pair<std::string, sim::Scheduler*>> heuristics = {
      {"fifo", &fifo}, {"sjf_cp", &sjf}, {"fair", &fair}};

  const int runs = bench::bench_runs(10);
  bench::BenchJson json("scenarios");
  json.set("bench", "scenarios");
  json.set("scenario_seed", static_cast<double>(seed));
  json.set("runs", static_cast<double>(runs));
  json.set("num_scenarios", static_cast<double>(scenarios.size()));

  std::cout << "scenario matrix: " << scenarios.size() << " scenarios x "
            << (heuristics.size() + 1) << " schedulers x " << runs
            << " runs (fault horizon ~" << fmt(horizon, 0) << "s)\n\n";
  Table t({"scenario", "decima [s]", "fifo [s]", "sjf_cp [s]", "fair [s]",
           "vs worst", "vs best"});
  for (const Scenario& sc : scenarios) {
    const double policy =
        mean_of(bench::eval_runs(*decima, sc.env, sc.sampler, runs));
    double worst = 0.0;
    double best = 1e18;
    std::vector<double> heur_means;
    for (const auto& [hname, sched] : heuristics) {
      const double m =
          mean_of(bench::eval_runs(*sched, sc.env, sc.sampler, runs));
      json.set(sc.name + "_" + hname + "_jct", m);
      heur_means.push_back(m);
      worst = std::max(worst, m);
      best = std::min(best, m);
    }
    json.set(sc.name + "_policy_jct", policy);
    json.set(sc.name + "_worst_heuristic_jct", worst);
    json.set(sc.name + "_best_heuristic_jct", best);
    const double vs_worst = worst / std::max(policy, 1e-12);
    const double vs_best = best / std::max(policy, 1e-12);
    if (sc.name == "clean") {
      // The one hard CI floor: on the clean scenario the trained policy must
      // not lose to the WORST heuristic. The fault scenarios report plain
      // ratios (no "speedup" in the key) — the policy is allowed to lose
      // there; the suite's job is to measure by how much.
      json.set("clean_policy_vs_worst_heuristic_speedup", vs_worst);
    } else {
      json.set(sc.name + "_policy_vs_worst_ratio", vs_worst);
    }
    json.set(sc.name + "_policy_vs_best_ratio", vs_best);
    t.add_row({sc.name, fmt(policy, 1), fmt(heur_means[0], 1),
               fmt(heur_means[1], 1), fmt(heur_means[2], 1), fmt(vs_worst, 2),
               fmt(vs_best, 2)});
  }
  std::cout << t.to_string();
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\n[bench] wrote " << path << "\n";
  return 0;
}
