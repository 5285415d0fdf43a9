// Figure 18 (Appendix D): simulator fidelity.
//
// The paper compares simulated vs real Spark job durations (mean error <=5%
// isolated, <=9% shared). We have no physical cluster, so the
// "real" system is the high-fidelity stochastic simulator (duration noise,
// wave effect, moving delay ON — averaged over repetitions) and the
// "simulator" is the deterministic expectation-mode engine the trainer uses.
// We report the same per-query error statistics, isolated and shared.
#include "bench_common.h"

using namespace decima;

namespace {

double run_isolated(int query, bool realistic, std::uint64_t seed) {
  sim::EnvConfig c;
  c.num_executors = 10;
  c.duration_noise = realistic ? 0.25 : 0.0;
  c.seed = seed;
  sim::ClusterEnv env(c);
  env.add_job(workload::make_tpch_job(query, 20), 0.0);
  sched::WeightedFairScheduler fair(0.0);
  env.run(fair);
  return env.jobs()[0].finish;
}

std::vector<double> run_shared(bool realistic, std::uint64_t seed) {
  sim::EnvConfig c;
  c.num_executors = 20;
  c.duration_noise = realistic ? 0.25 : 0.0;
  c.seed = seed;
  sim::ClusterEnv env(c);
  for (int q = 1; q <= 22; ++q) {
    env.add_job(workload::make_tpch_job(q, 10),
                static_cast<double>(q - 1) * 5.0);
  }
  sched::WeightedFairScheduler fair(0.0);
  env.run(fair);
  std::vector<double> jcts;
  for (const auto& j : env.jobs()) jcts.push_back(j.jct());
  return jcts;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 18 (Appendix D)",
      "Simulator fidelity: deterministic training simulator vs the\n"
      "high-fidelity stochastic engine standing in for 'real Spark'\n"
      "(no physical cluster here). Paper: mean error <=5%\n"
      "isolated, <=9% shared.");

  const int reps = std::max(5, bench::bench_runs(10));

  // Isolated, per query.
  Table ta({"query", "'real' mean [s]", "simulated [s]", "error"});
  RunningStats iso_err;
  for (int q = 1; q <= 22; ++q) {
    RunningStats real;
    for (int r = 0; r < reps; ++r) {
      real.add(run_isolated(q, true, 1000 + static_cast<std::uint64_t>(r)));
    }
    const double simulated = run_isolated(q, false, 1);
    const double err = std::abs(simulated - real.mean()) / real.mean();
    iso_err.add(err);
    ta.add_row({"Q" + std::to_string(q), fmt(real.mean(), 1), fmt(simulated, 1),
                fmt_pct(err)});
  }
  std::cout << "(a) single job in isolation\n" << ta.to_string();
  std::cout << "mean error: " << fmt_pct(iso_err.mean())
            << ", max: " << fmt_pct(iso_err.max()) << " (paper: mean <=5%)\n\n";

  // Shared cluster.
  RunningStats shared_err;
  std::vector<RunningStats> real_jcts(22);
  for (int r = 0; r < reps; ++r) {
    const auto jcts = run_shared(true, 2000 + static_cast<std::uint64_t>(r));
    for (int q = 0; q < 22; ++q) real_jcts[static_cast<std::size_t>(q)].add(jcts[static_cast<std::size_t>(q)]);
  }
  const auto sim_jcts = run_shared(false, 1);
  for (int q = 0; q < 22; ++q) {
    const double real = real_jcts[static_cast<std::size_t>(q)].mean();
    shared_err.add(std::abs(sim_jcts[static_cast<std::size_t>(q)] - real) / real);
  }
  std::cout << "(b) mixture of all 22 queries on a shared cluster\n"
            << "mean error: " << fmt_pct(shared_err.mean())
            << ", max: " << fmt_pct(shared_err.max())
            << " (paper: mean <=9%, p95 <=20%)\n";
  return 0;
}
