// Figure 10 (§7.2): time-series deep-dive of continuous TPC-H arrivals.
//  (a) concurrent jobs in the system over time (busy-period behavior),
//  (b) JCT vs job size scatter summary (Decima finishes small jobs faster),
//  (d) executors assigned vs job size,
//  (e) executed work vs spec work (work inflation control).
// Reuses the continuous-arrival policy trained by bench_fig09_spark_cluster
// (same cache key), so run that bench first for a warm cache.
#include "bench_common.h"

#include "metrics/timeseries.h"

using namespace decima;

int main() {
  bench::print_header(
      "Figure 10 (§7.2)",
      "Time-series analysis of continuous arrivals: Decima keeps the\n"
      "concurrent-job count lower than the tuned heuristic during busy\n"
      "periods by finishing small jobs faster with more executors.");

  sim::EnvConfig env;
  env.num_executors = 15;
  const auto sampler = bench::tpch_continuous_sampler(20, 40.0);

  rl::TrainConfig train;
  train.episodes_per_iter = 8;
  train.rollout_threads = 8;
  train.curriculum = true;
  train.tau_mean_init = 400.0;
  train.tau_mean_max = 2000.0;
  train.tau_mean_growth = 40.0;
  train.differential_reward = true;
  train.env = env;
  train.sampler = sampler;
  auto decima = bench::trained_agent(bench::agent_with_seed(7), train,
                                     "fig09b_continuous",
                                     bench::train_iters(40));
  sched::WeightedFairScheduler opt(-1.0);

  const auto workload = sampler(31337);

  struct RunData {
    std::vector<double> series;
    std::vector<double> jcts, works, execs, spec_work, exec_work;
  };
  auto analyze = [&](sim::Scheduler& s) {
    sim::ClusterEnv cluster(env);
    workload::load(cluster, workload);
    cluster.run(s);
    RunData d;
    d.series = metrics::concurrent_jobs_series(cluster, 20.0);
    const auto mean_execs = metrics::mean_executors_per_job(cluster);
    const auto exec_work = metrics::executed_work_per_job(cluster);
    for (std::size_t j = 0; j < cluster.jobs().size(); ++j) {
      const auto& job = cluster.jobs()[j];
      if (!job.done()) continue;
      d.jcts.push_back(job.jct());
      d.works.push_back(job.shape->total_work);
      d.execs.push_back(mean_execs[j]);
      d.spec_work.push_back(job.shape->total_work);
      d.exec_work.push_back(exec_work[j]);
    }
    return d;
  };

  const RunData d_opt = analyze(opt);
  const RunData d_dec = analyze(*decima);

  // (a) concurrent jobs over time.
  std::cout << "(a) concurrent jobs in system (sampled every 20s)\n"
            << "  opt. weighted fair: " << ascii_sparkline(d_opt.series)
            << "\n  Decima:             " << ascii_sparkline(d_dec.series)
            << "\n";
  double peak_opt = 0, peak_dec = 0, sum_opt = 0, sum_dec = 0;
  for (double v : d_opt.series) {
    peak_opt = std::max(peak_opt, v);
    sum_opt += v;
  }
  for (double v : d_dec.series) {
    peak_dec = std::max(peak_dec, v);
    sum_dec += v;
  }
  std::cout << "  peak concurrent jobs: opt " << fmt(peak_opt, 0) << ", Decima "
            << fmt(peak_dec, 0) << "; mean: opt "
            << fmt(sum_opt / d_opt.series.size(), 1) << ", Decima "
            << fmt(sum_dec / d_dec.series.size(), 1) << "\n\n";

  // (c)+(d): JCT and executor share for small vs large jobs.
  auto split_stats = [](const RunData& d) {
    // Small = bottom half by total work.
    std::vector<double> sorted = d.works;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted.empty() ? 0 : sorted[sorted.size() / 2];
    double jct_small = 0, jct_large = 0, ex_small = 0, ex_large = 0;
    int ns = 0, nl = 0;
    for (std::size_t i = 0; i < d.jcts.size(); ++i) {
      if (d.works[i] <= median) {
        jct_small += d.jcts[i];
        ex_small += d.execs[i];
        ++ns;
      } else {
        jct_large += d.jcts[i];
        ex_large += d.execs[i];
        ++nl;
      }
    }
    return std::array<double, 4>{
        ns ? jct_small / ns : 0, nl ? jct_large / nl : 0,
        ns ? ex_small / ns : 0, nl ? ex_large / nl : 0};
  };
  const auto s_opt = split_stats(d_opt);
  const auto s_dec = split_stats(d_dec);
  Table t({"metric", "opt. weighted fair", "Decima"});
  t.add_row({"avg JCT small jobs [s]", fmt(s_opt[0], 1), fmt(s_dec[0], 1)});
  t.add_row({"avg JCT large jobs [s]", fmt(s_opt[1], 1), fmt(s_dec[1], 1)});
  t.add_row({"mean executors, small jobs", fmt(s_opt[2], 2), fmt(s_dec[2], 2)});
  t.add_row({"mean executors, large jobs", fmt(s_opt[3], 2), fmt(s_dec[3], 2)});
  std::cout << "(c)/(d) small vs large job treatment\n" << t.to_string();

  // (e) work inflation: executed work vs specified work.
  auto inflation = [](const RunData& d) {
    double spec = 0, exec = 0;
    for (std::size_t i = 0; i < d.spec_work.size(); ++i) {
      spec += d.spec_work[i];
      exec += d.exec_work[i];
    }
    return spec > 0 ? exec / spec : 0.0;
  };
  std::cout << "\n(e) total work inflation (executed/spec): opt "
            << fmt(inflation(d_opt), 3) << ", Decima "
            << fmt(inflation(d_dec), 3)
            << "\n(paper: Decima's executor assignment results in similar\n"
               " total work to the hand-tuned heuristic)\n";
  return 0;
}
