// Figure 12 (§7.3) and the Appendix-G profiles (Fig. 20/21): how Decima's
// multi-resource policy treats small jobs vs Graphene*.
//  (a) job duration by total-work group, Decima normalized to Graphene*;
//  (b) executor-class usage on the smallest 20% of jobs (paper: Decima uses
//      39% more executors of the largest class on small jobs — it borrows
//      "oversized" executors to clear small jobs quickly).
#include "bench_common.h"

#include <algorithm>

#include "metrics/timeseries.h"

using namespace decima;

int main() {
  bench::print_header(
      "Figure 12 (§7.3) / Appendix G",
      "Decima vs Graphene* with multi-dimensional resources: per-job-size\n"
      "duration ratios and executor-class usage profiles.");

  sim::EnvConfig env;
  env.num_executors = 16;
  env.classes = {{0.25, "s"}, {0.5, "m"}, {0.75, "l"}, {1.0, "xl"}};

  rl::WorkloadSampler sampler = [](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<sim::JobSpec> jobs;
    for (int i = 0; i < 10; ++i) {
      auto j = workload::sample_tpch_job(rng);
      workload::assign_memory_requests(j, rng);
      jobs.push_back(std::move(j));
    }
    Rng arr(rng.fork());
    return workload::continuous(std::move(jobs), arr, 30.0);
  };

  rl::TrainConfig train;
  train.episodes_per_iter = 8;
  train.rollout_threads = 8;
  train.curriculum = false;
  train.differential_reward = false;
  train.env = env;
  train.sampler = sampler;
  core::AgentConfig ac;
  ac.multi_resource = true;
  ac.seed = 17;
  auto decima = bench::trained_agent(ac, train, "fig11b_tpch_mem",
                                     bench::train_iters(40));
  sched::GrapheneScheduler graphene;

  // Collect per-job stats over several runs.
  struct JobStat {
    double work = 0, jct = 0;
    std::vector<int> class_tasks;
  };
  auto collect = [&](sim::Scheduler& s) {
    std::vector<JobStat> out;
    for (int r = 0; r < bench::bench_runs(8); ++r) {
      sim::ClusterEnv cluster(env);
      workload::load(cluster, sampler(7000 + static_cast<std::uint64_t>(r)));
      cluster.run(s);
      const auto usage = metrics::class_usage_per_job(cluster);
      for (std::size_t j = 0; j < cluster.jobs().size(); ++j) {
        if (!cluster.jobs()[j].done()) continue;
        JobStat st;
        st.work = cluster.jobs()[j].shape->total_work;
        st.jct = cluster.jobs()[j].jct();
        st.class_tasks.assign(usage[j].begin(), usage[j].end());
        out.push_back(std::move(st));
      }
    }
    return out;
  };
  const auto stats_dec = collect(*decima);
  const auto stats_gra = collect(graphene);

  // (a) duration ratio by work quartile.
  auto quartile_means = [](const std::vector<JobStat>& stats) {
    std::vector<double> works;
    for (const auto& s : stats) works.push_back(s.work);
    std::sort(works.begin(), works.end());
    std::array<double, 4> sums{}, counts{};
    for (const auto& s : stats) {
      int q = 0;
      for (int k = 1; k < 4; ++k) {
        if (s.work > works[works.size() * static_cast<std::size_t>(k) / 4]) {
          q = k;
        }
      }
      sums[static_cast<std::size_t>(q)] += s.jct;
      counts[static_cast<std::size_t>(q)] += 1;
    }
    std::array<double, 4> out{};
    for (int q = 0; q < 4; ++q) {
      const std::size_t i = static_cast<std::size_t>(q);
      out[i] = counts[i] ? sums[i] / counts[i] : 0.0;
    }
    return out;
  };
  const auto q_dec = quartile_means(stats_dec);
  const auto q_gra = quartile_means(stats_gra);
  Table ta({"job size group", "Decima JCT / Graphene* JCT"});
  const std::vector<std::string> names = {"smallest 25%", "25-50%", "50-75%",
                                          "largest 25%"};
  for (int q = 0; q < 4; ++q) {
    const double ratio = q_gra[static_cast<std::size_t>(q)] > 0
                             ? q_dec[static_cast<std::size_t>(q)] /
                                   q_gra[static_cast<std::size_t>(q)]
                             : 0.0;
    ta.add_row({names[static_cast<std::size_t>(q)], fmt(ratio, 2)});
  }
  std::cout << "(a) normalized job duration (paper: <1 everywhere, smallest\n"
               "    jobs see the largest gain)\n"
            << ta.to_string();

  // (b) largest-class usage on the smallest 20% of jobs.
  auto small_class_use = [](const std::vector<JobStat>& stats) {
    std::vector<double> works;
    for (const auto& s : stats) works.push_back(s.work);
    std::sort(works.begin(), works.end());
    const double cut = works[works.size() / 5];
    std::array<double, 4> counts{};
    for (const auto& s : stats) {
      if (s.work > cut) continue;
      for (int c = 0; c < 4; ++c) {
        counts[static_cast<std::size_t>(c)] +=
            s.class_tasks[static_cast<std::size_t>(c)];
      }
    }
    return counts;
  };
  const auto use_dec = small_class_use(stats_dec);
  const auto use_gra = small_class_use(stats_gra);
  Table tb({"executor memory", "Decima / Graphene* task count"});
  const std::vector<std::string> mems = {"0.25", "0.5", "0.75", "1.0"};
  for (int c = 0; c < 4; ++c) {
    const double ratio = use_gra[static_cast<std::size_t>(c)] > 0
                             ? use_dec[static_cast<std::size_t>(c)] /
                                   use_gra[static_cast<std::size_t>(c)]
                             : 0.0;
    tb.add_row({mems[static_cast<std::size_t>(c)], fmt(ratio, 2)});
  }
  std::cout << "\n(b) executor-class usage on smallest 20% of jobs (paper:\n"
               "    Decima uses ~1.39x more largest-class executors)\n"
            << tb.to_string();
  return 0;
}
