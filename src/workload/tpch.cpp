#include "workload/tpch.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace decima::workload {

namespace {

// Stage counts per query, chosen to match the spread of DAG sizes visible in
// the paper's Fig. 1 (Q2 is large, Q8/Q17/Q20/Q21 mid-size, etc.).
constexpr int kStageCount[kNumTpchQueries] = {
    5, 24, 8, 8, 10, 6, 12, 16, 14, 10, 8, 6, 9, 5, 7, 11, 9, 20, 7, 18, 22, 6};

// Per-query parallelism sweet spot at the 100 GB reference size. Q9 keeps
// scaling to ~40 executors while Q2 saturates around 20 (Fig. 2).
constexpr double kSweetSpot100[kNumTpchQueries] = {
    30, 20, 35, 28, 32, 25, 30, 38, 40, 30, 22, 26, 34, 24, 28, 36, 30, 42,
    26, 33, 45, 18};

// Per-query work-inflation strength beyond the sweet spot.
constexpr double kInflation[kNumTpchQueries] = {
    0.6, 1.2, 0.5, 0.7, 0.6, 0.9, 0.6, 0.5, 0.4, 0.6, 0.8, 0.9,
    0.5, 0.8, 0.7, 0.5, 0.6, 0.4, 0.8, 0.6, 0.5, 1.1};

std::uint64_t template_seed(int query, double size_gb) {
  return 0x5eedULL * 7919ULL * static_cast<std::uint64_t>(query) +
         static_cast<std::uint64_t>(size_gb * 97.0) + 13ULL;
}

}  // namespace

const std::vector<double>& tpch_sizes() {
  static const std::vector<double> sizes = {2, 5, 10, 20, 50, 100};
  return sizes;
}

sim::JobSpec make_tpch_job(int query, double size_gb) {
  query = std::clamp(query, 1, kNumTpchQueries);
  const int qi = query - 1;
  decima::Rng rng(template_seed(query, size_gb));

  sim::JobSpec job;
  job.name = "tpch-q" + std::to_string(query) + "-" +
             std::to_string(static_cast<int>(size_gb)) + "g";

  const int n = kStageCount[qi];
  // Layered DAG: levels of decreasing width; later levels aggregate.
  const int levels =
      std::max(2, static_cast<int>(std::round(std::sqrt(n))) + 1);
  std::vector<int> level_of(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> by_level(static_cast<std::size_t>(levels));
  for (int v = 0; v < n; ++v) {
    // Bias early stages toward early levels so scans sit at the roots.
    const int lvl =
        std::min(levels - 1, static_cast<int>(static_cast<double>(v) /
                                              static_cast<double>(n) * levels));
    level_of[static_cast<std::size_t>(v)] = lvl;
    by_level[static_cast<std::size_t>(lvl)].push_back(v);
  }

  // Work scales slightly super-linearly with input size (shuffles grow).
  const double size_factor = std::pow(size_gb / 100.0, 1.05);
  // Reference widths: scans wide, aggregations narrow.
  const double base_width = 120.0 * size_factor;

  for (int v = 0; v < n; ++v) {
    sim::StageSpec s;
    const int lvl = level_of[static_cast<std::size_t>(v)];
    const double depth_decay = std::pow(0.55, lvl);
    const double width_noise = rng.lognormal_mean(1.0, 0.6);
    s.num_tasks = std::max(1, static_cast<int>(std::round(
                                  base_width * depth_decay * width_noise)));
    // Per-task durations: heavier for scans, lighter for aggregations;
    // heavy-ish tail across stages.
    const double base_dur = lvl == 0 ? 2.2 : 1.4;
    s.task_duration = std::max(0.1, rng.lognormal_mean(base_dur, 0.5));
    s.name = job.name + "/s" + std::to_string(v);

    // Parents: 1-3 stages from strictly earlier levels (roots have none).
    if (lvl > 0) {
      const int num_parents = rng.uniform_int(1, std::min(3, 2 + lvl / 2));
      std::vector<int> candidates;
      for (int u = 0; u < v; ++u) {
        if (level_of[static_cast<std::size_t>(u)] < lvl) {
          candidates.push_back(u);
        }
      }
      for (int k = 0; k < num_parents && !candidates.empty(); ++k) {
        // Prefer the immediately preceding level to build long chains with
        // occasional far-reaching join edges.
        const int last = static_cast<int>(candidates.size()) - 1;
        const std::size_t pick =
            rng.bernoulli(0.7)
                ? candidates.size() - 1 -
                      static_cast<std::size_t>(
                          rng.uniform_int(0, std::min<int>(2, last)))
                : static_cast<std::size_t>(rng.uniform_int(0, last));
        const int p = candidates[pick];
        if (std::find(s.parents.begin(), s.parents.end(), p) ==
            s.parents.end()) {
          s.parents.push_back(p);
        }
      }
    }
    job.stages.push_back(std::move(s));
  }

  // Parallelism profile: sweet spot scales sub-linearly with input size
  // (Q9 on 2 GB needs ~5 tasks; on 100 GB it scales to 40 — Fig. 2).
  job.sweet_spot =
      std::max(2.0, kSweetSpot100[qi] * std::pow(size_gb / 100.0, 0.55));
  job.inflation = kInflation[qi];
  return job;
}

sim::JobSpec sample_tpch_job(decima::Rng& rng) {
  const int query = rng.uniform_int(1, kNumTpchQueries);
  const auto& sizes = tpch_sizes();
  const double size = sizes[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(sizes.size()) - 1))];
  return make_tpch_job(query, size);
}

std::vector<sim::JobSpec> sample_tpch_batch(decima::Rng& rng, int n) {
  std::vector<sim::JobSpec> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(sample_tpch_job(rng));
  return out;
}

void assign_memory_requests(sim::JobSpec& job, decima::Rng& rng) {
  for (auto& s : job.stages) {
    s.mem_req = std::clamp(1.0 - rng.uniform(), 1e-3, 1.0);  // (0, 1]
  }
}

double ideal_runtime_at_parallelism(const sim::JobSpec& job, int parallelism) {
  parallelism = std::max(parallelism, 1);
  // Inflation multiplier at this allocation.
  const double over =
      std::max(0.0, static_cast<double>(parallelism) - job.sweet_spot);
  const double m = 1.0 + job.inflation * over / std::max(job.sweet_spot, 1.0);
  // Runtime = critical path over stages of (waves x inflated duration),
  // where each level's stages run sequentially along dependencies but share
  // the executors. A simple per-node wave model suffices for the Fig. 2 curve.
  const auto shape = sim::JobShape::of(job);
  std::vector<double> finish(job.stages.size(), 0.0);
  for (int v : shape->topo) {
    const auto& s = job.stages[static_cast<std::size_t>(v)];
    double ready = 0.0;
    for (int p : s.parents) {
      ready = std::max(ready, finish[static_cast<std::size_t>(p)]);
    }
    const double waves =
        std::ceil(static_cast<double>(s.num_tasks) / parallelism);
    finish[static_cast<std::size_t>(v)] = ready + waves * s.task_duration * m;
  }
  double total = 0.0;
  for (double f : finish) total = std::max(total, f);
  return total;
}

double work_share_of_top(const std::vector<sim::JobSpec>& jobs,
                         double fraction) {
  if (jobs.empty()) return 0.0;
  std::vector<double> works;
  works.reserve(jobs.size());
  for (const auto& j : jobs) {
    works.push_back(sim::JobShape::of(j)->total_work);
  }
  std::sort(works.begin(), works.end(), std::greater<>());
  const double total = std::accumulate(works.begin(), works.end(), 0.0);
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(fraction * works.size())));
  const double top = std::accumulate(
      works.begin(), works.begin() + static_cast<long>(k), 0.0);
  return total > 0 ? top / total : 0.0;
}

}  // namespace decima::workload
