#include "gnn/features.h"

#include <algorithm>

#include "util/rng.h"

namespace decima::gnn {

std::vector<JobGraph> extract_graphs(const sim::ClusterEnv& env,
                                     const FeatureConfig& config,
                                     double observed_iat) {
  std::vector<JobGraph> out;
  out.reserve(env.active_jobs().size());
  const double total_execs = static_cast<double>(env.total_executors());
  const double free_execs = static_cast<double>(env.free_executor_count());
  for (int j : env.active_jobs()) {
    const sim::JobState& job = env.jobs()[static_cast<std::size_t>(j)];
    JobGraph g;
    g.env_job = j;
    const std::size_t n = job.spec.stages.size();
    g.features = nn::Matrix(n, static_cast<std::size_t>(config.dim()));
    g.shape = job.shape;
    g.runnable.resize(n, false);
    const double local = env.local_free_executors(j) > 0 ? 1.0 : 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      const auto& spec = job.spec.stages[v];
      const auto& st = job.stages[v];
      const double remaining =
          static_cast<double>(spec.num_tasks - st.finished);
      g.features(v, 0) = remaining / config.task_scale;
      g.features(v, 1) = config.use_task_duration
                             ? spec.task_duration / config.duration_scale
                             : 0.0;
      g.features(v, 2) = static_cast<double>(job.executors) / total_execs;
      g.features(v, 3) = free_execs / total_execs;
      g.features(v, 4) = local;
      if (config.iat_hint) g.features(v, 5) = observed_iat / config.iat_scale;
      g.runnable[v] = st.runnable();
    }
    out.push_back(std::move(g));
  }
  return out;
}

JobGraph random_job_graph(std::uint64_t seed, int num_nodes, int feat_dim) {
  Rng rng(seed);
  JobGraph g;
  g.env_job = 0;
  g.features = nn::Matrix(static_cast<std::size_t>(num_nodes),
                          static_cast<std::size_t>(feat_dim));
  for (double& v : g.features.raw()) v = rng.uniform(-1, 1);
  sim::JobBuilder dag("random");
  for (int v = 0; v < num_nodes; ++v) {
    std::vector<int> parents;
    const int draws = v > 0 ? rng.uniform_int(1, 3) : 0;
    for (int e = 0; e < draws; ++e) {
      const int p = rng.uniform_int(0, v - 1);
      if (std::find(parents.begin(), parents.end(), p) == parents.end()) {
        parents.push_back(p);
      }
    }
    dag.stage(1, 1.0, std::move(parents));
  }
  g.shape = sim::JobShape::of(dag.build());
  g.runnable.assign(static_cast<std::size_t>(num_nodes), true);
  return g;
}

}  // namespace decima::gnn
