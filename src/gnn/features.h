// Raw state featurization (§6.1): for each DAG node v of job i the feature
// vector x^i_v contains
//   (i)   the number of tasks remaining in the stage,
//   (ii)  the average task duration,
//   (iii) the number of executors currently working on the job,
//   (iv)  the number of available (free) executors,
//   (v)   whether available executors are local to the job,
// all normalized to comparable magnitudes. Optional extras: the observed job
// interarrival time (the "IAT hint" of Table 2) and masking of the task-
// duration feature (the incomplete-information study of Appendix J).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.h"
#include "sim/cluster_env.h"

namespace decima::gnn {

struct FeatureConfig {
  bool use_task_duration = true;  // false = Appendix J (unseen jobs)
  bool iat_hint = false;          // true = Table 2's interarrival-time input
  // Normalization scales (divide raw values by these).
  double task_scale = 200.0;
  double duration_scale = 10.0;
  double iat_scale = 100.0;

  int dim() const { return iat_hint ? 6 : 5; }
};

// One job DAG prepared for the graph neural network: node features plus
// adjacency in both directions and a topological order.
struct JobGraph {
  int env_job = -1;  // index into env.jobs()
  nn::Matrix features;  // n x feat_dim
  std::vector<std::vector<int>> children;
  std::vector<int> topo;  // parents before children
  std::vector<bool> runnable;  // node-level action mask (A_t of §5.2)

  // Embedding-cache identity (src/gnn/embedding_cache.h): env_uid names the
  // producing ClusterEnv (-1 for synthetic graphs), and (env_uid, env_job)
  // keys the cached activations.
  std::int64_t env_uid = -1;
};

// Extracts graphs for all arrived, unfinished jobs. `observed_iat` feeds the
// IAT hint feature when enabled (callers estimate it from recent arrivals).
std::vector<JobGraph> extract_graphs(const sim::ClusterEnv& env,
                                     const FeatureConfig& config,
                                     double observed_iat = 0.0);

// A seeded random DAG with uniform [-1, 1) features: node v > 0 gets 1-3
// distinct parents among earlier nodes, topo order 0..n-1, all runnable.
// Synthetic input for GNN equivalence tests and latency benchmarks.
JobGraph random_job_graph(std::uint64_t seed, int num_nodes, int feat_dim = 5);

}  // namespace decima::gnn
