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
#include <memory>
#include <vector>

#include "nn/matrix.h"
#include "sim/cluster_env.h"

namespace decima::gnn {

// Normalization scales: the raw remaining tasks, task duration and
// interarrival time are divided by these.
constexpr double kTaskScale = 200.0;
constexpr double kDurationScale = 10.0;
constexpr double kIatScale = 100.0;

struct FeatureConfig {
  bool use_task_duration = true;  // false = Appendix J (unseen jobs)
  bool iat_hint = false;          // true = Table 2's interarrival-time input

  int dim() const { return iat_hint ? 6 : 5; }
};

// One job DAG prepared for the graph neural network: node features plus the
// job's shared structure (children, topological order, message-passing
// levels).
struct JobGraph {
  int env_job = -1;  // index into env.jobs()
  nn::Matrix features;  // n x feat_dim
  // Shared with the producing env's JobState (never a copy, never a
  // borrowed pointer), so a graph stays valid after its env is gone.
  // Synthetic graphs build theirs with sim::JobShape::of. Each env job has
  // its own shape object, so the embedding cache keys its entries by it.
  std::shared_ptr<const sim::JobShape> shape;
  std::vector<bool> runnable;  // node-level action mask (A_t of §5.2)
};

// Extracts graphs for all arrived, unfinished jobs. `observed_iat` feeds the
// IAT hint feature when enabled (callers estimate it from recent arrivals).
std::vector<JobGraph> extract_graphs(const sim::ClusterEnv& env,
                                     const FeatureConfig& config,
                                     double observed_iat = 0.0);

// A seeded random DAG with uniform [-1, 1) features: node v > 0 gets 1-3
// distinct parents among earlier nodes (one task of 1 s per node), all
// runnable. Synthetic input for GNN equivalence tests and latency benchmarks.
JobGraph random_job_graph(std::uint64_t seed, int num_nodes, int feat_dim = 5);

}  // namespace decima::gnn
