// Shared infrastructure for the per-figure/table benchmark harnesses.
//
// Each bench binary regenerates the rows/series of one paper table or figure.
// Decima policies are trained with deliberately small budgets so the whole
// suite runs in minutes; the budgets scale up via environment variables:
//   DECIMA_TRAIN_ITERS  — RL training iterations per policy (default ~60)
//   DECIMA_BENCH_RUNS   — number of evaluation runs/experiments (default ~20)
// Trained weights are cached next to the binaries, so re-runs and benches
// sharing a configuration skip training.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/experiment.h"
#include "rl/reinforce.h"
#include "sched/heuristics.h"
#include "sched/tuning.h"
#include "util/env_flags.h"
#include "util/table.h"
#include "workload/tpch.h"
#include "workload/trace.h"

namespace decima::bench {

// Default knobs (env-var overridable).
int train_iters(int fallback = 60);
int bench_runs(int fallback = 20);

// Master seed for the robustness scenario suite's fault plans and stress
// workloads (DECIMA_SCENARIO_SEED): re-seed the whole sweep from the command
// line without recompiling. Shared by bench_scenarios and any future
// fault-sweep bench so one knob moves every generator together.
std::uint64_t scenario_seed(std::uint64_t fallback = 1234);

// Default agent configuration with only the seed set.
core::AgentConfig agent_with_seed(std::uint64_t seed);

// Prints the standard bench header with paper reference.
void print_header(const std::string& figure, const std::string& description);

// Trains (or loads from cache) a Decima agent. `cache_key` names the policy
// checkpoint file (io::save_policy); a file that does not load into the
// agent is retrained over. Training runs `iters` iterations of `config`.
// The returned agent is in greedy inference mode.
std::unique_ptr<core::DecimaAgent> trained_agent(
    const core::AgentConfig& agent_config, rl::TrainConfig train_config,
    const std::string& cache_key, int iters);

// Standard batched / continuous TPC-H samplers used across benches.
rl::WorkloadSampler tpch_batch_sampler(int num_jobs);
rl::WorkloadSampler tpch_continuous_sampler(int num_jobs, double mean_iat);

// Jobs whose DAG topology is a seeded random `num_nodes`-stage graph (job i
// uses gnn::random_job_graph(seed + i, num_nodes, feat_dim)): 2 tasks per
// stage, 1s mean duration, mem_req 0.25. The 50-node-DAG profiling workload
// of BENCH_fig12 / BENCH_train. feat_dim must match the graphs being
// profiled alongside — the RNG draws features before edges, so it shifts
// the topology too.
std::vector<sim::JobSpec> random_dag_jobs(int num_jobs, int num_nodes,
                                          std::uint64_t seed,
                                          int feat_dim = 5);

// Evaluation over `runs` held-out workloads (seeds disjoint from training,
// which forks seeds from the trainer's master seed).
std::vector<double> eval_runs(sim::Scheduler& sched,
                              const sim::EnvConfig& env,
                              const rl::WorkloadSampler& sampler, int runs,
                              std::uint64_t seed_base = 900000);

// --- Machine-readable benchmark output --------------------------------------

// Wall-clock latency of `fn` over `reps` repetitions (microseconds).
struct LatencyStats {
  double median_us = 0.0;
  double p95_us = 0.0;
  std::size_t samples = 0;
};
LatencyStats latency_from_samples(std::vector<double> samples_us);
LatencyStats time_reps(int reps, const std::function<void()>& fn);

// Scheduler decorator that records the wall-clock latency of every
// schedule() call — measures per-event inference cost over a real episode.
class TimedScheduler : public sim::Scheduler {
 public:
  explicit TimedScheduler(sim::Scheduler& inner) : inner_(inner) {}
  sim::Action schedule(const sim::ClusterEnv& env) override;
  void reset() override { inner_.reset(); }
  std::string name() const override { return inner_.name(); }
  LatencyStats stats() const { return latency_from_samples(samples_us_); }

 private:
  sim::Scheduler& inner_;
  std::vector<double> samples_us_;
};

// Flat key/value metrics written as BENCH_<name>.json alongside the stdout
// tables, so successive PRs accumulate a machine-comparable perf trajectory.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}
  void set(const std::string& key, double value);
  void set(const std::string& key, const std::string& value);
  // Writes BENCH_<name>.json in the working directory; returns the path
  // (empty on I/O error).
  std::string write() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;  // pre-rendered
};

}  // namespace decima::bench
