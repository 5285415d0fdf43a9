// The seven baseline scheduling algorithms of §7.1:
//   (1) FIFO (Spark default),
//   (2) SJF-CP: shortest-job-first by total work, critical-path stage order,
//   (3) Fair: equal executor shares, round-robin over runnable stages,
//   (4) Naive weighted fair: shares proportional to total job work,
//   (5) Tuned weighted fair: shares ∝ T_i^α with α swept over [-2, 2],
//   (6) Tetris: greedy multi-resource packing by demand·availability,
//   (7) Graphene*: troublesome-node grouping + tuned-fair parallelism +
//       best-fit executor class (Appendix F adaptation).
//
// All of them implement sim::Scheduler, so they run against the exact same
// environment protocol as Decima.
#pragma once

#include <vector>

#include "sim/cluster_env.h"
#include "sim/scheduler.h"

namespace decima::sched {

using sim::Action;
using sim::ClusterEnv;
using sim::NodeRef;

// --- Shared helpers ----------------------------------------------------------

// Runnable stage of `job` with the highest critical-path value (the stage a
// critical-path-first policy works on next). Invalid if none.
NodeRef critical_path_stage(const ClusterEnv& env, int job);

// First runnable stage (lowest index — Spark's default enqueue order).
NodeRef first_runnable_stage(const ClusterEnv& env, int job);

// Round-robin runnable stage using a caller-maintained cursor.
NodeRef round_robin_stage(const ClusterEnv& env, int job, int& cursor);

// Executor class with the smallest memory that satisfies `mem_req` and has a
// free executor; -1 if none (or if the environment has one class).
int best_fit_class(const ClusterEnv& env, double mem_req);

// --- (1) FIFO ----------------------------------------------------------------

class FifoScheduler : public sim::Scheduler {
 public:
  Action schedule(const ClusterEnv& env) override;
  std::string name() const override { return "FIFO"; }
};

// --- (2) SJF-CP --------------------------------------------------------------

class SjfCpScheduler : public sim::Scheduler {
 public:
  Action schedule(const ClusterEnv& env) override;
  std::string name() const override { return "SJF-CP"; }
};

// --- (3)-(5) (weighted) fair -------------------------------------------------
//
// alpha = 0  -> simple fair (equal shares)
// alpha = 1  -> naive weighted fair (shares ∝ total work)
// tuned      -> sweep alpha via tune_weighted_fair_alpha() (usually ≈ -1).
class WeightedFairScheduler : public sim::Scheduler {
 public:
  explicit WeightedFairScheduler(double alpha) : alpha_(alpha) {}
  void reset() override { cursors_.clear(); }
  Action schedule(const ClusterEnv& env) override;
  std::string name() const override;
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  std::vector<int> cursors_;  // per-job round-robin stage cursor
};

// --- (6) Tetris --------------------------------------------------------------

class TetrisScheduler : public sim::Scheduler {
 public:
  Action schedule(const ClusterEnv& env) override;
  std::string name() const override { return "Tetris"; }
};

// --- (7) Graphene* -----------------------------------------------------------

struct GrapheneConfig {
  // A stage is "troublesome" if it holds more than this fraction of its
  // job's work, or requests more than mem_threshold memory (Graphene §4.1's
  // long/resource-hungry criterion adapted to our executor classes).
  double work_threshold = 0.3;
  double mem_threshold = 0.5;
  // Parallelism-control exponent shared with the tuned weighted fair scheme.
  double alpha = -1.0;
};

class GrapheneScheduler : public sim::Scheduler {
 public:
  explicit GrapheneScheduler(GrapheneConfig config = {}) : config_(config) {}
  void reset() override { troublesome_.clear(); }
  Action schedule(const ClusterEnv& env) override;
  std::string name() const override { return "Graphene*"; }
  const GrapheneConfig& config() const { return config_; }

  // The troublesome-stage group of a job spec in ascending stage order,
  // given its shape (for the total work).
  static std::vector<int> troublesome_stages(const sim::JobSpec& spec,
                                             const sim::JobShape& shape,
                                             const GrapheneConfig& config);

 private:
  GrapheneConfig config_;
  // troublesome_stages() per job index, derived once per loaded job.
  std::vector<std::vector<int>> troublesome_;
};

}  // namespace decima::sched
