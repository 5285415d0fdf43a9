// Job and stage specifications: the static description of a DAG-structured
// data-processing job (§3 of the paper), plus graph helpers (topological
// order, critical path, total work) used by schedulers and features.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace decima::sim {

using Time = double;
inline constexpr Time kInfTime = std::numeric_limits<Time>::infinity();

// A stage (DAG node): an operation run in parallel over `num_tasks` shards.
struct StageSpec {
  std::string name;
  int num_tasks = 1;
  // Mean per-task duration (seconds) under nominal conditions (later waves,
  // no inflation). The simulator layers wave/inflation/noise effects on top.
  double task_duration = 1.0;
  // Multi-resource extension (§7.3): a task must run on an executor whose
  // normalized memory is >= mem_req. Single-resource setups use 0.
  double mem_req = 0.0;
  double cpu_req = 1.0;
  std::vector<int> parents;  // indices of parent stages within the job

  double work() const { return num_tasks * task_duration; }
};

// A job: a DAG of stages plus its parallelism-efficiency profile.
struct JobSpec {
  std::string name;
  std::vector<StageSpec> stages;

  // Work-inflation model (§6.2 effect 3, Fig. 2): per-task durations are
  // multiplied by 1 + inflation * max(0, p - sweet_spot) / sweet_spot where
  // p is the job's current executor count. sweet_spot is the parallelism
  // beyond which extra executors see diminishing (negative) returns.
  double sweet_spot = 1e9;
  double inflation = 0.0;

  double total_work() const;

  // Children adjacency (derived from parents).
  std::vector<std::vector<int>> children() const;

  // Topological order (parents before children). Requires acyclicity.
  std::vector<int> topo_order() const;

  // Critical-path value per node:
  //   cp(v) = work(v) + max_{u in children(v)} cp(u)
  // (paper §5.1 footnote 5). Returned indexed by stage.
  std::vector<double> critical_path() const;

  // Length of the longest dependency chain in task-duration terms, assuming
  // unlimited parallelism: a lower bound on the job's completion time.
  double critical_path_duration() const;

  // Validates structural integrity (parent indices in range, acyclic,
  // positive task counts/durations). On failure returns false and, if
  // `error` is non-null, a human-readable reason.
  bool validate(std::string* error = nullptr) const;
};

// Builder for concise construction of jobs in tests and workload generators.
class JobBuilder {
 public:
  explicit JobBuilder(std::string name) { spec_.name = std::move(name); }

  // Adds a stage; returns its index.
  int stage(int num_tasks, double task_duration, std::vector<int> parents = {},
            double mem_req = 0.0);

  JobBuilder& sweet_spot(double s) {
    spec_.sweet_spot = s;
    return *this;
  }
  JobBuilder& inflation(double i) {
    spec_.inflation = i;
    return *this;
  }

  JobSpec build() const { return spec_; }

 private:
  JobSpec spec_;
};

}  // namespace decima::sim
