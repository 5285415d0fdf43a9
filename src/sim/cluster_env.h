// Discrete-event Spark-cluster simulator (§6.2 of the paper).
//
// Captures the three real-world effects the paper identifies as crucial:
//   (1) first-wave tasks run slower than later waves,
//   (2) moving an executor across jobs costs a JVM-startup delay,
//   (3) high parallelism inflates per-task durations (work inflation).
// Each effect can be disabled independently (used by the fidelity study,
// Fig. 18, and the simplified optimality study, Fig. 22 / App. H).
//
// The environment also logs everything RL training needs: action timestamps
// (the rewards of src/rl/objectives.h integrate over the intervals between
// them), a full task-placement trace (for Gantt charts and invariant tests),
// and scheduler decision latencies (Fig. 15b).
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/faults.h"
#include "sim/job.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace decima::sim {

// A class of executors (multi-resource extension, §7.3). The default
// single-resource setup uses one class with mem = 1.
struct ExecutorClass {
  double mem = 1.0;
  std::string name = "default";
  // Whether a task of a stage needing `mem_req` may run here: exactly the
  // simulator's placement rule, so every scheduler asks only for classes
  // that dispatch will use.
  bool fits(double mem_req) const { return mem >= mem_req; }
};

struct EnvConfig {
  int num_executors = 50;
  // Executors are split as evenly as possible across classes (paper: four
  // classes with memory {0.25, 0.5, 0.75, 1.0}, 25% of executors each).
  std::vector<ExecutorClass> classes = {ExecutorClass{}};

  // Effect (2): delay when an executor switches to a different job (JVM
  // launch, "2-3 seconds" per §6.2).
  double moving_delay = 2.5;
  bool enable_moving_delay = true;

  // Effect (1): multiplier on tasks that start before any task of their
  // stage has finished (the first "wave").
  double first_wave_factor = 1.3;
  bool enable_wave_effect = true;

  // Effect (3): work inflation at high parallelism, per JobSpec's
  // sweet_spot/inflation profile.
  bool enable_inflation = true;

  // Lognormal sigma on task durations; 0 gives the deterministic
  // "expectation mode" used for training-simulator fidelity comparisons.
  double duration_noise = 0.0;

  std::uint64_t seed = 1;

  // Fault injection (executor failures, stragglers, heterogeneous speeds);
  // the default plan injects nothing and leaves the simulation bit-identical
  // to a fault-free build (sim/faults.h, docs/robustness.md).
  FaultPlan faults;

  // Safety valve: abort the episode after this many processed events.
  std::size_t max_events = 50'000'000;
};

// Dynamic per-stage state.
struct StageState {
  int waiting = 0;    // tasks not yet dispatched
  int running = 0;
  int finished = 0;
  int started = 0;    // waiting + running + finished == num_tasks
  int parents_pending = 0;
  bool runnable() const { return parents_pending == 0 && waiting > 0; }
  bool complete(int num_tasks) const { return finished == num_tasks; }
};

// Dynamic per-job state.
struct JobState {
  JobSpec spec;
  // The spec's structure facts, derived once in ClusterEnv::add_job and
  // shared (never copied) by every reader, including graphs that outlive
  // the env.
  std::shared_ptr<const JobShape> shape;
  Time arrival = 0.0;
  Time finish = -1.0;  // < 0 while incomplete
  bool arrived = false;
  std::vector<StageState> stages;
  int executors = 0;          // executors currently running tasks of this job
  int parallelism_limit = 0;  // most recent limit set by a scheduling action
  int stages_complete = 0;
  // Stages with runnable() true, kept by ClusterEnv's event handlers.
  int runnable_stages = 0;

  bool done() const {
    return static_cast<std::size_t>(stages_complete) == spec.stages.size();
  }
  double jct() const { return finish - arrival; }
  // Total work actually executed so far (inflation included) — used by the
  // work-inflation analysis (Fig. 10e).
  double executed_work = 0.0;
};

struct ExecutorState {
  int id = 0;
  int cls = 0;
  bool busy = false;
  int bound_job = -1;  // last job served; -1 = never used
  // Fault injection (sim/faults.h): a failed executor is invisible to the
  // free-executor counts and dispatch until its recovery event.
  bool failed = false;
  // Bumped on every failure; a TaskFinish event carrying a stale epoch is a
  // task that was killed mid-flight and must be ignored.
  int fail_epoch = 0;
  // The running task (valid while busy) — what a failure kills.
  int cur_stage = -1;
  std::size_t cur_trace = 0;  // index into ClusterEnv::trace()
};

// One dispatched task, for traces, Gantt charts, and invariant checking.
struct TaskRecord {
  int job = 0;
  int stage = 0;
  int task_index = 0;
  int executor = 0;
  Time dispatched = 0.0;  // when the action placed the task
  Time start = 0.0;       // dispatched + moving delay (if any)
  Time end = 0.0;
  bool first_wave = false;
  // Task was killed by an executor failure at `end` before completing; the
  // re-run appears as a separate record with the same task_index.
  bool killed = false;
};

class ClusterEnv {
 public:
  explicit ClusterEnv(EnvConfig config);

  // Registers a job to arrive at `arrival` (>= 0). Must be called before
  // run(). Throws std::invalid_argument on malformed specs.
  void add_job(JobSpec spec, Time arrival);

  // Runs the episode with `sched` until all jobs finish, simulated time
  // exceeds `until`, or `max_actions` scheduling actions have been taken.
  // Can be called repeatedly with growing `until` to continue an episode.
  void run(Scheduler& sched, Time until = kInfTime,
           std::size_t max_actions = SIZE_MAX);

  // --- State queries (used by schedulers and the feature extractor) --------
  Time now() const { return now_; }
  const std::vector<JobState>& jobs() const { return jobs_; }
  const EnvConfig& config() const { return config_; }
  int total_executors() const { return static_cast<int>(executors_.size()); }
  const std::vector<ExecutorState>& executors() const { return executors_; }
  const std::vector<ExecutorClass>& executor_classes() const {
    return config_.classes;
  }

  // Runnable nodes: stages of arrived, unfinished jobs whose parents have all
  // completed and which still have waiting tasks (the action set A_t of §5.2).
  std::vector<NodeRef> runnable_nodes() const;
  // Indices of the arrived, unfinished jobs, ascending.
  const std::vector<int>& active_jobs() const { return active_; }

  int free_executor_count() const { return free_count_; }
  // 0 for a class the cluster does not have.
  int free_executor_count_of_class(int cls) const {
    const auto c = static_cast<std::size_t>(cls);
    return cls >= 0 && c < free_of_class_.size() ? free_of_class_[c] : 0;
  }
  // Free executors whose last job was `job` ("local" executors, feature (v)).
  int local_free_executors(int job) const;
  bool all_done() const { return jobs_done_ == jobs_.size(); }

  // --- Results --------------------------------------------------------------
  double avg_jct() const;
  double makespan() const;  // completion time of the last job
  std::vector<double> jcts() const;
  const std::vector<TaskRecord>& trace() const { return trace_; }

  // --- RL support -----------------------------------------------------------
  // When each scheduling action was taken; src/rl/objectives.h turns the
  // intervals between them into rewards.
  const std::vector<Time>& action_times() const { return action_times_; }

  // --- Instrumentation -----------------------------------------------------
  // Wall-clock seconds each Scheduler::schedule() call took (Fig. 15b).
  const std::vector<double>& decision_latencies() const {
    return decision_latencies_;
  }
  // Simulated time between consecutive scheduling events (Fig. 15b).
  const std::vector<double>& event_intervals() const {
    return event_intervals_;
  }
  std::size_t num_events_processed() const { return events_processed_; }

 private:
  struct Event {
    Time time = 0.0;
    int seq = 0;  // tie-break for determinism
    enum class Kind {
      kJobArrival,
      kTaskFinish,
      kExecutorFail,
      kExecutorRecover,
    } kind = Kind::kJobArrival;
    int job = -1;
    int stage = -1;
    int executor = -1;
    // For kTaskFinish: the executor's fail_epoch when the task started; a
    // mismatch at delivery means the task was killed by a failure.
    int exec_epoch = 0;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void push_event(Event e);
  void handle_arrival(const Event& e);
  // Returns true if a scheduling event should follow (executor freed, stage
  // completed, or job finished).
  bool handle_task_finish(const Event& e);
  // Fault-plan events: kill the running task (if any) and take the executor
  // offline / bring it back. Both return true when a scheduling event should
  // follow.
  bool handle_executor_fail(const Event& e);
  bool handle_executor_recover(const Event& e);
  // Queues the fault plan's fail/recover events (first run() only).
  void schedule_faults();
  // The §5.2 protocol: query the scheduler until executors/stages run out.
  void run_scheduling_event(Scheduler& sched);
  // Dispatches up to `count` free executors of an eligible class to `node`;
  // returns how many were assigned.
  int dispatch(NodeRef node, int count, int exec_class);
  void start_task(int executor_id, NodeRef node);
  // Moves an executor into or out of the free set: its bit in free_bits_,
  // free_count_ and its class's count.
  void set_free(const ExecutorState& ex, bool free);
  // Calls fn(id) on each free executor in ascending id order.
  template <typename Fn>
  void for_each_free(Fn&& fn) const;
  double sample_task_duration(const JobState& job, int stage, bool first_wave,
                              int executor_id);

  EnvConfig config_;
  Rng rng_;
  // Straggler draws come from this separate stream so a plan with
  // stragglers.prob == 0 leaves rng_'s sequence untouched.
  Rng fault_rng_;
  Time now_ = 0.0;
  int event_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::vector<JobState> jobs_;
  std::vector<ExecutorState> executors_;
  // The indexes every state query reads, kept by the event handlers. The
  // free executors (neither busy nor failed): one bit per executor id.
  std::vector<std::uint64_t> free_bits_;
  int free_count_ = 0;
  std::vector<int> free_of_class_;
  std::vector<int> active_;  // arrived, unfinished jobs, ascending index
  std::size_t jobs_done_ = 0;
  // dispatch()'s eligible executors, reserved for every executor.
  std::vector<int> eligible_;
  std::vector<TaskRecord> trace_;
  std::vector<Time> action_times_;
  std::vector<double> decision_latencies_;
  std::vector<double> event_intervals_;
  Time last_scheduling_event_ = -1.0;
  std::size_t events_processed_ = 0;
  std::size_t actions_taken_ = 0;
  bool running_started_ = false;
};

}  // namespace decima::sim
