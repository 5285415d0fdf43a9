#include "sim/cluster_env.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>

namespace decima::sim {

ClusterEnv::ClusterEnv(EnvConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      fault_rng_(config_.faults.seed) {
  // Envs are constructed from many threads (rollout workers, session
  // threads); relaxed is enough because the uid is only ever compared for
  // equality by the embedding cache (docs/concurrency.md).
  static std::atomic<std::int64_t> uid_counter{1};
  uid_ = uid_counter.fetch_add(1, std::memory_order_relaxed);
  if (config_.num_executors <= 0) {
    throw std::invalid_argument("num_executors must be positive");
  }
  if (config_.classes.empty()) {
    throw std::invalid_argument("at least one executor class required");
  }
  executors_.reserve(static_cast<std::size_t>(config_.num_executors));
  // Executors are spread round-robin across classes so each class holds an
  // (almost) equal share, matching the paper's 25%-per-class setup.
  for (int i = 0; i < config_.num_executors; ++i) {
    ExecutorState e;
    e.id = i;
    e.cls = i % static_cast<int>(config_.classes.size());
    executors_.push_back(e);
  }
  for (const ExecutorFault& f : config_.faults.failures) {
    if (f.executor < 0 || f.executor >= config_.num_executors) {
      throw std::invalid_argument("fault plan names an unknown executor");
    }
    if (f.fail_at < 0.0 || f.recover_at <= f.fail_at) {
      throw std::invalid_argument("fault plan outage has an empty time span");
    }
  }
  for (double s : config_.faults.executor_speeds) {
    if (s <= 0.0) throw std::invalid_argument("executor speeds must be > 0");
  }
  if (config_.faults.stragglers.prob < 0.0 ||
      config_.faults.stragglers.prob > 1.0 ||
      config_.faults.stragglers.factor <= 0.0) {
    throw std::invalid_argument("invalid straggler model");
  }
}

void ClusterEnv::add_job(JobSpec spec, Time arrival) {
  if (running_started_) {
    throw std::logic_error("add_job must be called before run()");
  }
  std::string err;
  if (!spec.validate(&err)) {
    throw std::invalid_argument("invalid job spec: " + err);
  }
  if (arrival < 0.0) throw std::invalid_argument("arrival must be >= 0");
  JobState job;
  job.shape = JobShape::of(spec);
  job.arrival = arrival;
  job.stages.resize(spec.stages.size());
  for (std::size_t v = 0; v < spec.stages.size(); ++v) {
    job.stages[v].waiting = spec.stages[v].num_tasks;
    job.stages[v].parents_pending =
        static_cast<int>(spec.stages[v].parents.size());
  }
  job.spec = std::move(spec);
  const int idx = static_cast<int>(jobs_.size());
  jobs_.push_back(std::move(job));
  Event e;
  e.time = arrival;
  e.kind = Event::Kind::kJobArrival;
  e.job = idx;
  push_event(e);
}

void ClusterEnv::push_event(Event e) {
  e.seq = event_seq_++;
  queue_.push(e);
}

void ClusterEnv::schedule_faults() {
  for (const ExecutorFault& f : config_.faults.failures) {
    Event fail;
    fail.time = f.fail_at;
    fail.kind = Event::Kind::kExecutorFail;
    fail.executor = f.executor;
    push_event(fail);
    if (f.recover_at < kInfTime) {
      Event rec;
      rec.time = f.recover_at;
      rec.kind = Event::Kind::kExecutorRecover;
      rec.executor = f.executor;
      push_event(rec);
    }
  }
}

void ClusterEnv::run(Scheduler& sched, Time until, std::size_t max_actions) {
  if (!running_started_) {
    running_started_ = true;
    schedule_faults();
    sched.reset();
  }
  actions_taken_ = 0;
  while (!queue_.empty() && actions_taken_ < max_actions) {
    const Time t = queue_.top().time;
    if (t > until) break;
    // Batch all events sharing this timestamp (e.g. a batched arrival of
    // many jobs) before invoking the scheduler, so the scheduler sees the
    // complete state of the instant.
    bool needs_scheduling = false;
    while (!queue_.empty() && queue_.top().time == t) {
      if (events_processed_++ > config_.max_events) {
        throw std::runtime_error("ClusterEnv: event budget exhausted");
      }
      const Event e = queue_.top();
      queue_.pop();
      assert(e.time + 1e-9 >= now_);
      now_ = std::max(now_, e.time);
      switch (e.kind) {
        case Event::Kind::kJobArrival:
          handle_arrival(e);
          needs_scheduling = true;
          break;
        case Event::Kind::kTaskFinish:
          needs_scheduling |= handle_task_finish(e);
          break;
        case Event::Kind::kExecutorFail:
          needs_scheduling |= handle_executor_fail(e);
          break;
        case Event::Kind::kExecutorRecover:
          needs_scheduling |= handle_executor_recover(e);
          break;
      }
    }
    if (needs_scheduling) run_scheduling_event(sched);
  }
}

void ClusterEnv::handle_arrival(const Event& e) {
  JobState& job = jobs_[static_cast<std::size_t>(e.job)];
  job.arrived = true;
  record_job_count_change(now_, +1);
}

bool ClusterEnv::handle_task_finish(const Event& e) {
  ExecutorState& ex = executors_[static_cast<std::size_t>(e.executor)];
  if (e.exec_epoch != ex.fail_epoch) {
    // The executor failed after this task started: the task was killed and
    // rescheduled by handle_executor_fail, so its old finish event is void.
    return false;
  }
  JobState& job = jobs_[static_cast<std::size_t>(e.job)];
  StageState& st = job.stages[static_cast<std::size_t>(e.stage)];
  assert(st.running > 0 && ex.busy);
  --st.running;
  ++st.finished;

  const StageSpec& spec = job.spec.stages[static_cast<std::size_t>(e.stage)];
  bool needs_scheduling = false;
  if (st.waiting > 0) {
    // Spark's task-level scheduler keeps the executor on the same stage while
    // it still has waiting tasks (§3); no scheduling event fires.
    start_task(e.executor, NodeRef{e.job, e.stage});
  } else {
    // Stage ran out of tasks: the executor frees up (§5.2 event (i)).
    ex.busy = false;
    ex.cur_stage = -1;
    --job.executors;
    needs_scheduling = true;
  }

  if (st.complete(spec.num_tasks)) {
    // Stage completion unlocks child stages (§5.2 event (ii)).
    ++job.stages_complete;
    for (int c : job.shape->children[static_cast<std::size_t>(e.stage)]) {
      --job.stages[static_cast<std::size_t>(c)].parents_pending;
    }
    if (job.done()) {
      job.finish = now_;
      record_job_count_change(now_, -1);
    }
    needs_scheduling = true;
  }
  return needs_scheduling;
}

bool ClusterEnv::handle_executor_fail(const Event& e) {
  ExecutorState& ex = executors_[static_cast<std::size_t>(e.executor)];
  if (ex.failed) return false;  // overlapping outages merge into one
  bool killed_task = false;
  if (ex.busy) {
    // Kill the running task: it goes back to the waiting pool (same
    // task_index; the killed attempt stays in the trace flagged `killed`),
    // and its pending finish event is voided by the fail_epoch bump.
    JobState& job = jobs_[static_cast<std::size_t>(ex.bound_job)];
    StageState& st = job.stages[static_cast<std::size_t>(ex.cur_stage)];
    TaskRecord& rec = trace_[ex.cur_trace];
    job.executed_work -= std::max(0.0, rec.end - std::max(rec.start, now_));
    --st.running;
    ++st.waiting;
    --st.started;  // the re-run reuses this task index
    rec.killed = true;
    rec.start = std::min(rec.start, now_);
    rec.end = now_;
    ex.busy = false;
    ex.cur_stage = -1;
    --job.executors;
    killed_task = true;
  }
  ex.failed = true;
  ++ex.fail_epoch;
  ex.bound_job = -1;  // the JVM died; a re-dispatch pays the moving delay
  // A killed task needs re-placement (other executors may be free); a purely
  // idle failure only shrinks capacity, which no action could exploit.
  return killed_task;
}

bool ClusterEnv::handle_executor_recover(const Event& e) {
  ExecutorState& ex = executors_[static_cast<std::size_t>(e.executor)];
  if (!ex.failed) return false;
  ex.failed = false;
  return true;  // give the scheduler a shot at the fresh capacity
}

std::vector<NodeRef> ClusterEnv::runnable_nodes() const {
  std::vector<NodeRef> out;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobState& job = jobs_[j];
    if (!job.arrived || job.done()) continue;
    for (std::size_t v = 0; v < job.stages.size(); ++v) {
      if (job.stages[v].runnable()) {
        out.push_back(NodeRef{static_cast<int>(j), static_cast<int>(v)});
      }
    }
  }
  return out;
}

int ClusterEnv::free_executor_count() const {
  int n = 0;
  for (const ExecutorState& e : executors_) {
    if (!e.busy && !e.failed) ++n;
  }
  return n;
}

int ClusterEnv::free_executor_count_of_class(int cls) const {
  int n = 0;
  for (const ExecutorState& e : executors_) {
    if (!e.busy && !e.failed && e.cls == cls) ++n;
  }
  return n;
}

int ClusterEnv::local_free_executors(int job) const {
  int n = 0;
  for (const ExecutorState& e : executors_) {
    if (!e.busy && !e.failed && e.bound_job == job) ++n;
  }
  return n;
}

bool ClusterEnv::all_done() const {
  for (const JobState& j : jobs_) {
    if (!j.done()) return false;
  }
  return true;
}

double ClusterEnv::avg_jct() const {
  double total = 0.0;
  int n = 0;
  for (const JobState& j : jobs_) {
    if (j.done()) {
      total += j.jct();
      ++n;
    }
  }
  return n ? total / n : 0.0;
}

double ClusterEnv::makespan() const {
  double m = 0.0;
  for (const JobState& j : jobs_) m = std::max(m, j.finish);
  return m;
}

std::vector<double> ClusterEnv::jcts() const {
  std::vector<double> out;
  for (const JobState& j : jobs_) {
    if (j.done()) out.push_back(j.jct());
  }
  return out;
}

void ClusterEnv::run_scheduling_event(Scheduler& sched) {
  if (last_scheduling_event_ >= 0.0) {
    event_intervals_.push_back(now_ - last_scheduling_event_);
  }
  last_scheduling_event_ = now_;

  while (free_executor_count() > 0) {
    const auto t0 = std::chrono::steady_clock::now();
    const Action action = sched.schedule(*this);
    const auto t1 = std::chrono::steady_clock::now();
    decision_latencies_.push_back(
        std::chrono::duration<double>(t1 - t0).count());
    if (!action.valid()) break;

    const NodeRef node = action.node;
    if (node.job < 0 || static_cast<std::size_t>(node.job) >= jobs_.size()) {
      break;
    }
    JobState& job = jobs_[static_cast<std::size_t>(node.job)];
    if (node.stage < 0 ||
        static_cast<std::size_t>(node.stage) >= job.spec.stages.size() ||
        !job.stages[static_cast<std::size_t>(node.stage)].runnable()) {
      break;  // malformed or stale action: decline to loop forever
    }

    // Enforce the §5.2 progress rule: the accepted limit always exceeds the
    // job's current allocation so at least one executor is assigned.
    const int limit =
        std::clamp(action.limit, job.executors + 1, total_executors());
    job.parallelism_limit = limit;
    const int capacity = limit - job.executors;

    action_times_.push_back(now_);
    ++actions_taken_;

    const int assigned = dispatch(node, capacity, action.exec_class);
    if (assigned == 0) break;  // nothing eligible (e.g. no fitting class)
  }
}

int ClusterEnv::dispatch(NodeRef node, int count, int exec_class) {
  JobState& job = jobs_[static_cast<std::size_t>(node.job)];
  StageState& st = job.stages[static_cast<std::size_t>(node.stage)];
  const StageSpec& spec = job.spec.stages[static_cast<std::size_t>(node.stage)];
  const int want = std::min(count, st.waiting);
  if (want <= 0) return 0;

  // Eligible free executors: class matches the request (or any class whose
  // memory fits the stage when unconstrained). Prefer job-local executors
  // (no moving delay), then best-fit by memory to limit fragmentation.
  std::vector<int> eligible;
  for (const ExecutorState& e : executors_) {
    if (e.busy || e.failed) continue;
    if (exec_class >= 0 && e.cls != exec_class) continue;
    if (!config_.classes[static_cast<std::size_t>(e.cls)].fits(spec.mem_req)) {
      continue;
    }
    eligible.push_back(e.id);
  }
  std::stable_sort(eligible.begin(), eligible.end(), [&](int a, int b) {
    const ExecutorState& ea = executors_[static_cast<std::size_t>(a)];
    const ExecutorState& eb = executors_[static_cast<std::size_t>(b)];
    const bool la = ea.bound_job == node.job;
    const bool lb = eb.bound_job == node.job;
    if (la != lb) return la;
    return config_.classes[static_cast<std::size_t>(ea.cls)].mem <
           config_.classes[static_cast<std::size_t>(eb.cls)].mem;
  });

  const int assigned = std::min<int>(want, static_cast<int>(eligible.size()));
  for (int i = 0; i < assigned; ++i) {
    start_task(eligible[static_cast<std::size_t>(i)], node);
  }
  return assigned;
}

void ClusterEnv::start_task(int executor_id, NodeRef node) {
  JobState& job = jobs_[static_cast<std::size_t>(node.job)];
  StageState& st = job.stages[static_cast<std::size_t>(node.stage)];
  ExecutorState& ex = executors_[static_cast<std::size_t>(executor_id)];
  assert(st.waiting > 0);

  double delay = 0.0;
  if (!ex.busy) {
    // Fresh dispatch (not the same-stage continuation path, where the
    // executor is already busy on this job).
    if (config_.enable_moving_delay && ex.bound_job != node.job) {
      delay = config_.moving_delay;
    }
    ex.busy = true;
    ex.bound_job = node.job;
    ++job.executors;
  }

  const bool first_wave = st.finished == 0;
  const double duration =
      sample_task_duration(job, node.stage, first_wave, executor_id);

  --st.waiting;
  ++st.running;
  const int task_index = st.started++;

  ex.cur_stage = node.stage;
  ex.cur_trace = trace_.size();

  TaskRecord rec;
  rec.job = node.job;
  rec.stage = node.stage;
  rec.task_index = task_index;
  rec.executor = executor_id;
  rec.dispatched = now_;
  rec.start = now_ + delay;
  rec.end = rec.start + duration;
  rec.first_wave = first_wave;
  trace_.push_back(rec);

  job.executed_work += duration;

  Event e;
  e.time = rec.end;
  e.kind = Event::Kind::kTaskFinish;
  e.job = node.job;
  e.stage = node.stage;
  e.executor = executor_id;
  e.exec_epoch = ex.fail_epoch;
  push_event(e);
}

double ClusterEnv::sample_task_duration(const JobState& job, int stage,
                                        bool first_wave, int executor_id) {
  const StageSpec& spec = job.spec.stages[static_cast<std::size_t>(stage)];
  double d = spec.task_duration;
  if (config_.enable_wave_effect && first_wave) d *= config_.first_wave_factor;
  if (config_.enable_inflation && job.spec.inflation > 0.0) {
    const double p = static_cast<double>(job.executors);
    const double over = std::max(0.0, p - job.spec.sweet_spot);
    d *= 1.0 + job.spec.inflation * over / std::max(job.spec.sweet_spot, 1.0);
  }
  if (config_.duration_noise > 0.0) {
    d *= rng_.lognormal_mean(1.0, config_.duration_noise);
  }
  // Fault plan (sim/faults.h): stragglers and heterogeneous speeds. Both are
  // no-ops (and draw nothing) under the default plan.
  const FaultPlan& faults = config_.faults;
  if (faults.stragglers.prob > 0.0 &&
      fault_rng_.bernoulli(faults.stragglers.prob)) {
    d *= faults.stragglers.factor;
  }
  d /= faults.speed_of(executor_id);
  return d;
}

void ClusterEnv::record_job_count_change(Time t, int delta) {
  job_count_changes_.emplace_back(t, delta);
}

std::vector<double> ClusterEnv::action_rewards() const {
  // Integrate J(t) (number of jobs in system) over each inter-action
  // interval. job_count_changes_ is naturally time-sorted.
  std::vector<double> rewards;
  rewards.reserve(action_times_.size() + 1);
  std::size_t ci = 0;
  int count = 0;
  Time prev = 0.0;
  auto integrate_to = [&](Time t) {
    double area = 0.0;
    while (ci < job_count_changes_.size() &&
           job_count_changes_[ci].first <= t) {
      area += count * (job_count_changes_[ci].first - prev);
      count += job_count_changes_[ci].second;
      prev = job_count_changes_[ci].first;
      ++ci;
    }
    area += count * (t - prev);
    prev = t;
    return area;
  };
  for (Time t : action_times_) rewards.push_back(-integrate_to(t));
  rewards.push_back(-integrate_to(now_));  // tail: last action -> episode end
  return rewards;
}

std::vector<double> ClusterEnv::action_rewards_makespan() const {
  std::vector<double> rewards;
  rewards.reserve(action_times_.size() + 1);
  Time prev = 0.0;
  for (Time t : action_times_) {
    rewards.push_back(-(t - prev));
    prev = t;
  }
  rewards.push_back(-(now_ - prev));
  return rewards;
}

}  // namespace decima::sim
