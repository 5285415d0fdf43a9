#include "sim/cluster_env.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

namespace decima::sim {

ClusterEnv::ClusterEnv(EnvConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      fault_rng_(config_.faults.seed) {
  if (config_.num_executors <= 0) {
    throw std::invalid_argument("num_executors must be positive");
  }
  if (config_.classes.empty()) {
    throw std::invalid_argument("at least one executor class required");
  }
  const auto num_executors = static_cast<std::size_t>(config_.num_executors);
  executors_.reserve(num_executors);
  eligible_.reserve(num_executors);
  free_bits_.assign((num_executors + 63) / 64, 0);
  free_of_class_.assign(config_.classes.size(), 0);
  // Executors are spread round-robin across classes so each class holds an
  // (almost) equal share, matching the paper's 25%-per-class setup.
  for (int i = 0; i < config_.num_executors; ++i) {
    ExecutorState e;
    e.id = i;
    e.cls = i % static_cast<int>(config_.classes.size());
    executors_.push_back(e);
    set_free(e, true);
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
    if (job.stages[v].runnable()) ++job.runnable_stages;
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
    // One record per task, plus one re-run per outage: an outage kills at
    // most one task.
    std::size_t records = config_.faults.failures.size();
    for (const JobState& j : jobs_) {
      for (const StageSpec& st : j.spec.stages) {
        records += static_cast<std::size_t>(st.num_tasks);
      }
    }
    trace_.reserve(records);
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
  // Jobs may be added out of arrival order; active_ stays in index order.
  active_.insert(std::lower_bound(active_.begin(), active_.end(), e.job),
                 e.job);
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
    set_free(ex, true);
    --job.executors;
    needs_scheduling = true;
  }

  if (st.complete(spec.num_tasks)) {
    // Stage completion unlocks child stages (§5.2 event (ii)).
    ++job.stages_complete;
    for (int c : job.shape->children[static_cast<std::size_t>(e.stage)]) {
      StageState& child = job.stages[static_cast<std::size_t>(c)];
      --child.parents_pending;
      if (child.runnable()) ++job.runnable_stages;
    }
    if (job.done()) {
      job.finish = now_;
      active_.erase(std::find(active_.begin(), active_.end(), e.job));
      ++jobs_done_;
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
    if (++st.waiting == 1) ++job.runnable_stages;  // a drained stage refills
    --st.started;  // the re-run reuses this task index
    rec.killed = true;
    rec.start = std::min(rec.start, now_);
    rec.end = now_;
    ex.busy = false;
    ex.cur_stage = -1;
    --job.executors;
    killed_task = true;
  } else {
    set_free(ex, false);
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
  set_free(ex, true);
  return true;  // give the scheduler a shot at the fresh capacity
}

std::vector<NodeRef> ClusterEnv::runnable_nodes() const {
  std::vector<NodeRef> out;
  for (int j : active_) {
    const JobState& job = jobs_[static_cast<std::size_t>(j)];
    if (job.runnable_stages == 0) continue;
    for (std::size_t v = 0; v < job.stages.size(); ++v) {
      if (job.stages[v].runnable()) {
        out.push_back(NodeRef{j, static_cast<int>(v)});
      }
    }
  }
  return out;
}

void ClusterEnv::set_free(const ExecutorState& ex, bool free) {
  std::uint64_t& word = free_bits_[static_cast<std::size_t>(ex.id) / 64];
  const std::uint64_t bit = std::uint64_t{1} << (ex.id % 64);
  assert(((word & bit) != 0) != free);
  const int delta = free ? 1 : -1;
  word ^= bit;
  free_count_ += delta;
  free_of_class_[static_cast<std::size_t>(ex.cls)] += delta;
}

template <typename Fn>
void ClusterEnv::for_each_free(Fn&& fn) const {
  for (std::size_t w = 0; w < free_bits_.size(); ++w) {
    for (std::uint64_t bits = free_bits_[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<int>(w * 64) + __builtin_ctzll(bits));
    }
  }
}

int ClusterEnv::local_free_executors(int job) const {
  int n = 0;
  for_each_free([&](int id) {
    n += executors_[static_cast<std::size_t>(id)].bound_job == job ? 1 : 0;
  });
  return n;
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
    if (!job.arrived || node.stage < 0 ||
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
  // (no moving delay), then best-fit by memory to limit fragmentation, then
  // the lowest id.
  eligible_.clear();
  for_each_free([&](int id) {
    const ExecutorState& e = executors_[static_cast<std::size_t>(id)];
    if ((exec_class < 0 || e.cls == exec_class) &&
        config_.classes[static_cast<std::size_t>(e.cls)].fits(spec.mem_req)) {
      eligible_.push_back(id);
    }
  });
  // A total order, so std::sort (which, unlike std::stable_sort, never
  // allocates) gives the one ordering.
  std::sort(eligible_.begin(), eligible_.end(), [&](int a, int b) {
    const ExecutorState& ea = executors_[static_cast<std::size_t>(a)];
    const ExecutorState& eb = executors_[static_cast<std::size_t>(b)];
    const bool la = ea.bound_job == node.job;
    const bool lb = eb.bound_job == node.job;
    if (la != lb) return la;
    const double ma = config_.classes[static_cast<std::size_t>(ea.cls)].mem;
    const double mb = config_.classes[static_cast<std::size_t>(eb.cls)].mem;
    if (ma != mb) return ma < mb;
    return a < b;
  });

  const int assigned = std::min<int>(want, static_cast<int>(eligible_.size()));
  for (int i = 0; i < assigned; ++i) {
    start_task(eligible_[static_cast<std::size_t>(i)], node);
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
    set_free(ex, false);
    ++job.executors;
  }

  const bool first_wave = st.finished == 0;
  const double duration =
      sample_task_duration(job, node.stage, first_wave, executor_id);

  if (--st.waiting == 0) --job.runnable_stages;
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

}  // namespace decima::sim
