#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fnv1a.h"
#include "sched/heuristics.h"
#include "sim/cluster_env.h"
#include "sim/validate.h"
#include "workload/arrivals.h"
#include "workload/tpch.h"

namespace decima::sim {
namespace {

EnvConfig basic_config(int execs = 4) {
  EnvConfig c;
  c.num_executors = execs;
  c.moving_delay = 0.0;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  c.duration_noise = 0.0;
  return c;
}

JobSpec one_stage_job(const std::string& name, int tasks, double dur) {
  JobBuilder b(name);
  b.stage(tasks, dur);
  return b.build();
}

TEST(ClusterEnv, SingleStageRunsToCompletion) {
  ClusterEnv env(basic_config(2));
  env.add_job(one_stage_job("j", 4, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_TRUE(env.all_done());
  // 4 tasks on 2 executors at 1s each = 2 waves = 2 seconds.
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 2.0);
  EXPECT_DOUBLE_EQ(env.avg_jct(), 2.0);
  std::string err;
  EXPECT_TRUE(validate_trace(env, &err)) << err;
}

TEST(ClusterEnv, DependenciesGateChildStages) {
  ClusterEnv env(basic_config(4));
  JobBuilder b("dep");
  const int s0 = b.stage(2, 1.0);
  b.stage(2, 1.0, {s0});
  env.add_job(b.build(), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_TRUE(env.all_done());
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 2.0);  // sequential stages
  std::string err;
  EXPECT_TRUE(validate_trace(env, &err)) << err;
}

TEST(ClusterEnv, ArrivalTimeRespected) {
  ClusterEnv env(basic_config(2));
  env.add_job(one_stage_job("late", 1, 1.0), 5.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 6.0);
  EXPECT_DOUBLE_EQ(env.jobs()[0].jct(), 1.0);
}

TEST(ClusterEnv, MovingDelayAppliedAcrossJobs) {
  EnvConfig c = basic_config(1);
  c.enable_moving_delay = true;
  c.moving_delay = 2.0;
  ClusterEnv env(c);
  env.add_job(one_stage_job("a", 1, 1.0), 0.0);
  env.add_job(one_stage_job("b", 1, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_TRUE(env.all_done());
  // Executor pays the 2s delay for job a (first binding) and again for b.
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 3.0);
  EXPECT_DOUBLE_EQ(env.jobs()[1].finish, 6.0);
}

TEST(ClusterEnv, NoMovingDelayWithinSameJob) {
  EnvConfig c = basic_config(1);
  c.enable_moving_delay = true;
  c.moving_delay = 2.0;
  ClusterEnv env(c);
  JobBuilder b("two-stage");
  const int s0 = b.stage(1, 1.0);
  b.stage(1, 1.0, {s0});
  env.add_job(b.build(), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  // Delay paid once on first binding; the second stage reuses the local
  // executor without a new delay: 2 + 1 + 1 = 4.
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 4.0);
}

TEST(ClusterEnv, FirstWaveSlowdown) {
  EnvConfig c = basic_config(2);
  c.enable_wave_effect = true;
  c.first_wave_factor = 1.5;
  ClusterEnv env(c);
  env.add_job(one_stage_job("w", 4, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  // First wave (2 tasks) at 1.5s, second wave at 1.0s => finish at 2.5s.
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 2.5);
  int first_wave = 0;
  for (const auto& t : env.trace()) first_wave += t.first_wave ? 1 : 0;
  EXPECT_EQ(first_wave, 2);
}

TEST(ClusterEnv, WorkInflationSlowsWideAllocations) {
  EnvConfig c = basic_config(8);
  c.enable_inflation = true;
  ClusterEnv env(c);
  JobSpec j = one_stage_job("inflate", 8, 1.0);
  j.sweet_spot = 2.0;
  j.inflation = 1.0;
  env.add_job(j, 0.0);
  sched::FifoScheduler fifo;  // grabs all 8 executors
  env.run(fifo);
  // With 8 executors and sweet spot 2: multiplier grows as executors bind.
  // Whatever the exact value, it must exceed the uninflated 1s runtime.
  EXPECT_GT(env.jobs()[0].finish, 1.0);
  EXPECT_GT(env.jobs()[0].executed_work, 8.0);
}

TEST(ClusterEnv, ParallelismLimitCapsAllocation) {
  // A scheduler that always sets limit 2 on the only job.
  struct LimitTwo : Scheduler {
    Action schedule(const ClusterEnv& env) override {
      const auto nodes = env.runnable_nodes();
      if (nodes.empty()) return Action::none();
      if (env.jobs()[0].executors >= 2) return Action::none();
      Action a;
      a.node = nodes[0];
      a.limit = 2;
      return a;
    }
    std::string name() const override { return "limit2"; }
  };
  ClusterEnv env(basic_config(4));
  env.add_job(one_stage_job("j", 8, 1.0), 0.0);
  LimitTwo sched;
  env.run(sched);
  EXPECT_TRUE(env.all_done());
  // 8 tasks at parallelism 2 => 4 waves => 4 seconds.
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 4.0);
}

TEST(ClusterEnv, RunnableNodesTracksFrontier) {
  ClusterEnv env(basic_config(1));
  JobBuilder b("f");
  const int s0 = b.stage(1, 1.0);
  b.stage(1, 1.0, {s0});
  env.add_job(b.build(), 0.0);
  // Before run: nothing arrived yet (arrival event pending).
  EXPECT_TRUE(env.runnable_nodes().empty());
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_TRUE(env.runnable_nodes().empty());  // all done
}

TEST(ClusterEnv, EarlyTerminationStopsAtTau) {
  ClusterEnv env(basic_config(1));
  env.add_job(one_stage_job("long", 100, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo, /*until=*/10.0);
  EXPECT_FALSE(env.all_done());
  EXPECT_LE(env.now(), 10.0 + 1e-9);
  // Resume to completion.
  env.run(fifo);
  EXPECT_TRUE(env.all_done());
}

TEST(ClusterEnv, RejectsInvalidJob) {
  ClusterEnv env(basic_config(1));
  JobSpec bad;
  bad.name = "bad";
  EXPECT_THROW(env.add_job(bad, 0.0), std::invalid_argument);
  EXPECT_THROW(env.add_job(one_stage_job("x", 1, 1.0), -1.0),
               std::invalid_argument);
}

TEST(ClusterEnv, RejectsBadConfig) {
  EnvConfig c;
  c.num_executors = 0;
  EXPECT_THROW(ClusterEnv{c}, std::invalid_argument);
  EnvConfig c2;
  c2.classes.clear();
  EXPECT_THROW(ClusterEnv{c2}, std::invalid_argument);
}

TEST(ClusterEnv, DeterministicWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    EnvConfig c = basic_config(3);
    c.duration_noise = 0.3;
    c.seed = seed;
    ClusterEnv env(c);
    env.add_job(one_stage_job("a", 10, 1.0), 0.0);
    env.add_job(one_stage_job("b", 5, 2.0), 1.0);
    sched::FifoScheduler fifo;
    env.run(fifo);
    return env.avg_jct();
  };
  EXPECT_DOUBLE_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

TEST(ClusterEnv, LocalFreeExecutorsTracked) {
  EnvConfig c = basic_config(2);
  ClusterEnv env(c);
  JobBuilder b("l");
  const int s0 = b.stage(1, 1.0);
  b.stage(1, 5.0, {s0});
  env.add_job(b.build(), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  // Each stage has a single task, so exactly one executor ever served job 0
  // and remains "local" to it after completion.
  EXPECT_EQ(env.local_free_executors(0), 1);
}

TEST(ClusterEnv, DecisionLatenciesRecorded) {
  ClusterEnv env(basic_config(2));
  env.add_job(one_stage_job("j", 4, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_FALSE(env.decision_latencies().empty());
}

// --- Stress episodes: every heuristic on faulty, noisy clusters -------------

std::unique_ptr<Scheduler> make_heuristic(int kind) {
  switch (kind) {
    case 0: return std::make_unique<sched::SjfCpScheduler>();
    case 1: return std::make_unique<sched::FifoScheduler>();
    case 2: return std::make_unique<sched::WeightedFairScheduler>(0.0);
    case 3: return std::make_unique<sched::WeightedFairScheduler>(-1.0);
    case 4: return std::make_unique<sched::TetrisScheduler>();
    default: return std::make_unique<sched::GrapheneScheduler>();
  }
}
constexpr int kHeuristics = 6;

enum class Arrivals { kContinuous, kFlashCrowd, kDiurnal, kOutOfOrder };

struct StressCase {
  std::uint64_t seed = 1;
  int classes = 1;  // 1, or 4 with TPC-H memory requests
  Arrivals arrivals = Arrivals::kContinuous;
  bool permanent_failures = false;
  double duration_noise = 0.0;
};

struct StressEpisode {
  EnvConfig env;
  std::vector<workload::ArrivingJob> jobs;
};

// Ten seeded TPC-H jobs on 16 executors with outages (overlapping ones
// included), stragglers and heterogeneous speeds.
StressEpisode stress_episode(const StressCase& c) {
  constexpr int kExecutors = 16;
  StressEpisode e;
  Rng rng(c.seed);
  e.env.num_executors = kExecutors;
  if (c.classes == 4) {
    e.env.classes = {{0.25, "s"}, {0.5, "m"}, {0.75, "l"}, {1.0, "xl"}};
  }
  e.env.seed = rng.fork();
  e.env.duration_noise = c.duration_noise;
  // Three permanent outages leave every class of four a live executor.
  e.env.faults.failures =
      c.permanent_failures
          ? random_failures(rng, kExecutors, 3, 200.0, /*mean_downtime=*/0.0)
          : random_failures(rng, kExecutors, 6, 300.0, 40.0);
  e.env.faults.stragglers = {0.1, 4.0};
  e.env.faults.executor_speeds =
      heterogeneous_speeds(rng, kExecutors, 0.3, 2.0);
  e.env.faults.seed = rng.fork();
  auto specs = workload::sample_tpch_batch(rng, 10);
  if (c.classes == 4) {
    for (auto& s : specs) workload::assign_memory_requests(s, rng);
  }
  switch (c.arrivals) {
    case Arrivals::kContinuous:
      e.jobs = workload::continuous(std::move(specs), rng, 20.0);
      break;
    case Arrivals::kFlashCrowd: {
      workload::FlashCrowdConfig fc;
      fc.base_iat = 20.0;
      fc.burst_at = 40.0;
      e.jobs = workload::flash_crowd(std::move(specs), rng, fc);
      break;
    }
    case Arrivals::kDiurnal: {
      workload::DiurnalConfig dc;
      dc.mean_iat = 15.0;
      dc.period = 200.0;
      dc.burst_prob = 0.3;
      dc.burst_size = 3;
      e.jobs = workload::diurnal_arrivals(std::move(specs), rng, dc);
      break;
    }
    case Arrivals::kOutOfOrder:
      // Latest arrival registered first: job indices run against time.
      e.jobs = workload::continuous(std::move(specs), rng, 20.0);
      std::reverse(e.jobs.begin(), e.jobs.end());
      break;
  }
  return e;
}

// Every simulated outcome of an episode: each TaskRecord field, the action
// times, the event intervals, each job's finish, last parallelism limit and
// executed work, and the event count. Wall-clock latencies are left out.
void hash_episode(const ClusterEnv& env, Fnv1a64& h) {
  h.u64(env.trace().size());
  for (const TaskRecord& r : env.trace()) {
    h.i64(r.job);
    h.i64(r.stage);
    h.i64(r.task_index);
    h.i64(r.executor);
    h.f64(r.dispatched);
    h.f64(r.start);
    h.f64(r.end);
    h.u64(r.first_wave ? 1 : 0);
    h.u64(r.killed ? 1 : 0);
  }
  h.u64(env.action_times().size());
  for (Time t : env.action_times()) h.f64(t);
  h.u64(env.event_intervals().size());
  for (double d : env.event_intervals()) h.f64(d);
  for (const JobState& j : env.jobs()) {
    h.f64(j.finish);
    h.i64(j.parallelism_limit);
    h.f64(j.executed_work);
  }
  h.u64(env.num_events_processed());
}

// The six heuristics on 1 and 4 classes, two seeds each, with outages,
// stragglers, heterogeneous speeds and duration noise. The constant pins
// every simulated outcome; a change to the simulator or a heuristic that
// moves any of them changes it. Like the AllocCounts pins it depends on
// libstdc++'s <random> distributions, which the standard does not fix.
TEST(ClusterEnv, TraceFingerprintIsPinned) {
  Fnv1a64 h;
  for (int kind = 0; kind < kHeuristics; ++kind) {
    for (int classes : {1, 4}) {
      for (std::uint64_t seed : {1ULL, 2ULL}) {
        StressCase c;
        c.seed = seed;
        c.classes = classes;
        c.duration_noise = 0.2;
        const StressEpisode e = stress_episode(c);
        ClusterEnv env(e.env);
        workload::load(env, e.jobs);
        auto sched = make_heuristic(kind);
        env.run(*sched);
        ASSERT_TRUE(env.all_done()) << sched->name() << " seed " << seed;
        hash_episode(env, h);
      }
    }
  }
  EXPECT_EQ(h.value(), 0x980791539c1833d8ULL);
}

// --- The simulator's indexes against a recount ------------------------------

// The first disagreement between the env's indexed answers and a recount
// from executors() and jobs() alone; empty when they all agree.
std::string recount_mismatch(const ClusterEnv& env) {
  const auto& jobs = env.jobs();
  int free = 0;
  std::vector<int> free_of_class(env.executor_classes().size(), 0);
  std::vector<int> local(jobs.size(), 0);
  for (const ExecutorState& e : env.executors()) {
    if (e.busy || e.failed) continue;
    ++free;
    ++free_of_class[static_cast<std::size_t>(e.cls)];
    if (e.bound_job >= 0) ++local[static_cast<std::size_t>(e.bound_job)];
  }
  const std::string at = " at t=" + std::to_string(env.now());
  if (env.free_executor_count() != free) return "free count" + at;
  for (std::size_t c = 0; c < free_of_class.size(); ++c) {
    if (env.free_executor_count_of_class(static_cast<int>(c)) !=
        free_of_class[c]) {
      return "free count of class " + std::to_string(c) + at;
    }
  }
  std::vector<int> active;
  bool all_done = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string job = " of job " + std::to_string(j) + at;
    if (env.local_free_executors(static_cast<int>(j)) != local[j]) {
      return "local free executors" + job;
    }
    int runnable = 0;
    for (const StageState& st : jobs[j].stages) runnable += st.runnable();
    if (jobs[j].runnable_stages != runnable) return "runnable stages" + job;
    if (jobs[j].arrived && !jobs[j].done()) {
      active.push_back(static_cast<int>(j));
    }
    all_done = all_done && jobs[j].done();
  }
  if (env.active_jobs() != active) return "active jobs" + at;
  if (env.all_done() != all_done) return "all_done" + at;
  return "";
}

// Recounts the indexes before every decision of its inner scheduler and
// keeps the first mismatch.
class RecountingScheduler : public Scheduler {
 public:
  explicit RecountingScheduler(Scheduler& inner) : inner_(inner) {}
  void reset() override { inner_.reset(); }
  Action schedule(const ClusterEnv& env) override {
    if (mismatch.empty()) mismatch = recount_mismatch(env);
    ++decisions;
    return inner_.schedule(env);
  }
  std::string name() const override { return inner_.name(); }
  std::string mismatch;
  long decisions = 0;

 private:
  Scheduler& inner_;
};

// Every heuristic, on 1 and 4 classes, over the arrival generators and an
// out-of-order registration, with recovering and permanent outages,
// stragglers, heterogeneous speeds and (on seed 3) duration noise.
TEST(ClusterEnv, IndexesMatchARecountAtEveryDecision) {
  std::vector<StressCase> cases;
  for (int classes : {1, 4}) {
    for (Arrivals arrivals : {Arrivals::kContinuous, Arrivals::kFlashCrowd,
                              Arrivals::kDiurnal, Arrivals::kOutOfOrder}) {
      for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        StressCase c;
        c.seed = seed;
        c.classes = classes;
        c.arrivals = arrivals;
        c.permanent_failures = seed == 2;
        c.duration_noise = seed == 3 ? 0.3 : 0.0;
        cases.push_back(c);
      }
    }
  }
  for (const StressCase& c : cases) {
    const StressEpisode e = stress_episode(c);
    for (int kind = 0; kind < kHeuristics; ++kind) {
      ClusterEnv env(e.env);
      workload::load(env, e.jobs);
      auto inner = make_heuristic(kind);
      RecountingScheduler sched(*inner);
      EXPECT_EQ(recount_mismatch(env), "");  // before any arrival
      env.run(sched);
      SCOPED_TRACE(inner->name() + ", " + std::to_string(c.classes) +
                   " classes, arrivals " +
                   std::to_string(static_cast<int>(c.arrivals)) + ", seed " +
                   std::to_string(c.seed));
      EXPECT_GT(sched.decisions, 0);
      EXPECT_EQ(sched.mismatch, "");
      EXPECT_EQ(recount_mismatch(env), "");
      EXPECT_TRUE(env.all_done());
      std::string err;
      EXPECT_TRUE(validate_trace(env, &err)) << err;
    }
  }
}

// On every other call, targets the root stage of the first job that has not
// arrived yet; otherwise decides like FIFO.
class AheadOfArrivalScheduler : public Scheduler {
 public:
  Action schedule(const ClusterEnv& env) override {
    const auto& jobs = env.jobs();
    if (++calls % 2 == 1) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].arrived) continue;
        ++early;
        return Action{NodeRef{static_cast<int>(j), 0}, 1, -1};
      }
    }
    return fifo_.schedule(env);
  }
  std::string name() const override { return "ahead of arrival"; }
  long calls = 0;
  long early = 0;

 private:
  sched::FifoScheduler fifo_;
};

// An action for a job that has not arrived is declined like any other
// malformed action. Dispatched at t=0, the late job would finish before its
// arrival event: its completion would find no active-list entry to erase,
// and the arrival would then list a finished job as active.
TEST(ClusterEnv, ActionBeforeArrivalIsDeclined) {
  ClusterEnv env(basic_config(2));
  env.add_job(one_stage_job("early", 4, 2.0), 0.0);
  env.add_job(one_stage_job("late", 1, 1.0), 5.0);
  AheadOfArrivalScheduler inner;
  RecountingScheduler sched(inner);
  env.run(sched);
  EXPECT_GT(inner.early, 0);
  EXPECT_EQ(sched.mismatch, "");
  EXPECT_EQ(recount_mismatch(env), "");
  EXPECT_TRUE(env.all_done());
  for (const TaskRecord& r : env.trace()) {
    EXPECT_TRUE(r.job != 1 || r.dispatched >= 5.0) << r.dispatched;
  }
  std::string err;
  EXPECT_TRUE(validate_trace(env, &err)) << err;
}

}  // namespace
}  // namespace decima::sim
