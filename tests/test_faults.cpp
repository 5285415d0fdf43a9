// Fault-injection semantics (sim/faults.h, docs/robustness.md): executor
// failures kill and reschedule running tasks, recoveries restore capacity,
// stragglers and heterogeneous speeds shape durations — and a default
// FaultPlan changes nothing at all.
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/heuristics.h"
#include "sim/cluster_env.h"
#include "sim/faults.h"
#include "sim/validate.h"
#include "workload/arrivals.h"
#include "workload/tpch.h"

namespace decima::sim {
namespace {

EnvConfig plain_config(int execs) {
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

TEST(Faults, MidTaskFailureKillsAndReschedules) {
  EnvConfig c = plain_config(2);
  c.faults.failures = {{/*executor=*/0, /*fail_at=*/4.0}};
  ClusterEnv env(c);
  env.add_job(one_stage_job("j", 4, 10.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);

  EXPECT_TRUE(env.all_done());
  // Executor 0 is lost at t=4 with its task; executor 1 runs 4 tasks back to
  // back (the killed one is re-run), so the job finishes at t=40.
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 40.0);

  int killed = 0;
  for (const TaskRecord& t : env.trace()) {
    if (t.killed) {
      ++killed;
      EXPECT_EQ(t.executor, 0);
      EXPECT_DOUBLE_EQ(t.end, 4.0);  // clamped to the kill time
    }
  }
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(env.trace().size(), 5u);  // 4 completions + 1 killed attempt

  // executed_work counts the 4 full tasks plus the killed partial run.
  EXPECT_DOUBLE_EQ(env.jobs()[0].executed_work, 44.0);

  std::string err;
  EXPECT_TRUE(validate_trace(env, &err)) << err;
}

TEST(Faults, RecoveryRestoresCapacity) {
  EnvConfig c = plain_config(2);
  c.faults.failures = {{/*executor=*/1, /*fail_at=*/0.5, /*recover_at=*/2.5}};
  ClusterEnv env(c);
  env.add_job(one_stage_job("j", 6, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);

  EXPECT_TRUE(env.all_done());
  // Nothing may run on executor 1 inside the outage, and something should
  // run on it after recovery (FIFO grabs the fresh capacity).
  bool post_recovery_use = false;
  for (const TaskRecord& t : env.trace()) {
    if (t.executor != 1 || t.killed) continue;
    EXPECT_TRUE(t.end <= 0.5 + 1e-9 || t.dispatched >= 2.5 - 1e-9)
        << "task on executor 1 overlaps its outage";
    if (t.dispatched >= 2.5 - 1e-9) post_recovery_use = true;
  }
  EXPECT_TRUE(post_recovery_use);
  std::string err;
  EXPECT_TRUE(validate_trace(env, &err)) << err;
}

TEST(Faults, IdleFailureShrinksFreeCountUntilRecovery) {
  EnvConfig c = plain_config(2);
  c.faults.failures = {{/*executor=*/0, /*fail_at=*/1.0, /*recover_at=*/3.0}};
  ClusterEnv env(c);
  env.add_job(one_stage_job("late", 1, 1.0), 2.0);
  sched::FifoScheduler fifo;

  env.run(fifo, /*until=*/1.5);
  EXPECT_EQ(env.free_executor_count(), 1);  // failed executor is invisible

  env.run(fifo);
  EXPECT_TRUE(env.all_done());
  EXPECT_EQ(env.free_executor_count(), 2);  // recovered
  EXPECT_EQ(env.trace()[0].executor, 1);    // only choice at dispatch time
}

TEST(Faults, StragglersInflateDurations) {
  EnvConfig c = plain_config(2);
  c.faults.stragglers = {/*prob=*/1.0, /*factor=*/3.0};
  ClusterEnv env(c);
  env.add_job(one_stage_job("j", 2, 2.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_TRUE(env.all_done());
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, 6.0);  // every task straggles: 2s*3
}

TEST(Faults, HeterogeneousSpeedsScalePerExecutor) {
  EnvConfig c = plain_config(2);
  c.faults.executor_speeds = {1.0, 0.25};
  ClusterEnv env(c);
  env.add_job(one_stage_job("j", 2, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  EXPECT_TRUE(env.all_done());
  for (const TaskRecord& t : env.trace()) {
    const double dur = t.end - t.start;
    if (t.executor == 0) {
      EXPECT_DOUBLE_EQ(dur, 1.0);
    }
    if (t.executor == 1) {
      EXPECT_DOUBLE_EQ(dur, 4.0);  // quarter speed
    }
  }
}

TEST(Faults, InertPlanIsBitIdenticalToNoPlan) {
  // A plan with nothing in it (even with a different fault seed) must leave
  // the stochastic simulation untouched — no extra events, no extra draws.
  EnvConfig base = plain_config(3);
  base.duration_noise = 0.4;
  base.seed = 77;
  EnvConfig with_plan = base;
  with_plan.faults.seed = 999;  // differs, but the plan is empty
  ASSERT_FALSE(with_plan.faults.any());

  ClusterEnv a(base), b(with_plan);
  for (ClusterEnv* env : {&a, &b}) {
    env->add_job(one_stage_job("x", 6, 1.0), 0.0);
    env->add_job(one_stage_job("y", 4, 2.0), 1.0);
    sched::SjfCpScheduler sjf;
    env->run(sjf);
  }
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    EXPECT_EQ(a.trace()[i].executor, b.trace()[i].executor);
    EXPECT_DOUBLE_EQ(a.trace()[i].start, b.trace()[i].start);
    EXPECT_DOUBLE_EQ(a.trace()[i].end, b.trace()[i].end);
  }
}

TEST(Faults, PlanValidationRejectsNonsense) {
  EnvConfig c = plain_config(2);
  c.faults.failures = {{/*executor=*/5, /*fail_at=*/1.0}};
  EXPECT_THROW(ClusterEnv{c}, std::invalid_argument);

  c = plain_config(2);
  c.faults.failures = {{/*executor=*/0, /*fail_at=*/3.0, /*recover_at=*/2.0}};
  EXPECT_THROW(ClusterEnv{c}, std::invalid_argument);

  c = plain_config(2);
  c.faults.executor_speeds = {1.0, 0.0};
  EXPECT_THROW(ClusterEnv{c}, std::invalid_argument);

  c = plain_config(2);
  c.faults.stragglers.prob = 1.5;
  EXPECT_THROW(ClusterEnv{c}, std::invalid_argument);
}

TEST(Faults, GeneratorsAreDeterministicAndInRange) {
  Rng r1(11), r2(11);
  const auto f1 = random_failures(r1, 8, 5, 100.0, 20.0);
  const auto f2 = random_failures(r2, 8, 5, 100.0, 20.0);
  ASSERT_EQ(f1.size(), 5u);
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1[i].executor, f2[i].executor);
    EXPECT_DOUBLE_EQ(f1[i].fail_at, f2[i].fail_at);
    EXPECT_DOUBLE_EQ(f1[i].recover_at, f2[i].recover_at);
    EXPECT_GE(f1[i].executor, 0);
    EXPECT_LT(f1[i].executor, 8);
    EXPECT_GE(f1[i].fail_at, 0.0);
    EXPECT_LT(f1[i].fail_at, 100.0);
    EXPECT_GT(f1[i].recover_at, f1[i].fail_at);
  }

  Rng r3(12);
  const auto permanent = random_failures(r3, 4, 3, 50.0, /*mean_downtime=*/0.0);
  for (const auto& f : permanent) EXPECT_EQ(f.recover_at, kInfTime);

  Rng r4(13);
  const auto speeds = heterogeneous_speeds(r4, 100, 0.3, 2.0);
  ASSERT_EQ(speeds.size(), 100u);
  int slow = 0;
  for (double s : speeds) {
    EXPECT_TRUE(s == 1.0 || s == 0.5);
    if (s == 0.5) ++slow;
  }
  EXPECT_GT(slow, 10);  // ~30 expected
  EXPECT_LT(slow, 60);
}

TEST(Faults, SchedulersCompleteUnderRandomFaultSweeps) {
  // Property sweep: every heuristic finishes every job and keeps a valid
  // trace under combined failures + stragglers + heterogeneity.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EnvConfig c = plain_config(6);
    c.enable_moving_delay = true;
    c.moving_delay = 1.0;
    Rng frng(seed);
    c.faults.failures =
        random_failures(frng, c.num_executors, 4, 60.0, /*mean_downtime=*/25.0);
    c.faults.stragglers = {/*prob=*/0.1, /*factor=*/4.0};
    c.faults.executor_speeds =
        heterogeneous_speeds(frng, c.num_executors, 0.3, 2.0);
    c.faults.seed = seed;

    Rng jrng(100 + seed);
    auto specs = workload::sample_tpch_batch(jrng, 5);
    Rng arng(jrng.fork());
    const auto jobs = workload::continuous(std::move(specs), arng, 10.0);

    sched::FifoScheduler fifo;
    sched::SjfCpScheduler sjf;
    sched::WeightedFairScheduler fair(0.0);
    for (sim::Scheduler* sched :
         std::initializer_list<sim::Scheduler*>{&fifo, &sjf, &fair}) {
      ClusterEnv env(c);
      workload::load(env, jobs);
      env.run(*sched);
      EXPECT_TRUE(env.all_done())
          << sched->name() << " left jobs unfinished at seed " << seed;
      std::string err;
      EXPECT_TRUE(validate_trace(env, &err)) << sched->name() << ": " << err;
    }
  }
}

}  // namespace
}  // namespace decima::sim
