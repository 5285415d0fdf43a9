#include <gtest/gtest.h>

#include "metrics/experiment.h"
#include "sched/heuristics.h"
#include "sched/tuning.h"
#include "sim/validate.h"
#include "workload/tpch.h"

namespace decima::sched {
namespace {

using sim::EnvConfig;
using sim::JobBuilder;
using sim::JobSpec;

EnvConfig ideal_config(int execs) {
  EnvConfig c;
  c.num_executors = execs;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  return c;
}

JobSpec simple_job(const std::string& name, int tasks, double dur) {
  JobBuilder b(name);
  b.stage(tasks, dur);
  return b.build();
}

std::vector<workload::ArrivingJob> two_jobs() {
  return workload::batched(
      {simple_job("short", 2, 1.0), simple_job("long", 20, 1.0)});
}

TEST(Fifo, RunsJobsInArrivalOrder) {
  sim::ClusterEnv env(ideal_config(2));
  env.add_job(simple_job("first", 4, 1.0), 0.0);
  env.add_job(simple_job("second", 4, 1.0), 0.1);
  FifoScheduler fifo;
  env.run(fifo);
  EXPECT_TRUE(env.all_done());
  EXPECT_LT(env.jobs()[0].finish, env.jobs()[1].finish);
  std::string err;
  EXPECT_TRUE(sim::validate_trace(env, &err)) << err;
}

TEST(SjfCp, PrioritizesSmallJob) {
  sim::ClusterEnv env(ideal_config(2));
  env.add_job(simple_job("big", 20, 1.0), 0.0);
  env.add_job(simple_job("small", 2, 1.0), 0.0);
  SjfCpScheduler sjf;
  env.run(sjf);
  EXPECT_LT(env.jobs()[1].finish, env.jobs()[0].finish);
}

TEST(SjfCp, FollowsCriticalPathWithinJob) {
  // Two parallel branches: one long (critical), one short. SJF-CP must put
  // its single executor on the critical branch first.
  JobBuilder b("cp");
  const int root = b.stage(1, 1.0);
  b.stage(1, 10.0, {root});  // critical branch (stage 1)
  b.stage(1, 1.0, {root});   // short branch (stage 2)
  sim::ClusterEnv env(ideal_config(1));
  env.add_job(b.build(), 0.0);
  SjfCpScheduler sjf;
  env.run(sjf);
  // Find dispatch order of stage 1 vs stage 2.
  double t1 = -1, t2 = -1;
  for (const auto& t : env.trace()) {
    if (t.stage == 1) t1 = t.dispatched;
    if (t.stage == 2) t2 = t.dispatched;
  }
  EXPECT_LT(t1, t2);
}

TEST(Fair, SplitsExecutorsEqually) {
  sim::ClusterEnv env(ideal_config(4));
  env.add_job(simple_job("a", 40, 1.0), 0.0);
  env.add_job(simple_job("b", 40, 1.0), 0.0);
  WeightedFairScheduler fair(0.0);
  env.run(fair);
  // Both jobs progress concurrently: finishes within a wave of each other.
  EXPECT_NEAR(env.jobs()[0].finish, env.jobs()[1].finish, 2.0);
}

TEST(Fair, BackfillsWhenJobCannotUseShare) {
  // Job a has only 1 task; fair share would waste the 3 other executors if
  // not backfilled to job b.
  sim::ClusterEnv env(ideal_config(4));
  env.add_job(simple_job("a", 1, 10.0), 0.0);
  env.add_job(simple_job("b", 30, 1.0), 0.0);
  WeightedFairScheduler fair(0.0);
  env.run(fair);
  // b gets 3 executors: 30 tasks / 3 = 10 waves = 10s (not 15s with 2).
  EXPECT_LE(env.jobs()[1].finish, 11.0);
}

TEST(WeightedFair, AlphaNegativeFavorsSmallJobs) {
  const auto workload = two_jobs();
  WeightedFairScheduler inv(-1.0);
  WeightedFairScheduler naive(1.0);
  const auto r_inv = metrics::run_episode(ideal_config(4), workload, inv);
  const auto r_naive = metrics::run_episode(ideal_config(4), workload, naive);
  // Inverse weighting completes the short job sooner on average.
  EXPECT_LE(r_inv.avg_jct, r_naive.avg_jct + 1e-9);
}

TEST(WeightedFair, NamesDistinguishVariants) {
  EXPECT_EQ(WeightedFairScheduler(0.0).name(), "Fair");
  EXPECT_EQ(WeightedFairScheduler(1.0).name(), "NaiveWeightedFair");
  EXPECT_NE(WeightedFairScheduler(-1.0).name().find("WeightedFair"),
            std::string::npos);
}

TEST(Tuning, AlphaGridMatchesPaper) {
  const auto grid = alpha_grid(0.1);
  ASSERT_EQ(grid.size(), 41u);
  EXPECT_DOUBLE_EQ(grid.front(), -2.0);
  EXPECT_NEAR(grid.back(), 2.0, 1e-9);
}

TEST(Tuning, FindsBestAlphaOnSkewedMix) {
  decima::Rng rng(1);
  std::vector<std::vector<workload::ArrivingJob>> workloads;
  for (int i = 0; i < 3; ++i) {
    workloads.push_back(workload::batched(
        {simple_job("s1", 2, 1.0), simple_job("s2", 3, 1.0),
         simple_job("l1", 40, 1.0), simple_job("l2", 50, 1.0)}));
  }
  const auto best =
      tune_weighted_fair_alpha(ideal_config(8), workloads, {-1.0, 0.0, 1.0});
  // On a skewed mix, inverse (or flat) weighting beats naive weighting.
  EXPECT_LE(best.alpha, 0.5);
  EXPECT_GT(best.avg_jct, 0.0);
}

TEST(Tetris, PicksBestFittingClass) {
  sim::EnvConfig c = ideal_config(4);
  c.classes = {{0.25, "s"}, {0.5, "m"}, {0.75, "l"}, {1.0, "xl"}};
  sim::ClusterEnv env(c);
  JobBuilder b("mem");
  b.stage(4, 1.0, {}, 0.6);  // needs mem >= 0.6: only l/xl fit
  env.add_job(b.build(), 0.0);
  TetrisScheduler tetris;
  env.run(tetris);
  EXPECT_TRUE(env.all_done());
  std::string err;
  EXPECT_TRUE(sim::validate_trace(env, &err)) << err;
}

TEST(Graphene, DetectsTroublesomeStages) {
  JobBuilder b("t");
  b.stage(1, 100.0);            // dominates work
  b.stage(1, 1.0, {}, 0.9);     // memory hungry
  b.stage(1, 1.0);              // benign
  GrapheneConfig cfg;
  cfg.work_threshold = 0.5;
  cfg.mem_threshold = 0.5;
  const sim::JobSpec spec = b.build();
  const auto t = GrapheneScheduler::troublesome_stages(
      spec, *sim::JobShape::of(spec), cfg);
  EXPECT_EQ(t, (std::vector<int>{0, 1}));
}

TEST(Graphene, CompletesWorkloads) {
  decima::Rng rng(2);
  auto jobs = workload::sample_tpch_batch(rng, 6);
  const auto w = workload::batched(std::move(jobs));
  GrapheneScheduler g;
  sim::ClusterEnv env(ideal_config(10));
  workload::load(env, w);
  env.run(g);
  EXPECT_TRUE(env.all_done());
  std::string err;
  EXPECT_TRUE(sim::validate_trace(env, &err)) << err;
}

TEST(AllHeuristics, CompleteTpchBatchAndValidate) {
  decima::Rng rng(3);
  auto jobs = workload::sample_tpch_batch(rng, 8);
  const auto w = workload::batched(std::move(jobs));

  FifoScheduler fifo;
  SjfCpScheduler sjf;
  WeightedFairScheduler fair(0.0);
  WeightedFairScheduler naive(1.0);
  WeightedFairScheduler tuned(-1.0);
  TetrisScheduler tetris;
  GrapheneScheduler graphene;
  std::vector<sim::Scheduler*> all = {&fifo, &sjf,    &fair,    &naive,
                                      &tuned, &tetris, &graphene};
  for (sim::Scheduler* s : all) {
    sim::EnvConfig c;
    c.num_executors = 20;
    sim::ClusterEnv env(c);
    workload::load(env, w);
    env.run(*s);
    EXPECT_TRUE(env.all_done()) << s->name();
    std::string err;
    EXPECT_TRUE(sim::validate_trace(env, &err)) << s->name() << ": " << err;
    EXPECT_GT(env.avg_jct(), 0.0) << s->name();
  }
}

TEST(Ordering, FairBeatsFifoOnSkewedBatch) {
  // The §2.3 observation: fair scheduling beats FIFO on a heavy-tailed mix.
  decima::Rng rng(17);
  auto jobs = workload::sample_tpch_batch(rng, 10);
  const auto w = workload::batched(std::move(jobs));
  FifoScheduler fifo;
  WeightedFairScheduler fair(0.0);
  sim::EnvConfig c;
  c.num_executors = 50;
  const auto r_fifo = metrics::run_episode(c, w, fifo);
  const auto r_fair = metrics::run_episode(c, w, fair);
  EXPECT_LT(r_fair.avg_jct, r_fifo.avg_jct);
}

}  // namespace
}  // namespace decima::sched
