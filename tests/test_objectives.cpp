#include <gtest/gtest.h>

#include "fnv1a.h"
#include "rl/objectives.h"
#include "sched/heuristics.h"
#include "workload/arrivals.h"
#include "workload/tpch.h"

namespace decima::rl {
namespace {

sim::EnvConfig config(int execs) {
  sim::EnvConfig c;
  c.num_executors = execs;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  return c;
}

sim::JobSpec job(const std::string& name, int tasks, double dur) {
  sim::JobBuilder b(name);
  b.stage(tasks, dur);
  return b.build();
}

// Runs two 1-task jobs sequentially on one executor: a at [0,1), b at [1,2).
sim::ClusterEnv two_sequential_jobs() {
  sim::ClusterEnv env(config(1));
  env.add_job(job("a", 1, 1.0), 0.0);
  env.add_job(job("b", 1, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  return env;
}

TEST(Objectives, RewardVectorsAlignWithActions) {
  const auto env = two_sequential_jobs();
  const std::size_t k = env.action_times().size();
  EXPECT_EQ(avg_jct_rewards(env).size(), k + 1);
  EXPECT_EQ(makespan_rewards(env).size(), k + 1);
  EXPECT_EQ(tail_jct_rewards(env).size(), k + 1);
  EXPECT_EQ(deadline_rewards(env, DeadlineConfig{}).size(), k + 1);
}

TEST(Objectives, TailRewardTotalsSumOfSquaredJctsOverTwo) {
  const auto env = two_sequential_jobs();
  const auto rewards = tail_jct_rewards(env);
  double total = 0.0;
  for (double r : rewards) total += r;
  // Job a: JCT 1 -> 0.5; job b: JCT 2 -> 2.0. Total age integral = 2.5.
  EXPECT_NEAR(total, -2.5, 1e-9);
}

TEST(Objectives, TailPenalizesLongJobsSuperlinearly) {
  // One job of JCT 4 accumulates more age-penalty than four jobs of JCT 1.
  sim::ClusterEnv env1(config(1));
  env1.add_job(job("long", 4, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env1.run(fifo);
  double long_total = 0.0;
  for (double r : tail_jct_rewards(env1)) long_total += r;

  sim::ClusterEnv env2(config(4));
  for (int i = 0; i < 4; ++i) env2.add_job(job("s", 1, 1.0), 0.0);
  sched::FifoScheduler fifo2;
  env2.run(fifo2);
  double short_total = 0.0;
  for (double r : tail_jct_rewards(env2)) short_total += r;

  EXPECT_LT(long_total, short_total);  // more negative = worse
}

TEST(Objectives, DeadlineMissAddsPenalty) {
  // One executor, two jobs: the second job (JCT 2, critical path 1s) misses
  // a tight deadline.
  DeadlineConfig tight;
  tight.slack = 1.5;  // deadline = 1.5s < JCT 2s for job b
  tight.miss_penalty = 50.0;
  const auto env = two_sequential_jobs();
  const auto with_deadline = deadline_rewards(env, tight);
  const auto base = avg_jct_rewards(env);
  double dead_total = 0.0, base_total = 0.0;
  for (double r : with_deadline) dead_total += r;
  for (double r : base) base_total += r;
  EXPECT_NEAR(dead_total, base_total - 50.0, 1e-9);
}

TEST(Objectives, GenerousDeadlineAddsNothing) {
  DeadlineConfig lax;
  lax.slack = 100.0;
  const auto env = two_sequential_jobs();
  const auto with_deadline = deadline_rewards(env, lax);
  const auto base = avg_jct_rewards(env);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_deadline[i], base[i]);
  }
}

TEST(Objectives, HitRateCountsMetDeadlines) {
  DeadlineConfig cfg;
  cfg.slack = 1.5;  // job a (JCT 1) meets it; job b (JCT 2) misses
  const auto env = two_sequential_jobs();
  EXPECT_NEAR(deadline_hit_rate(env, cfg), 0.5, 1e-12);
  cfg.slack = 100.0;
  EXPECT_NEAR(deadline_hit_rate(env, cfg), 1.0, 1e-12);
}

TEST(Objectives, UnfinishedJobsCountedByTail) {
  sim::ClusterEnv env(config(1));
  env.add_job(job("long", 100, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo, /*until=*/10.0);
  ASSERT_FALSE(env.all_done());
  const auto rewards = tail_jct_rewards(env);
  double total = 0.0;
  for (double r : rewards) total += r;
  // Age integral of one job over [0, 10] = 50.
  EXPECT_NEAR(total, -50.0, 1e-6);
}

TEST(Objectives, ActionRewardPenalizesQueuedJobs) {
  const auto env = two_sequential_jobs();
  const auto rewards = avg_jct_rewards(env);
  double total = 0.0;
  for (double r : rewards) total += r;
  // Integral of J(t): 2 jobs during [0,1), 1 job during [1,2) => -(2+1) = -3.
  EXPECT_NEAR(total, -3.0, 1e-9);
}

TEST(Objectives, MakespanRewardSumsToNegativeMakespan) {
  sim::ClusterEnv env(config(2));
  env.add_job(job("a", 4, 1.0), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  const auto rewards = makespan_rewards(env);
  double total = 0.0;
  for (double r : rewards) total += r;
  EXPECT_NEAR(total, -env.makespan(), 1e-9);
}

// Every objective's reward vector, bit for bit.
void hash_rewards(const sim::ClusterEnv& env, Fnv1a64& h) {
  DeadlineConfig tight;
  tight.slack = 1.5;
  for (const auto& rewards :
       {avg_jct_rewards(env), makespan_rewards(env), tail_jct_rewards(env),
        deadline_rewards(env, DeadlineConfig{}),
        deadline_rewards(env, tight)}) {
    h.u64(rewards.size());
    for (double r : rewards) h.f64(r);
  }
}

// Twelve seeded TPC-H jobs on 10 executors under SJF-CP, with stragglers
// and duration noise. Jobs arrive in pairs that share an instant, the first
// three at t = 0.
sim::ClusterEnv noisy_episode(sim::Time until) {
  Rng rng(29);
  sim::EnvConfig c;
  c.num_executors = 10;
  c.seed = rng.fork();
  c.duration_noise = 0.3;
  c.faults.stragglers = {0.1, 4.0};
  c.faults.seed = rng.fork();
  auto jobs =
      workload::continuous(workload::sample_tpch_batch(rng, 12), rng, 25.0);
  for (std::size_t i = 1; i < jobs.size(); i += 2) {
    jobs[i].arrival = jobs[i - 1].arrival;
  }
  jobs[0].arrival = jobs[1].arrival = jobs[2].arrival = 0.0;
  sim::ClusterEnv env(c);
  workload::load(env, jobs);
  sched::SjfCpScheduler sjf;
  env.run(sjf, until);
  return env;
}

// The rewards of every objective on three episodes: the noisy one run to
// completion and cut at t = 100 (jobs still queued, others not yet
// arrived), and one where jobs arrive at the instant others finish. The
// constant was computed when the simulator still kept its own job-count
// log for these rewards; like ClusterEnv.TraceFingerprintIsPinned it
// depends on libstdc++'s <random> distributions.
TEST(Objectives, RewardBitsArePinned) {
  Fnv1a64 h;
  const sim::ClusterEnv full = noisy_episode(sim::kInfTime);
  ASSERT_TRUE(full.all_done());
  hash_rewards(full, h);
  const sim::ClusterEnv cut = noisy_episode(100.0);
  ASSERT_FALSE(cut.all_done());
  hash_rewards(cut, h);

  sim::ClusterEnv ties(config(1));
  ties.add_job(job("a", 1, 1.0), 0.0);
  ties.add_job(job("b", 2, 1.0), 0.0);
  ties.add_job(job("c", 1, 1.0), 1.0);  // arrives as a finishes
  ties.add_job(job("d", 1, 2.0), 3.0);  // arrives as b finishes
  sched::FifoScheduler fifo;
  ties.run(fifo);
  ASSERT_TRUE(ties.all_done());
  hash_rewards(ties, h);
  EXPECT_EQ(h.value(), 0xcf741949f7e724f0ULL);
}

}  // namespace
}  // namespace decima::rl
