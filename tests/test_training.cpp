#include <gtest/gtest.h>

#include "metrics/experiment.h"
#include "rl/reinforce.h"
#include "sched/heuristics.h"

namespace decima::rl {
namespace {

using metrics::evaluate_avg_jct;

sim::EnvConfig tiny_env() {
  sim::EnvConfig c;
  c.num_executors = 2;
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

// A deterministic 3-job batch where the ordering decision matters a lot:
// the optimal policy runs the short jobs first.
WorkloadSampler skew_sampler() {
  return [](std::uint64_t) {
    return workload::batched(
        {job("long", 16, 1.0), job("short1", 2, 1.0), job("short2", 2, 1.0)});
  };
}

TrainConfig base_config() {
  TrainConfig c;
  c.num_iterations = 40;
  c.episodes_per_iter = 6;
  c.rollout_threads = 4;
  c.curriculum = false;  // tiny batch episodes finish quickly anyway
  c.differential_reward = false;
  c.entropy_weight = 0.05;
  c.env = tiny_env();
  c.sampler = skew_sampler();
  c.seed = 21;
  return c;
}

double greedy_jct(core::DecimaAgent& agent, const TrainConfig& cfg) {
  agent.set_mode(core::Mode::kGreedy);
  std::vector<std::vector<workload::ArrivingJob>> w = {cfg.sampler(0)};
  return evaluate_avg_jct(agent, cfg.env, w);
}

TEST(Trainer, IterationProducesFiniteStats) {
  core::AgentConfig ac;
  ac.seed = 3;
  core::DecimaAgent agent(ac);
  auto cfg = base_config();
  ReinforceTrainer trainer(agent, cfg);
  const auto stats = trainer.iterate();
  EXPECT_EQ(stats.iteration, 0);
  EXPECT_GT(stats.total_actions, 0);
  EXPECT_TRUE(std::isfinite(stats.mean_total_reward));
  EXPECT_TRUE(std::isfinite(stats.grad_norm));
  EXPECT_GT(stats.grad_norm, 0.0);
}

TEST(Trainer, LearnsToBeatInitialPolicyOnSkewedBatch) {
  core::AgentConfig ac;
  ac.seed = 3;
  core::DecimaAgent agent(ac);
  auto cfg = base_config();
  const double before = greedy_jct(agent, cfg);
  ReinforceTrainer trainer(agent, cfg);
  trainer.train();
  const double after = greedy_jct(agent, cfg);
  // Training must not make the policy materially worse, and usually
  // improves it. Allow slack for the stochastic optimizer.
  EXPECT_LE(after, before * 1.10 + 1e-9);

  // The optimal order (shorts first) gives avg JCT ((2/2)+(2/2+1)+(16/2+2))/3;
  // the worst (long first) is far higher. Check we're in the sane half.
  sched::FifoScheduler fifo;  // runs "long" first: bad
  std::vector<std::vector<workload::ArrivingJob>> w = {cfg.sampler(0)};
  const double fifo_jct = evaluate_avg_jct(fifo, cfg.env, w);
  EXPECT_LT(after, fifo_jct * 1.05);
}

TEST(Trainer, CurriculumGrowsTauMean) {
  core::AgentConfig ac;
  ac.seed = 5;
  core::DecimaAgent agent(ac);
  auto cfg = base_config();
  cfg.curriculum = true;
  cfg.tau_mean_init = 10.0;
  cfg.tau_mean_growth = 5.0;
  cfg.num_iterations = 3;
  ReinforceTrainer trainer(agent, cfg);
  const double t0 = trainer.tau_mean();
  trainer.iterate();
  trainer.iterate();
  EXPECT_GT(trainer.tau_mean(), t0);
}

TEST(Trainer, TauMeanCapped) {
  core::AgentConfig ac;
  ac.seed = 5;
  core::DecimaAgent agent(ac);
  auto cfg = base_config();
  cfg.curriculum = true;
  cfg.tau_mean_init = 10.0;
  cfg.tau_mean_growth = 1e9;
  cfg.tau_mean_max = 50.0;
  ReinforceTrainer trainer(agent, cfg);
  trainer.iterate();
  EXPECT_LE(trainer.tau_mean(), 50.0);
}

TEST(Trainer, MakespanObjectiveRuns) {
  core::AgentConfig ac;
  ac.seed = 9;
  core::DecimaAgent agent(ac);
  auto cfg = base_config();
  cfg.objective = Objective::kMakespan;
  cfg.num_iterations = 3;
  ReinforceTrainer trainer(agent, cfg);
  for (int i = 0; i < 3; ++i) {
    const auto s = trainer.iterate();
    EXPECT_TRUE(std::isfinite(s.mean_total_reward));
  }
}

TEST(Trainer, UnfixedSequencesStillTrain) {
  core::AgentConfig ac;
  ac.seed = 13;
  core::DecimaAgent agent(ac);
  auto cfg = base_config();
  cfg.fixed_sequences = false;
  cfg.num_iterations = 3;
  ReinforceTrainer trainer(agent, cfg);
  const auto s = trainer.iterate();
  EXPECT_GT(s.total_actions, 0);
}

TEST(Trainer, DifferentialRewardRuns) {
  core::AgentConfig ac;
  ac.seed = 17;
  core::DecimaAgent agent(ac);
  auto cfg = base_config();
  cfg.differential_reward = true;
  ReinforceTrainer trainer(agent, cfg);
  const auto s = trainer.iterate();
  EXPECT_TRUE(std::isfinite(s.grad_norm));
}

TEST(Trainer, DeterministicAcrossRuns) {
  auto run = [] {
    core::AgentConfig ac;
    ac.seed = 23;
    core::DecimaAgent agent(ac);
    auto cfg = base_config();
    cfg.num_iterations = 3;
    cfg.rollout_threads = 3;
    ReinforceTrainer trainer(agent, cfg);
    trainer.train();
    return agent.params().params()[0]->value.raw();
  };
  EXPECT_EQ(run(), run());
}

TEST(EvaluateAvgJct, ChargesUnfinishedJobs) {
  // A scheduler that never schedules: unfinished jobs must be charged.
  struct Never : sim::Scheduler {
    sim::Action schedule(const sim::ClusterEnv&) override {
      return sim::Action::none();
    }
    std::string name() const override { return "never"; }
  } never;
  std::vector<std::vector<workload::ArrivingJob>> w = {
      workload::batched({job("a", 2, 1.0)})};
  sched::FifoScheduler fifo;
  const double jct_never = evaluate_avg_jct(never, tiny_env(), w);
  const double jct_fifo = evaluate_avg_jct(fifo, tiny_env(), w);
  EXPECT_GE(jct_never, 0.0);
  EXPECT_GT(jct_fifo, 0.0);
}

}  // namespace
}  // namespace decima::rl
