#include <gtest/gtest.h>

#include <stdexcept>

#include "core/agent.h"
#include "sim/validate.h"
#include "workload/tpch.h"

namespace decima::core {
namespace {

sim::EnvConfig config(int execs) {
  sim::EnvConfig c;
  c.num_executors = execs;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  return c;
}

AgentConfig agent_config() {
  AgentConfig c;
  c.seed = 7;
  return c;
}

sim::JobSpec job(const std::string& name, int tasks, double dur) {
  sim::JobBuilder b(name);
  b.stage(tasks, dur);
  return b.build();
}

TEST(Agent, UntrainedPolicyCompletesWorkload) {
  DecimaAgent agent(agent_config());
  agent.set_mode(Mode::kSample);
  agent.set_sample_seed(1);
  sim::ClusterEnv env(config(5));
  env.add_job(job("a", 10, 1.0), 0.0);
  env.add_job(job("b", 4, 2.0), 1.0);
  env.run(agent);
  EXPECT_TRUE(env.all_done());
  std::string err;
  EXPECT_TRUE(sim::validate_trace(env, &err)) << err;
}

TEST(Agent, GreedyIsDeterministic) {
  auto run = [] {
    DecimaAgent agent(agent_config());
    agent.set_mode(Mode::kGreedy);
    sim::ClusterEnv env(config(4));
    decima::Rng rng(5);
    for (auto& j : workload::sample_tpch_batch(rng, 4)) env.add_job(j, 0.0);
    env.run(agent);
    return env.avg_jct();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Agent, SamplingVariesWithSeed) {
  auto run = [](std::uint64_t seed) {
    DecimaAgent agent(agent_config());
    agent.set_mode(Mode::kSample);
    agent.set_sample_seed(seed);
    sim::ClusterEnv env(config(4));
    decima::Rng rng(5);
    for (auto& j : workload::sample_tpch_batch(rng, 6)) env.add_job(j, 0.0);
    env.run(agent);
    return env.avg_jct();
  };
  // Not guaranteed to differ, but over a few seeds at least one should.
  const double base = run(1);
  bool varied = false;
  for (std::uint64_t s = 2; s <= 5; ++s) varied |= run(s) != base;
  EXPECT_TRUE(varied);
}

TEST(Agent, RecordingCapturesAllActions) {
  DecimaAgent agent(agent_config());
  agent.set_mode(Mode::kSample);
  agent.set_sample_seed(3);
  agent.start_recording();
  sim::ClusterEnv env(config(3));
  env.add_job(job("a", 6, 1.0), 0.0);
  env.run(agent);
  const auto recorded = agent.take_recorded();
  EXPECT_EQ(recorded.size(), env.action_times().size());
  for (const auto& r : recorded) {
    EXPECT_TRUE(r.action.valid());
    EXPECT_GE(r.node_choice, 0);
  }
}

TEST(Agent, ReplayReproducesRolloutExactly) {
  const auto cfg = agent_config();
  // Rollout.
  DecimaAgent agent(cfg);
  agent.set_mode(Mode::kSample);
  agent.set_sample_seed(11);
  agent.start_recording();
  sim::ClusterEnv env1(config(4));
  env1.add_job(job("a", 8, 1.0), 0.0);
  env1.add_job(job("b", 3, 2.0), 0.5);
  env1.run(agent);
  const auto recorded = agent.take_recorded();
  const double jct1 = env1.avg_jct();

  // Replay with a fresh but identically-seeded environment.
  auto clone = agent.clone();
  clone->params().zero_grads();
  std::vector<double> weights(recorded.size(), 1.0);
  clone->start_replay(recorded, weights, 0.01);
  sim::ClusterEnv env2(config(4));
  env2.add_job(job("a", 8, 1.0), 0.0);
  env2.add_job(job("b", 3, 2.0), 0.5);
  env2.run(*clone);
  clone->finish_replay();

  EXPECT_DOUBLE_EQ(env2.avg_jct(), jct1);
  EXPECT_EQ(clone->replay_cursor(), recorded.size());
  // Replay accumulated nonzero gradients.
  double gnorm = 0.0;
  for (const auto* p : clone->params().params()) {
    gnorm += p->grad.squared_norm();
  }
  EXPECT_GT(gnorm, 0.0);
}

TEST(Agent, ZeroAdvantageGivesEntropyOnlyGradient) {
  const auto cfg = agent_config();
  DecimaAgent agent(cfg);
  agent.set_mode(Mode::kSample);
  agent.set_sample_seed(2);
  agent.start_recording();
  sim::ClusterEnv env(config(3));
  env.add_job(job("a", 5, 1.0), 0.0);
  env.run(agent);
  const auto recorded = agent.take_recorded();

  auto clone = agent.clone();
  clone->params().zero_grads();
  clone->start_replay(recorded, std::vector<double>(recorded.size(), 0.0),
                      /*entropy_weight=*/0.0);
  sim::ClusterEnv env2(config(3));
  env2.add_job(job("a", 5, 1.0), 0.0);
  env2.run(*clone);
  clone->finish_replay();
  for (const auto* p : clone->params().params()) {
    EXPECT_DOUBLE_EQ(p->grad.squared_norm(), 0.0);
  }
}

// --- Replay preconditions (checked in every build, not by assert) ----------

// A sampled episode of `cfg` on two jobs, and a fresh env to replay it on.
std::vector<RecordedAction> record_episode(const AgentConfig& cfg,
                                           const sim::EnvConfig& env_cfg) {
  DecimaAgent agent(cfg);
  agent.set_mode(Mode::kSample);
  agent.set_sample_seed(5);
  agent.start_recording();
  sim::ClusterEnv env(env_cfg);
  env.add_job(job("a", 8, 1.0), 0.0);
  env.add_job(job("b", 3, 2.0), 0.5);
  env.run(agent);
  return agent.take_recorded();
}

void replay_episode(DecimaAgent& agent, const sim::EnvConfig& env_cfg) {
  sim::ClusterEnv env(env_cfg);
  env.add_job(job("a", 8, 1.0), 0.0);
  env.add_job(job("b", 3, 2.0), 0.5);
  env.run(agent);
}

TEST(AgentReplay, StartReplayThrowsOverUnfinishedBatchedTail) {
  const AgentConfig cfg = agent_config();
  const auto recorded = record_episode(cfg, config(4));
  // The batched replay scores chunks of 8 events.
  ASSERT_NE(recorded.size() % 8, 0u) << "no pending tail to lose";
  DecimaAgent agent(cfg);
  const std::vector<double> weights(recorded.size(), 1.0);
  agent.start_replay(recorded, weights, 0.0);
  replay_episode(agent, config(4));
  // finish_replay() skipped: the tail's gradients are still pending.
  EXPECT_THROW(agent.start_replay(recorded, weights, 0.0), std::logic_error);
  agent.finish_replay();
  EXPECT_NO_THROW(agent.start_replay(recorded, weights, 0.0));
}

TEST(AgentReplay, StartReplayThrowsOnWeightCountMismatch) {
  const auto recorded = record_episode(agent_config(), config(4));
  DecimaAgent agent(agent_config());
  EXPECT_THROW(agent.start_replay(recorded,
                                  std::vector<double>(recorded.size() - 1, 1.0),
                                  0.0),
               std::logic_error);
}

// Corrupts one recorded choice and expects both replay paths to reject it
// with std::out_of_range, leaving nothing pending behind.
void expect_out_of_range_replay(AgentConfig cfg, const sim::EnvConfig& env_cfg,
                                int RecordedAction::*choice) {
  auto recorded = record_episode(cfg, env_cfg);
  ASSERT_GE(recorded.front().*choice, 0);
  recorded.front().*choice = 1000;
  const std::vector<double> weights(recorded.size(), 1.0);
  for (bool batched : {true, false}) {
    cfg.batched_replay = batched;
    DecimaAgent agent(cfg);
    agent.start_replay(recorded, weights, 0.0);
    EXPECT_THROW(replay_episode(agent, env_cfg), std::out_of_range)
        << "batched_replay=" << batched;
    EXPECT_NO_THROW(agent.start_replay(recorded, weights, 0.0));
  }
}

TEST(AgentReplay, OutOfRangeNodeChoiceThrows) {
  expect_out_of_range_replay(agent_config(), config(4),
                             &RecordedAction::node_choice);
}

TEST(AgentReplay, OutOfRangeLimitChoiceThrows) {
  expect_out_of_range_replay(agent_config(), config(4),
                             &RecordedAction::limit_choice);
}

TEST(AgentReplay, OutOfRangeClassChoiceThrows) {
  AgentConfig cfg = agent_config();
  cfg.multi_resource = true;
  sim::EnvConfig env_cfg = config(4);
  env_cfg.classes = {sim::ExecutorClass{0.5, "s"},
                     sim::ExecutorClass{1.0, "l"}};
  expect_out_of_range_replay(cfg, env_cfg, &RecordedAction::class_choice);
}

TEST(Agent, CloneSharesValuesNotState) {
  DecimaAgent agent(agent_config());
  auto copy = agent.clone();
  const auto& pa = agent.params().params();
  const auto& pb = copy->params().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.raw(), pb[i]->value.raw());
    EXPECT_NE(pa[i], pb[i]);  // distinct storage
  }
}

TEST(Agent, NoParallelismControlAlwaysMaxLimit) {
  AgentConfig cfg = agent_config();
  cfg.parallelism_control = false;
  DecimaAgent agent(cfg);
  agent.set_mode(Mode::kSample);
  agent.set_sample_seed(1);
  agent.start_recording();
  sim::ClusterEnv env(config(6));
  env.add_job(job("a", 10, 1.0), 0.0);
  env.run(agent);
  for (const auto& r : agent.take_recorded()) {
    EXPECT_EQ(r.action.limit, 6);
    EXPECT_EQ(r.limit_choice, -1);
  }
}

TEST(Agent, NoGnnStillSchedules) {
  AgentConfig cfg = agent_config();
  cfg.use_gnn = false;
  DecimaAgent agent(cfg);
  agent.set_mode(Mode::kGreedy);
  sim::ClusterEnv env(config(4));
  env.add_job(job("a", 6, 1.0), 0.0);
  env.run(agent);
  EXPECT_TRUE(env.all_done());
}

TEST(Agent, LimitEncodingVariantsSchedule) {
  for (LimitEncoding enc :
       {LimitEncoding::kScalarInput, LimitEncoding::kSeparateOutputs,
        LimitEncoding::kStageLevel}) {
    AgentConfig cfg = agent_config();
    cfg.limit_encoding = enc;
    DecimaAgent agent(cfg);
    agent.set_mode(Mode::kSample);
    agent.set_sample_seed(4);
    sim::ClusterEnv env(config(5));
    env.add_job(job("a", 8, 1.0), 0.0);
    env.run(agent);
    EXPECT_TRUE(env.all_done());
  }
}

TEST(Agent, SeparateOutputsHasMoreParameters) {
  AgentConfig scalar = agent_config();
  AgentConfig sep = agent_config();
  sep.limit_encoding = LimitEncoding::kSeparateOutputs;
  EXPECT_GT(DecimaAgent(sep).num_parameters(),
            DecimaAgent(scalar).num_parameters());
}

TEST(Agent, ParameterCountMatchesPaperOrder) {
  // The paper's model: 12,736 parameters. Ours is the same order of
  // magnitude (exact count differs with embedding sizes).
  DecimaAgent agent(agent_config());
  EXPECT_GT(agent.num_parameters(), 3000u);
  EXPECT_LT(agent.num_parameters(), 40000u);
}

}  // namespace
}  // namespace decima::core
