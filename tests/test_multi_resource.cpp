#include <gtest/gtest.h>

#include "core/agent.h"
#include "sched/heuristics.h"
#include "sim/validate.h"
#include "workload/tpch.h"

namespace decima {
namespace {

sim::EnvConfig multi_config(int execs = 8) {
  sim::EnvConfig c;
  c.num_executors = execs;
  c.classes = {{0.25, "s"}, {0.5, "m"}, {0.75, "l"}, {1.0, "xl"}};
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  return c;
}

TEST(MultiResource, ClassesSplitEvenly) {
  sim::ClusterEnv env(multi_config(8));
  for (int cls = 0; cls < 4; ++cls) {
    EXPECT_EQ(env.free_executor_count_of_class(cls), 2);
  }
}

TEST(MultiResource, TaskOnlyRunsOnFittingClass) {
  sim::ClusterEnv env(multi_config(8));
  sim::JobBuilder b("hungry");
  b.stage(4, 1.0, {}, 0.8);  // only the 1.0-mem class fits
  env.add_job(b.build(), 0.0);
  sched::TetrisScheduler tetris;
  env.run(tetris);
  EXPECT_TRUE(env.all_done());
  for (const auto& t : env.trace()) {
    const int cls = env.executors()[static_cast<std::size_t>(t.executor)].cls;
    EXPECT_GE(env.executor_classes()[static_cast<std::size_t>(cls)].mem, 0.8);
  }
}

TEST(MultiResource, UnsatisfiableStageStallsOnlyThatJob) {
  // mem_req 1.0 jobs can still run; a 0.9-req stage cannot use small classes.
  sim::ClusterEnv env(multi_config(4));  // classes .25/.5/.75/1.0, one each
  sim::JobBuilder b1("big");
  b1.stage(2, 1.0, {}, 0.9);
  sim::JobBuilder b2("small");
  b2.stage(2, 1.0, {}, 0.1);
  env.add_job(b1.build(), 0.0);
  env.add_job(b2.build(), 0.0);
  sched::TetrisScheduler tetris;
  env.run(tetris);
  EXPECT_TRUE(env.all_done());
  std::string err;
  EXPECT_TRUE(sim::validate_trace(env, &err)) << err;
}

TEST(MultiResource, ExplicitClassRequestHonored) {
  struct PickLargest : sim::Scheduler {
    sim::Action schedule(const sim::ClusterEnv& env) override {
      const auto nodes = env.runnable_nodes();
      if (nodes.empty()) return sim::Action::none();
      if (env.free_executor_count_of_class(3) == 0) return sim::Action::none();
      sim::Action a;
      a.node = nodes[0];
      a.limit = env.total_executors();
      a.exec_class = 3;  // xl only
      return a;
    }
    std::string name() const override { return "xl-only"; }
  } sched;
  sim::ClusterEnv env(multi_config(8));
  sim::JobBuilder b("j");
  b.stage(2, 1.0, {}, 0.1);
  env.add_job(b.build(), 0.0);
  env.run(sched);
  EXPECT_TRUE(env.all_done());
  for (const auto& t : env.trace()) {
    EXPECT_EQ(env.executors()[static_cast<std::size_t>(t.executor)].cls, 3);
  }
}

TEST(MultiResource, DecimaAgentSchedulesWithClassHead) {
  core::AgentConfig ac;
  ac.multi_resource = true;
  ac.seed = 11;
  core::DecimaAgent agent(ac);
  agent.set_mode(core::Mode::kSample);
  agent.set_sample_seed(3);

  sim::ClusterEnv env(multi_config(8));
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    auto j = workload::sample_tpch_job(rng);
    workload::assign_memory_requests(j, rng);
    env.add_job(std::move(j), static_cast<double>(i));
  }
  env.run(agent);
  EXPECT_TRUE(env.all_done());
  std::string err;
  EXPECT_TRUE(sim::validate_trace(env, &err)) << err;
}

TEST(MultiResource, AgentReplayIsExactWithClasses) {
  core::AgentConfig ac;
  ac.multi_resource = true;
  ac.seed = 13;
  core::DecimaAgent agent(ac);
  agent.set_mode(core::Mode::kSample);
  agent.set_sample_seed(17);
  agent.start_recording();

  auto build_env = [] {
    sim::ClusterEnv env(multi_config(8));
    Rng rng(8);
    for (int i = 0; i < 3; ++i) {
      auto j = workload::sample_tpch_job(rng);
      workload::assign_memory_requests(j, rng);
      env.add_job(std::move(j), 0.0);
    }
    return env;
  };
  auto env1 = build_env();
  env1.run(agent);
  const auto recorded = agent.take_recorded();
  ASSERT_FALSE(recorded.empty());

  auto clone = agent.clone();
  clone->params().zero_grads();
  clone->start_replay(recorded, std::vector<double>(recorded.size(), 1.0), 0.0);
  auto env2 = build_env();
  env2.run(*clone);
  clone->finish_replay();
  EXPECT_DOUBLE_EQ(env1.avg_jct(), env2.avg_jct());
  EXPECT_EQ(clone->replay_cursor(), recorded.size());
  // The batched replay scored the episode (class head included).
  double gnorm = 0.0;
  for (const auto* p : clone->params().params()) {
    gnorm += p->grad.squared_norm();
  }
  EXPECT_GT(gnorm, 0.0);
}

TEST(MultiResource, GrapheneAndTetrisComplete) {
  Rng rng(21);
  for (sim::Scheduler* s :
       std::initializer_list<sim::Scheduler*>{nullptr}) {
    (void)s;
  }
  sched::TetrisScheduler tetris;
  sched::GrapheneScheduler graphene;
  for (sim::Scheduler* s :
       std::vector<sim::Scheduler*>{&tetris, &graphene}) {
    sim::ClusterEnv env(multi_config(12));
    Rng wl(3);
    for (int i = 0; i < 5; ++i) {
      auto j = workload::sample_tpch_job(wl);
      workload::assign_memory_requests(j, wl);
      env.add_job(std::move(j), 0.0);
    }
    env.run(*s);
    EXPECT_TRUE(env.all_done()) << s->name();
    std::string err;
    EXPECT_TRUE(sim::validate_trace(env, &err)) << s->name() << ": " << err;
  }
}

// A stage needing a hair more memory than the small class holds (a valid
// spec) fits only the large class. Every scheduler must ask for a class the
// simulator will place it on: one that asked for the small class would see
// dispatch assign nothing and the job never start.
TEST(MultiResource, StageJustAboveClassMemoryRunsOnLargerClass) {
  sim::EnvConfig config = multi_config(2);
  config.classes = {{0.5, "m"}, {1.0, "xl"}};
  const double mem_req = 0.5 + 5e-13;
  ASSERT_FALSE(config.classes[0].fits(mem_req));
  ASSERT_TRUE(config.classes[1].fits(mem_req));

  core::AgentConfig ac;
  ac.multi_resource = true;
  ac.seed = 19;
  core::DecimaAgent decima(ac);
  sched::SjfCpScheduler sjf_cp;
  sched::FifoScheduler fifo;
  sched::WeightedFairScheduler fair(/*alpha=*/0.0);  // simple fair
  sched::TetrisScheduler tetris;
  sched::GrapheneScheduler graphene;
  for (sim::Scheduler* s : std::vector<sim::Scheduler*>{
           &sjf_cp, &fifo, &fair, &tetris, &graphene, &decima}) {
    sim::ClusterEnv env(config);
    sim::JobBuilder b("edge");
    b.stage(3, 1.0, {}, mem_req);
    env.add_job(b.build(), 0.0);
    env.run(*s);
    EXPECT_TRUE(env.all_done()) << s->name();
    EXPECT_EQ(env.trace().size(), 3u) << s->name();
    for (const auto& t : env.trace()) {
      EXPECT_EQ(env.executors()[static_cast<std::size_t>(t.executor)].cls, 1)
          << s->name();
    }
    std::string err;
    EXPECT_TRUE(sim::validate_trace(env, &err)) << s->name() << ": " << err;
  }
}

}  // namespace
}  // namespace decima
