#include <gtest/gtest.h>

#include "gnn/features.h"
#include "sched/heuristics.h"

namespace decima::gnn {
namespace {

sim::EnvConfig config(int execs) {
  sim::EnvConfig c;
  c.num_executors = execs;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  return c;
}

TEST(Features, DimsMatchConfig) {
  FeatureConfig f;
  EXPECT_EQ(f.dim(), 5);
  f.iat_hint = true;
  EXPECT_EQ(f.dim(), 6);
}

TEST(Features, ExtractsOnlyActiveJobs) {
  sim::ClusterEnv env(config(2));
  sim::JobBuilder b("a");
  b.stage(2, 1.0);
  env.add_job(b.build(), 0.0);
  sim::JobBuilder b2("later");
  b2.stage(2, 1.0);
  env.add_job(b2.build(), 100.0);

  // Run until the first job is done but the second has not arrived.
  sched::FifoScheduler fifo;
  env.run(fifo, 50.0);
  const auto graphs = extract_graphs(env, FeatureConfig{});
  EXPECT_TRUE(graphs.empty());  // job 0 done, job 1 not arrived
}

TEST(Features, ValuesMatchState) {
  sim::ClusterEnv env(config(4));
  sim::JobBuilder b("j");
  const int s0 = b.stage(8, 2.0);
  b.stage(3, 1.0, {s0});
  env.add_job(b.build(), 0.0);

  // Limit the job to 2 executors, then inspect mid-flight state.
  struct LimitTwo : sim::Scheduler {
    sim::Action schedule(const sim::ClusterEnv& e) override {
      const auto nodes = e.runnable_nodes();
      if (nodes.empty() || e.jobs()[0].executors >= 2) {
        return sim::Action::none();
      }
      sim::Action a;
      a.node = nodes[0];
      a.limit = 2;
      return a;
    }
    std::string name() const override { return "l2"; }
  } sched;
  env.run(sched, 1.0);  // two tasks dispatched, none finished

  FeatureConfig fc;
  const auto graphs = extract_graphs(env, fc);
  ASSERT_EQ(graphs.size(), 1u);
  const auto& g = graphs[0];
  ASSERT_EQ(g.features.rows(), 2u);
  ASSERT_EQ(g.features.cols(), 5u);
  // Stage 0: 8 tasks remaining (none finished), duration 2.
  EXPECT_NEAR(g.features(0, 0), 8.0 / fc.task_scale, 1e-12);
  EXPECT_NEAR(g.features(0, 1), 2.0 / fc.duration_scale, 1e-12);
  // 2 executors on the job out of 4.
  EXPECT_NEAR(g.features(0, 2), 0.5, 1e-12);
  // 2 free of 4.
  EXPECT_NEAR(g.features(0, 3), 0.5, 1e-12);
  // Stage 0 runnable (has waiting tasks), stage 1 blocked by parent.
  EXPECT_TRUE(g.runnable[0]);
  EXPECT_FALSE(g.runnable[1]);
}

TEST(Features, TaskDurationMaskedWhenDisabled) {
  sim::ClusterEnv env(config(2));
  sim::JobBuilder b("j");
  b.stage(2, 5.0);
  env.add_job(b.build(), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo, 0.5);
  FeatureConfig fc;
  fc.use_task_duration = false;
  const auto graphs = extract_graphs(env, fc);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_DOUBLE_EQ(graphs[0].features(0, 1), 0.0);
}

TEST(Features, IatHintFeeds6thColumn) {
  sim::ClusterEnv env(config(2));
  sim::JobBuilder b("j");
  b.stage(2, 1.0);
  env.add_job(b.build(), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo, 0.5);
  FeatureConfig fc;
  fc.iat_hint = true;
  const auto graphs = extract_graphs(env, fc, /*observed_iat=*/45.0);
  ASSERT_EQ(graphs.size(), 1u);
  ASSERT_EQ(graphs[0].features.cols(), 6u);
  EXPECT_NEAR(graphs[0].features(0, 5), 45.0 / fc.iat_scale, 1e-12);
}

TEST(Features, GraphStructureMirrorsSpec) {
  sim::ClusterEnv env(config(2));
  sim::JobBuilder b("d");
  const int s0 = b.stage(1, 1.0);
  const int s1 = b.stage(1, 1.0, {s0});
  b.stage(1, 1.0, {s0, s1});
  env.add_job(b.build(), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo, 0.1);
  const auto graphs = extract_graphs(env, FeatureConfig{});
  ASSERT_EQ(graphs.size(), 1u);
  const sim::JobShape& shape = *graphs[0].shape;
  EXPECT_EQ(shape.children[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(shape.children[1], (std::vector<int>{2}));
  EXPECT_EQ(shape.topo.size(), 3u);
}

}  // namespace
}  // namespace decima::gnn
