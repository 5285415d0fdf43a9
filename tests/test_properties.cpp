// Property-based sweeps: for random workloads and every scheduler (all seven
// heuristics plus an untrained Decima agent), the produced schedule must
// satisfy the global invariants checked by validate_trace(), and basic
// performance bounds must hold (JCT at least the critical-path lower bound).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "core/agent.h"
#include "sched/heuristics.h"
#include "sim/validate.h"
#include "workload/tpch.h"
#include "workload/trace.h"

namespace decima {
namespace {

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& kind) {
  using namespace sched;
  if (kind == "fifo") return std::make_unique<FifoScheduler>();
  if (kind == "sjf") return std::make_unique<SjfCpScheduler>();
  if (kind == "fair") return std::make_unique<WeightedFairScheduler>(0.0);
  if (kind == "naive") return std::make_unique<WeightedFairScheduler>(1.0);
  if (kind == "tuned") return std::make_unique<WeightedFairScheduler>(-1.0);
  if (kind == "tetris") return std::make_unique<TetrisScheduler>();
  if (kind == "graphene") return std::make_unique<GrapheneScheduler>();
  core::AgentConfig ac;
  ac.seed = 31;
  auto agent = std::make_unique<core::DecimaAgent>(ac);
  agent->set_mode(core::Mode::kSample);
  agent->set_sample_seed(7);
  return agent;
}

struct Case {
  std::string scheduler;
  std::uint64_t seed;
};

// gtest_discover_tests folds the printed parameter into the ctest name of a
// custom-named case. Without a printer gtest dumps Case's raw bytes, which
// hold the string's heap pointer, so the name would change with every build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.scheduler << " seed " << c.seed;
}

class ScheduleInvariants : public ::testing::TestWithParam<Case> {};

TEST_P(ScheduleInvariants, RandomWorkloadValidates) {
  const Case c = GetParam();
  Rng rng(c.seed);

  sim::EnvConfig env_config;
  env_config.num_executors = rng.uniform_int(3, 20);
  env_config.moving_delay = rng.uniform(0.0, 3.0);
  env_config.duration_noise = rng.bernoulli(0.5) ? 0.2 : 0.0;
  env_config.seed = rng.fork();

  sim::ClusterEnv env(env_config);
  const int num_jobs = rng.uniform_int(2, 8);
  std::vector<sim::JobSpec> specs;
  for (int i = 0; i < num_jobs; ++i) {
    auto j = workload::sample_tpch_job(rng);
    specs.push_back(j);
    env.add_job(std::move(j), rng.uniform(0.0, 30.0));
  }

  auto sched = make_scheduler(c.scheduler);
  env.run(*sched);

  EXPECT_TRUE(env.all_done()) << c.scheduler << " seed " << c.seed;
  std::string err;
  EXPECT_TRUE(sim::validate_trace(env, &err))
      << c.scheduler << " seed " << c.seed << ": " << err;

  // Lower bound: no job can beat its critical-path duration (without noise;
  // noisy runs only check positivity).
  for (std::size_t j = 0; j < env.jobs().size(); ++j) {
    const double jct = env.jobs()[j].jct();
    EXPECT_GT(jct, 0.0);
    if (env_config.duration_noise == 0.0) {
      EXPECT_GE(jct + 1e-6, specs[j].critical_path_duration())
          << c.scheduler << " job " << j;
    }
  }
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const std::string s : {"fifo", "sjf", "fair", "naive", "tuned",
                              "tetris", "graphene", "decima"}) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      cases.push_back({s, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleInvariants, ::testing::ValuesIn(make_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.scheduler + "_" + std::to_string(info.param.seed);
    });

// Work conservation: with a single job and no overheads, FIFO achieves the
// wave-optimal runtime for a single stage.
class WaveOptimal : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WaveOptimal, SingleStageRuntimeIsCeilWaves) {
  const int tasks = std::get<0>(GetParam());
  const int execs = std::get<1>(GetParam());
  sim::EnvConfig c;
  c.num_executors = execs;
  c.enable_moving_delay = false;
  c.enable_wave_effect = false;
  c.enable_inflation = false;
  sim::ClusterEnv env(c);
  sim::JobBuilder b("w");
  b.stage(tasks, 1.0);
  env.add_job(b.build(), 0.0);
  sched::FifoScheduler fifo;
  env.run(fifo);
  const double waves = std::ceil(static_cast<double>(tasks) / execs);
  EXPECT_DOUBLE_EQ(env.jobs()[0].finish, waves);
}

INSTANTIATE_TEST_SUITE_P(TasksByExecs, WaveOptimal,
                         ::testing::Combine(::testing::Values(1, 3, 8, 20),
                                            ::testing::Values(1, 2, 5)));

// Trace-synthesizer property: every generated job schedules cleanly.
class TraceJobs : public ::testing::TestWithParam<int> {};

TEST_P(TraceJobs, EveryTraceJobRunsAlone) {
  workload::TraceConfig cfg;
  cfg.num_jobs = 30;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  const auto trace = workload::synthesize_trace(cfg);
  sim::EnvConfig c;
  c.num_executors = 10;
  // Multi-resource classes so memory requests are exercised.
  c.classes = {{0.25, "s"}, {0.5, "m"}, {0.75, "l"}, {1.0, "xl"}};
  for (const auto& arriving : trace) {
    sim::ClusterEnv env(c);
    env.add_job(arriving.spec, 0.0);
    sched::TetrisScheduler tetris;
    env.run(tetris);
    ASSERT_TRUE(env.all_done()) << arriving.spec.name;
    std::string err;
    ASSERT_TRUE(sim::validate_trace(env, &err)) << err;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceJobs, ::testing::Values(1, 2));

}  // namespace
}  // namespace decima
