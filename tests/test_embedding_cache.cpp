// The incremental embedding cache (src/gnn/embedding_cache.h) must be a pure
// performance change: cached inference has to match the full batched
// recompute to floating-point noise across every ablation, and every
// invalidation edge (job arrival, job completion, executor churn,
// multi-resource columns, parameter changes, mid-run enable/disable) must
// leave decisions identical to an uncached agent.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>

#include "gnn/embedding_cache.h"
#include "gnn/graph_embedding.h"
#include "nn/adam.h"
#include "rl/reinforce.h"
#include "sim/faults.h"
#include "workload/tpch.h"

namespace decima {
namespace {

constexpr double kTol = 1e-10;

void expect_matrix_near(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.raw().size(); ++i) {
    EXPECT_NEAR(a.raw()[i], b.raw()[i], kTol);
  }
}

std::vector<gnn::JobGraph> synthetic_graphs(std::uint64_t seed, int count,
                                            int nodes) {
  std::vector<gnn::JobGraph> graphs;
  for (int i = 0; i < count; ++i) {
    gnn::JobGraph g =
        gnn::random_job_graph(seed + static_cast<std::uint64_t>(i), nodes);
    g.env_job = i;  // distinct cache keys (env_uid stays -1)
    graphs.push_back(std::move(g));
  }
  return graphs;
}

// Compares embed_cached's stacked rows against a fresh full embed() of the
// same graphs, which returns the same layout.
void expect_cached_matches_full(const gnn::GraphEmbedding& gnn,
                                const std::vector<gnn::JobGraph>& graphs,
                                gnn::EmbeddingCache& cache) {
  nn::Tape tc(false), tf(false);
  const gnn::EpisodeEmbeddings ec = gnn.embed_cached(tc, graphs, cache);
  const gnn::EpisodeEmbeddings ef = gnn.embed(tf, graphs);
  ASSERT_EQ(ec.node_offset, ef.node_offset);
  expect_matrix_near(tc.value(ec.node_all), tf.value(ef.node_all));
  expect_matrix_near(tc.value(ec.job_mat), tf.value(ef.job_mat));
  expect_matrix_near(tc.value(ec.global_mat), tf.value(ef.global_mat));
}

TEST(EmbeddingCache, CachedEmbeddingMatchesFullAcrossDirtyFractions) {
  for (bool two_level : {true, false}) {
    Rng rng(11);
    gnn::GnnConfig config;
    config.two_level_aggregation = two_level;
    gnn::GraphEmbedding gnn(config, rng);
    auto graphs = synthetic_graphs(100, 3, 40);
    gnn::EmbeddingCache cache;

    // Cold: everything rebuilt.
    expect_cached_matches_full(gnn, graphs, cache);
    EXPECT_EQ(cache.stats().graphs_rebuilt, graphs.size());

    // Warm, untouched: the diff finds no changed row, nothing recomputed.
    const std::uint64_t before = cache.stats().nodes_recomputed;
    expect_cached_matches_full(gnn, graphs, cache);
    EXPECT_EQ(cache.stats().nodes_recomputed, before);
    EXPECT_EQ(cache.stats().graphs_reused, graphs.size());

    // Dirty a single feature row per event, sweeping every node of graph 0.
    for (std::size_t v = 0; v < graphs[0].features.rows(); ++v) {
      graphs[0].features(v, 0) += 0.25;
      expect_cached_matches_full(gnn, graphs, cache);
    }
    // Dirty several rows at once across graphs.
    Rng mut(77);
    for (int round = 0; round < 5; ++round) {
      for (auto& g : graphs) {
        for (int k = 0; k < 6; ++k) {
          const std::size_t v = static_cast<std::size_t>(mut.uniform_int(
              0, static_cast<int>(g.features.rows()) - 1));
          const std::size_t c = static_cast<std::size_t>(mut.uniform_int(
              0, static_cast<int>(g.features.cols()) - 1));
          g.features(v, c) = mut.uniform(-1, 1);
        }
      }
      expect_cached_matches_full(gnn, graphs, cache);
    }
    // Partial recompute actually happened (not silent full rebuilds).
    EXPECT_LT(cache.stats().nodes_recomputed, cache.stats().nodes_total);
    // Only the cold pass rebuilt.
    EXPECT_EQ(cache.stats().graphs_rebuilt, graphs.size());
  }
}

TEST(EmbeddingCache, EmbedCachedOnEmptyListReturnsEmpty) {
  // A state with no active job has no graphs (a client may still ask).
  Rng rng(3);
  gnn::GraphEmbedding gnn(gnn::GnnConfig{}, rng);
  gnn::EmbeddingCache cache;
  nn::Tape tape(false);
  const gnn::EpisodeEmbeddings out = gnn.embed_cached(tape, {}, cache);
  EXPECT_TRUE(out.node_offset.empty());
  EXPECT_EQ(tape.num_nodes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().events, 0u);
  EXPECT_EQ(cache.stats().graphs_seen, 0u);
}

// Synthetic graphs all carry env_uid -1, so two graphs with shapes of their
// own can meet under one key. Equal children through a distinct shape object
// keep the entry; a different structure with the same node count rebuilds.
TEST(EmbeddingCache, StructureCheckIsExactAcrossShapeObjects) {
  Rng rng(5);
  gnn::GraphEmbedding gnn(gnn::GnnConfig{}, rng);
  gnn::EmbeddingCache cache;
  const gnn::JobGraph first = gnn::random_job_graph(300, 20);
  expect_cached_matches_full(gnn, {first}, cache);
  EXPECT_EQ(cache.stats().graphs_rebuilt, 1u);

  const gnn::JobGraph twin = gnn::random_job_graph(300, 20);
  ASSERT_NE(twin.shape, first.shape);
  expect_cached_matches_full(gnn, {twin}, cache);
  EXPECT_EQ(cache.stats().graphs_rebuilt, 1u);
  EXPECT_EQ(cache.stats().graphs_reused, 1u);

  gnn::JobGraph other = gnn::random_job_graph(301, 20);
  other.features = twin.features;  // only the structure differs
  ASSERT_NE(other.shape->children, twin.shape->children);
  expect_cached_matches_full(gnn, {other}, cache);
  EXPECT_EQ(cache.stats().graphs_rebuilt, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EmbeddingCache, EpisodeCachedMatchesEmbedEpisodePerSession) {
  Rng rng(5);
  gnn::GraphEmbedding gnn(gnn::GnnConfig{}, rng);
  auto s0 = synthetic_graphs(1, 2, 30);
  auto s1 = synthetic_graphs(50, 3, 12);
  gnn::EmbeddingCache c0, c1;

  for (int round = 0; round < 3; ++round) {
    std::vector<const gnn::JobGraph*> graphs;
    std::vector<std::size_t> event_of_graph;
    for (const auto& g : s0) {
      graphs.push_back(&g);
      event_of_graph.push_back(0);
    }
    for (const auto& g : s1) {
      graphs.push_back(&g);
      event_of_graph.push_back(1);
    }

    nn::Tape tc(false), tf(false);
    const auto ec = gnn.embed_episode_cached(tc, graphs, event_of_graph, 2,
                                             {&c0, &c1});
    const auto ef = gnn.embed_episode(tf, graphs, event_of_graph, 2);
    expect_matrix_near(tc.value(ec.node_all), tf.value(ef.node_all));
    expect_matrix_near(tc.value(ec.feat_all), tf.value(ef.feat_all));
    expect_matrix_near(tc.value(ec.job_mat), tf.value(ef.job_mat));
    expect_matrix_near(tc.value(ec.global_mat), tf.value(ef.global_mat));
    EXPECT_EQ(ec.node_offset, ef.node_offset);

    s0[0].features(3, 2) += 0.5;   // session 0 gets a dirty node
    s1[1].features(0, 0) -= 0.25;  // so does session 1
  }
  EXPECT_LT(c0.stats().nodes_recomputed, c0.stats().nodes_total);
}

TEST(EmbeddingCache, ParamVersionChangeInvalidates) {
  Rng rng(9);
  gnn::GraphEmbedding gnn(gnn::GnnConfig{}, rng);
  auto graphs = synthetic_graphs(200, 2, 20);
  gnn::EmbeddingCache cache;
  nn::ParamSet params = gnn.param_set();

  cache.ensure_param_version(params.version());
  expect_cached_matches_full(gnn, graphs, cache);

  // Mutate the weights through a value-mutating entry point (an Adam step
  // with nonzero grads) — the version bump must force a full rebuild, and
  // the cached result must match the new weights, not the old ones.
  for (nn::Param* p : params.params()) p->grad.fill(0.5);
  nn::Adam adam(&params);
  adam.step();
  cache.ensure_param_version(params.version());
  EXPECT_EQ(cache.size(), 0u);  // cleared
  expect_cached_matches_full(gnn, graphs, cache);
}

// --- Agent-level equivalence over real simulated episodes -------------------

sim::EnvConfig small_env(int executors = 20) {
  sim::EnvConfig env;
  env.num_executors = executors;
  return env;
}

std::vector<workload::ArrivingJob> staggered_jobs(std::uint64_t seed,
                                                  int count) {
  // Staggered arrivals: jobs appear (and complete) mid-episode, exercising
  // cache entry creation and garbage collection during one session.
  Rng rng(seed);
  const auto specs = workload::sample_tpch_batch(rng, count);
  std::vector<workload::ArrivingJob> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back({specs[static_cast<std::size_t>(i)], 40.0 * i});
  }
  return jobs;
}

// Runs one episode in the agent's mode and returns the (job, stage, limit,
// class) trace.
std::vector<std::array<int, 4>> run_trace(
    core::DecimaAgent& agent, const sim::EnvConfig& env_config,
    const std::vector<workload::ArrivingJob>& jobs) {
  sim::ClusterEnv env(env_config);
  workload::load(env, jobs);
  struct Recorder : sim::Scheduler {
    core::DecimaAgent* inner = nullptr;
    std::vector<std::array<int, 4>>* out = nullptr;
    sim::Action schedule(const sim::ClusterEnv& e) override {
      const sim::Action a = inner->schedule(e);
      if (a.valid()) {
        out->push_back({a.node.job, a.node.stage, a.limit, a.exec_class});
      }
      return a;
    }
    std::string name() const override { return "rec"; }
  } rec;
  std::vector<std::array<int, 4>> trace;
  rec.inner = &agent;
  rec.out = &trace;
  env.run(rec);
  EXPECT_TRUE(env.all_done());
  return trace;
}

// Cached, uncached and per-action reference agents (batched_inference off:
// inline heads over the per-node GNN sweep) must produce the same greedy
// trace, and the same sampled trace from a shared sample seed.
void expect_same_trace(const core::AgentConfig& config,
                       const sim::EnvConfig& env_config,
                       const std::vector<workload::ArrivingJob>& jobs) {
  core::AgentConfig on = config, off = config, ref = config;
  on.embed_cache = true;
  off.embed_cache = false;
  ref.batched_inference = false;
  core::DecimaAgent agent_on(on), agent_off(off), agent_ref(ref);
  for (core::Mode mode : {core::Mode::kGreedy, core::Mode::kSample}) {
    std::vector<std::vector<std::array<int, 4>>> traces;
    for (core::DecimaAgent* agent : {&agent_on, &agent_off, &agent_ref}) {
      agent->set_mode(mode);
      agent->set_sample_seed(17);
      traces.push_back(run_trace(*agent, env_config, jobs));
    }
    for (std::size_t a = 1; a < traces.size(); ++a) {
      ASSERT_EQ(traces[0].size(), traces[a].size()) << "agent " << a;
      for (std::size_t i = 0; i < traces[0].size(); ++i) {
        EXPECT_EQ(traces[0][i], traces[a][i])
            << "agent " << a << " action " << i;
      }
    }
  }
  // The episodes had real reuse to validate, not wall-to-wall rebuilds: some
  // node embeddings were served from cache rather than recomputed.
  const auto& stats = agent_on.embed_cache_stats();
  EXPECT_LT(stats.nodes_recomputed, stats.nodes_total);
}

TEST(EmbeddingCacheAgent, GreedyTraceMatchesUncachedOnArrivalsAndCompletions) {
  core::AgentConfig config;
  config.seed = 3;
  expect_same_trace(config, small_env(), staggered_jobs(21, 6));
}

TEST(EmbeddingCacheAgent, TraceMatchesAcrossAblations) {
  const auto jobs = staggered_jobs(22, 4);
  for (core::LimitEncoding enc :
       {core::LimitEncoding::kScalarInput,
        core::LimitEncoding::kSeparateOutputs,
        core::LimitEncoding::kStageLevel}) {
    core::AgentConfig config;
    config.seed = 4;
    config.limit_encoding = enc;
    expect_same_trace(config, small_env(), jobs);
  }
  {
    core::AgentConfig config;
    config.seed = 5;
    config.two_level_aggregation = false;
    expect_same_trace(config, small_env(), jobs);
  }
  {
    core::AgentConfig config;
    config.seed = 6;
    config.parallelism_control = false;
    expect_same_trace(config, small_env(), jobs);
  }
  {
    core::AgentConfig config;
    config.seed = 7;
    config.features.iat_hint = true;
    expect_same_trace(config, small_env(), jobs);
  }
}

TEST(EmbeddingCacheAgent, TraceMatchesMultiResource) {
  core::AgentConfig config;
  config.seed = 8;
  config.multi_resource = true;
  sim::EnvConfig env = small_env(24);
  env.classes = {sim::ExecutorClass{0.25, "s"}, sim::ExecutorClass{0.5, "m"},
                 sim::ExecutorClass{0.75, "l"}, sim::ExecutorClass{1.0, "xl"}};
  expect_same_trace(config, env, staggered_jobs(23, 5));
}

TEST(EmbeddingCacheAgent, TraceMatchesUncachedUnderExecutorFaults) {
  // Executor failures kill running tasks mid-episode (waiting counts jump,
  // allocations shrink, the free-executor pool moves); recoveries bring
  // capacity back. Every one of those transitions changes feature rows, and
  // the cache's row diff must see each of them so the rows are re-embedded
  // — a stale row would silently skew decisions. Hand-written outages
  // first, then a randomized sweep with stragglers and heterogeneous speeds
  // layered on.
  {
    core::AgentConfig config;
    config.seed = 11;
    sim::EnvConfig env = small_env();
    env.faults.failures = {
        {/*executor=*/2, /*fail_at=*/30.0, /*recover_at=*/90.0},
        {/*executor=*/5, /*fail_at=*/50.0}};
    expect_same_trace(config, env, staggered_jobs(26, 5));
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    core::AgentConfig config;
    config.seed = 12;
    sim::EnvConfig env = small_env();
    Rng frng(seed);
    env.faults.failures = sim::random_failures(
        frng, env.num_executors, 4, 150.0, /*mean_downtime=*/60.0);
    env.faults.stragglers = {/*prob=*/0.15, /*factor=*/3.0};
    env.faults.executor_speeds =
        sim::heterogeneous_speeds(frng, env.num_executors, 0.25, 2.0);
    env.faults.seed = 40 + seed;
    expect_same_trace(config, env, staggered_jobs(30 + seed, 4));
  }
}

TEST(EmbeddingCacheAgent, DecideWithSessionCacheMatchesSchedule) {
  // decide(env, &cache) across a session's consecutive events must keep
  // matching the mutable schedule() path (which runs its own cache).
  core::AgentConfig config;
  config.seed = 10;
  core::DecimaAgent agent(config);
  const auto served = agent.clone();
  gnn::EmbeddingCache session_cache;

  sim::ClusterEnv env(small_env());
  workload::load(env, staggered_jobs(25, 4));
  struct Check : sim::Scheduler {
    core::DecimaAgent* mutable_agent = nullptr;
    const core::DecimaAgent* snapshot = nullptr;
    gnn::EmbeddingCache* cache = nullptr;
    int checked = 0;
    sim::Action schedule(const sim::ClusterEnv& e) override {
      const sim::Action a = mutable_agent->schedule(e);
      const sim::Action b = snapshot->decide(e, cache);
      EXPECT_EQ(a.node.job, b.node.job);
      EXPECT_EQ(a.node.stage, b.node.stage);
      EXPECT_EQ(a.limit, b.limit);
      EXPECT_EQ(a.exec_class, b.exec_class);
      ++checked;
      return a;
    }
    std::string name() const override { return "check"; }
  } check;
  check.mutable_agent = &agent;
  check.snapshot = served.get();
  check.cache = &session_cache;
  env.run(check);
  EXPECT_TRUE(env.all_done());
  EXPECT_GT(check.checked, 20);
  EXPECT_GT(session_cache.stats().graphs_reused, 0u);
}

TEST(EmbeddingCacheAgent, ObservedIatChangeRefreshesCachedRows) {
  // set_observed_iat rewrites the IAT-hint column of every row without
  // touching the env; the row diff must catch it, or a warm cache would
  // keep answering from the old hint.
  core::AgentConfig config;
  config.seed = 13;
  config.features.iat_hint = true;
  core::DecimaAgent agent(config);
  sim::ClusterEnv env(small_env());
  Rng rng(31);
  workload::load(env, workload::batched(workload::sample_tpch_batch(rng, 3)));
  struct Idle : sim::Scheduler {
    sim::Action schedule(const sim::ClusterEnv&) override {
      return sim::Action::none();
    }
    std::string name() const override { return "idle"; }
  } idle;
  env.run(idle, /*until=*/0.0);  // the jobs arrive; every executor is free
  ASSERT_GT(env.free_executor_count(), 0);
  ASSERT_FALSE(env.runnable_nodes().empty());

  // Each decision refreshes one graph per job: a cold build first, then a
  // diff refresh of every graph whenever the hint moved, and a reuse of
  // every graph when it did not.
  constexpr std::uint64_t kJobs = 3;
  gnn::EmbeddingCache cache;
  double previous = -1.0;
  std::set<std::array<int, 3>> answers;
  for (double iat : {0.0, 5.0, 5.0, 80.0, 2000.0}) {
    agent.set_observed_iat(iat);
    const gnn::EmbeddingCacheStats before = cache.stats();
    const sim::Action cached = agent.decide(env, &cache);
    const sim::Action full = agent.decide(env);
    EXPECT_EQ(cached.node.job, full.node.job) << "iat " << iat;
    EXPECT_EQ(cached.node.stage, full.node.stage) << "iat " << iat;
    EXPECT_EQ(cached.limit, full.limit) << "iat " << iat;
    answers.insert({full.node.job, full.node.stage, full.limit});
    const gnn::EmbeddingCacheStats& after = cache.stats();
    if (previous < 0.0) {
      EXPECT_EQ(after.graphs_rebuilt, kJobs);
    } else if (iat == previous) {
      EXPECT_EQ(after.graphs_reused - before.graphs_reused, kJobs);
      EXPECT_EQ(after.diff_refreshes, before.diff_refreshes);
    } else {
      EXPECT_EQ(after.diff_refreshes - before.diff_refreshes, kJobs);
      EXPECT_EQ(after.graphs_reused, before.graphs_reused);
    }
    previous = iat;
  }
  EXPECT_EQ(cache.stats().graphs_rebuilt, kJobs);
  // The hint moves the answer, so a row left stale would show.
  EXPECT_GT(answers.size(), 1u);
}

TEST(EmbeddingCacheAgent, TrainingWithCachedRolloutsIsUnchanged) {
  // Rollout sampling goes through schedule(); with the cache on, the sampled
  // probabilities — and therefore the whole training run — must be
  // identical. Replay itself never uses the cache (gradients need the tape).
  auto train = [](bool cache_on) {
    core::AgentConfig agent_config;
    agent_config.seed = 11;
    agent_config.embed_cache = cache_on;
    core::DecimaAgent agent(agent_config);
    rl::TrainConfig train_config;
    train_config.num_iterations = 2;
    train_config.episodes_per_iter = 2;
    train_config.rollout_threads = 2;
    train_config.env.num_executors = 10;
    train_config.sampler = [](std::uint64_t seed) {
      Rng rng(seed);
      return workload::batched(workload::sample_tpch_batch(rng, 3));
    };
    rl::ReinforceTrainer trainer(agent, train_config);
    trainer.train();
    std::vector<double> values;
    for (const nn::Param* p : agent.params().params()) {
      values.insert(values.end(), p->value.raw().begin(), p->value.raw().end());
    }
    return values;
  };
  const auto with_cache = train(true);
  const auto without = train(false);
  ASSERT_EQ(with_cache.size(), without.size());
  for (std::size_t i = 0; i < with_cache.size(); ++i) {
    EXPECT_NEAR(with_cache[i], without[i], kTol) << "param " << i;
  }
}

}  // namespace
}  // namespace decima
