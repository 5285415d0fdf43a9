// The serving subsystem (src/serve) and the const read-only inference path
// (DecimaAgent::decide / decide_batch). The load-bearing contract: a served
// decision is bit-identical to the decision the greedy agent makes alone, no
// matter how many sessions' events are coalesced into one batch — so served
// sessions are deterministic regardless of thread timing, and cross-session
// batching can only change throughput, never behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "io/checkpoint.h"
#include "sched/heuristics.h"
#include "serve/policy_server.h"

namespace decima {
namespace {

// A small diamond DAG (fan-out + join) whose scheduling order matters.
sim::JobSpec diamond_job(const std::string& name, int tasks, double dur) {
  sim::JobBuilder b(name);
  const int root = b.stage(tasks, dur);
  const int left = b.stage(tasks, dur * 2.0, {root});
  const int right = b.stage(tasks / 2 + 1, dur, {root});
  b.stage(tasks, dur, {left, right});
  return b.build();
}

std::vector<workload::ArrivingJob> session_jobs(std::uint64_t variant) {
  const int tasks = 2 + static_cast<int>(variant % 3);
  return workload::batched({diamond_job("a", tasks, 1.0),
                            diamond_job("b", tasks + 1, 0.5),
                            diamond_job("c", 2, 2.0)});
}

sim::EnvConfig serve_env() {
  sim::EnvConfig c;
  c.num_executors = 4;
  return c;
}

core::AgentConfig agent_config() {
  core::AgentConfig c;
  c.seed = 19;
  return c;
}

// Mid-episode env states to query: each env runs its session's jobs with the
// greedy agent until `until`, leaving realistic in-flight state behind.
std::vector<std::unique_ptr<sim::ClusterEnv>> mid_episode_envs(
    core::DecimaAgent& agent, int count, double until) {
  std::vector<std::unique_ptr<sim::ClusterEnv>> envs;
  agent.set_mode(core::Mode::kGreedy);
  for (int s = 0; s < count; ++s) {
    auto env = std::make_unique<sim::ClusterEnv>(serve_env());
    workload::load(*env, session_jobs(static_cast<std::uint64_t>(s)));
    env->run(agent, until);
    envs.push_back(std::move(env));
  }
  return envs;
}

void expect_same_action(const sim::Action& a, const sim::Action& b) {
  EXPECT_EQ(a.node.job, b.node.job);
  EXPECT_EQ(a.node.stage, b.node.stage);
  EXPECT_EQ(a.limit, b.limit);
  EXPECT_EQ(a.exec_class, b.exec_class);
}

TEST(DecideBatch, MatchesSingleSessionDecide) {
  core::DecimaAgent agent(agent_config());
  const auto envs = mid_episode_envs(agent, 5, 2.0);
  std::vector<const sim::ClusterEnv*> ptrs;
  for (const auto& e : envs) ptrs.push_back(e.get());

  const auto batched = agent.decide_batch(ptrs);
  ASSERT_EQ(batched.size(), ptrs.size());
  for (std::size_t s = 0; s < ptrs.size(); ++s) {
    expect_same_action(batched[s], agent.decide(*ptrs[s]));
  }
}

TEST(DecideBatch, MatchesGreedySchedule) {
  core::DecimaAgent agent(agent_config());
  const auto envs = mid_episode_envs(agent, 4, 3.0);
  agent.set_mode(core::Mode::kGreedy);
  for (const auto& env : envs) {
    expect_same_action(agent.decide(*env), agent.schedule(*env));
  }
}

TEST(DecideBatch, MatchesDecideAcrossAblations) {
  for (core::LimitEncoding enc :
       {core::LimitEncoding::kScalarInput,
        core::LimitEncoding::kSeparateOutputs,
        core::LimitEncoding::kStageLevel}) {
    for (bool use_gnn : {true, false}) {
      core::AgentConfig ac = agent_config();
      ac.limit_encoding = enc;
      ac.use_gnn = use_gnn;
      core::DecimaAgent agent(ac);
      const auto envs = mid_episode_envs(agent, 3, 2.0);
      std::vector<const sim::ClusterEnv*> ptrs;
      for (const auto& e : envs) ptrs.push_back(e.get());
      const auto batched = agent.decide_batch(ptrs);
      for (std::size_t s = 0; s < ptrs.size(); ++s) {
        expect_same_action(batched[s], agent.decide(*ptrs[s]));
      }
    }
  }
}

TEST(DecideBatch, MatchesDecideMultiResource) {
  core::AgentConfig ac = agent_config();
  ac.multi_resource = true;
  core::DecimaAgent agent(ac);

  sim::EnvConfig env_cfg = serve_env();
  env_cfg.num_executors = 8;
  env_cfg.classes = {sim::ExecutorClass{0.5, "small"},
                     sim::ExecutorClass{1.0, "large"}};
  std::vector<std::unique_ptr<sim::ClusterEnv>> envs;
  agent.set_mode(core::Mode::kGreedy);
  for (int s = 0; s < 4; ++s) {
    sim::JobBuilder b("mem" + std::to_string(s));
    const int root = b.stage(2, 1.0, {}, 0.25);
    b.stage(3, 1.0, {root}, 0.75);  // needs the large class
    auto env = std::make_unique<sim::ClusterEnv>(env_cfg);
    workload::load(*env, workload::batched({b.build()}));
    env->run(agent, 1.0 + 0.5 * s);
    envs.push_back(std::move(env));
  }
  std::vector<const sim::ClusterEnv*> ptrs;
  for (const auto& e : envs) ptrs.push_back(e.get());
  const auto batched = agent.decide_batch(ptrs);
  for (std::size_t s = 0; s < ptrs.size(); ++s) {
    expect_same_action(batched[s], agent.decide(*ptrs[s]));
  }
}

TEST(DecideBatch, SessionCachesMatchUncachedAcrossBatches) {
  // Per-session embedding caches reused across successive cross-session
  // batches (the dispatcher pattern) must never change a decision, with
  // sessions joining and leaving the batch between rounds.
  core::DecimaAgent agent(agent_config());
  const auto envs = mid_episode_envs(agent, 5, 2.0);
  std::vector<gnn::EmbeddingCache> caches(envs.size());
  for (double until : {2.5, 3.0, 4.0}) {
    std::vector<const sim::ClusterEnv*> ptrs;
    std::vector<gnn::EmbeddingCache*> cache_ptrs;
    for (std::size_t s = 0; s < envs.size(); ++s) {
      if (until > 2.5 && s == 2) continue;  // session 2 drops out, rejoins
      ptrs.push_back(envs[s].get());
      cache_ptrs.push_back(&caches[s]);
    }
    const auto batched = agent.decide_batch(ptrs, cache_ptrs);
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      expect_same_action(batched[i], agent.decide(*ptrs[i]));
    }
    agent.set_mode(core::Mode::kGreedy);
    for (const auto& env : envs) env->run(agent, until);  // states advance
  }
  std::uint64_t reused = 0;
  for (const auto& c : caches) {
    reused += c.stats().graphs_reused;
  }
  EXPECT_GT(reused, 0u);
}

TEST(DecideBatch, SessionCacheSurvivesSnapshotSwap) {
  // A session keeps its cache while the policy snapshot behind the server
  // changes: the parameter-version check must invalidate the cached
  // activations, never serve the old snapshot's embeddings.
  core::AgentConfig other = agent_config();
  other.seed = 97;  // different weights
  core::DecimaAgent before(agent_config());
  core::DecimaAgent after(other);
  const auto envs = mid_episode_envs(before, 3, 2.0);

  gnn::EmbeddingCache session_cache;
  for (const auto& env : envs) {
    before.decide(*env, &session_cache);  // warm under the old snapshot
  }
  for (const auto& env : envs) {
    expect_same_action(after.decide(*env, &session_cache),
                       after.decide(*env));
  }
}

TEST(DecideBatch, EmptyAndFinishedSessionsAnswerNone) {
  core::DecimaAgent agent(agent_config());
  sim::ClusterEnv empty(serve_env());  // no jobs at all
  const auto actions = agent.decide_batch({&empty});
  EXPECT_FALSE(actions[0].valid());
  EXPECT_TRUE(agent.decide_batch({}).empty());
}

std::string checkpoint_of_fresh_agent(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  core::DecimaAgent agent(agent_config());
  EXPECT_TRUE(io::save_policy(agent, path));
  return path;
}

TEST(PolicyServer, ServedSessionMatchesLocalGreedyRun) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_local.ckpt");
  auto server = serve::PolicyServer::from_checkpoint(ckpt);
  ASSERT_NE(server, nullptr);
  const auto jobs = session_jobs(1);
  const auto served = serve::run_session(*server, serve_env(), jobs);

  core::DecimaAgent local(agent_config());
  local.set_mode(core::Mode::kGreedy);
  sim::ClusterEnv env(serve_env());
  workload::load(env, jobs);
  env.run(local);

  EXPECT_EQ(served.avg_jct, env.avg_jct());
  EXPECT_EQ(served.end_time, env.now());
  EXPECT_EQ(served.completed, static_cast<int>(env.jcts().size()));
  EXPECT_GT(served.decisions, 0u);
}

std::vector<serve::SessionResult> run_concurrent_sessions(
    serve::PolicyServer& server, int sessions) {
  std::vector<serve::SessionResult> results(
      static_cast<std::size_t>(sessions));
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      results[static_cast<std::size_t>(s)] =
          serve::run_session(server, serve_env(),
                             session_jobs(static_cast<std::uint64_t>(s)));
    });
  }
  for (auto& t : threads) t.join();
  return results;
}

// Cross-session batches (max_batch 0 drains the queue) against one request
// per inference (max_batch 1): decisions do not depend on batch composition.
TEST(PolicyServer, CrossSessionBatchingMatchesSequential) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_modes.ckpt");
  serve::ServeConfig batched_cfg;
  serve::ServeConfig sequential_cfg;
  sequential_cfg.max_batch = 1;

  auto batched = serve::PolicyServer::from_checkpoint(ckpt, batched_cfg);
  auto sequential = serve::PolicyServer::from_checkpoint(ckpt, sequential_cfg);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(sequential, nullptr);

  const auto rb = run_concurrent_sessions(*batched, 6);
  const auto rs = run_concurrent_sessions(*sequential, 6);
  EXPECT_EQ(sequential->stats().max_batch_size, 1u);
  for (std::size_t s = 0; s < rb.size(); ++s) {
    EXPECT_EQ(rb[s].avg_jct, rs[s].avg_jct) << "session " << s;
    EXPECT_EQ(rb[s].end_time, rs[s].end_time) << "session " << s;
    EXPECT_EQ(rb[s].decisions, rs[s].decisions) << "session " << s;
  }
}

TEST(PolicyServer, ConcurrentSessionsAreDeterministic) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_determinism.ckpt");
  auto run_once = [&] {
    auto server = serve::PolicyServer::from_checkpoint(ckpt);
    auto results = run_concurrent_sessions(*server, 8);
    const auto stats = server->stats();
    std::uint64_t expected = 0;
    for (const auto& r : results) expected += r.decisions;
    EXPECT_EQ(stats.decisions, expected);
    EXPECT_GE(stats.batches, 1u);
    return results;
  };
  const auto a = run_once();
  const auto b = run_once();
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].avg_jct, b[s].avg_jct) << "session " << s;
    EXPECT_EQ(a[s].end_time, b[s].end_time) << "session " << s;
    EXPECT_EQ(a[s].decisions, b[s].decisions) << "session " << s;
  }
}

TEST(PolicyServer, MaxBatchCapsCoalescing) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_maxbatch.ckpt");
  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  auto server = serve::PolicyServer::from_checkpoint(ckpt, cfg);
  run_concurrent_sessions(*server, 6);
  EXPECT_LE(server->stats().max_batch_size, 2u);
}

TEST(PolicyServer, FromCheckpointRejectsBadFiles) {
  EXPECT_EQ(serve::PolicyServer::from_checkpoint("no_such.ckpt"), nullptr);
}

TEST(PolicyServer, StopIsIdempotentAndAnswersAfterStopAreNone) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_stop.ckpt");
  auto server = serve::PolicyServer::from_checkpoint(ckpt);
  server->stop();
  server->stop();
  sim::ClusterEnv env(serve_env());
  workload::load(env, session_jobs(0));
  serve::Session session = server->open_session();
  EXPECT_FALSE(server->decide_with_status(session, env).action.valid());
}

// The stop-vs-no-action ambiguity fix: an empty action from a live server
// (no runnable work) and an answer from a stopped server are the SAME
// Action::none() but carry different DecideStatus values.
TEST(PolicyServer, StatusDistinguishesStoppedFromEmptyAction) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_status.ckpt");
  auto server = serve::PolicyServer::from_checkpoint(ckpt);
  sim::ClusterEnv empty_env(serve_env());  // no jobs: nothing to schedule
  serve::Session session = server->open_session();

  const auto live = server->decide_with_status(session, empty_env);
  EXPECT_EQ(live.status, serve::DecideStatus::kOk);
  EXPECT_FALSE(live.action.valid());
  EXPECT_FALSE(live.fallback);

  server->stop();
  const auto stopped = server->decide_with_status(session, empty_env);
  EXPECT_EQ(stopped.status, serve::DecideStatus::kStopped);
  EXPECT_FALSE(stopped.action.valid());
  EXPECT_FALSE(stopped.fallback);  // stopped servers never fall back
  EXPECT_GE(server->stats().stopped_answers, 1u);
}

// Regression pin for shutdown with queued requests: every query issued
// around a concurrent stop() resolves as either a real kOk answer (the
// dispatcher drains its queue before exiting) or an explicit kStopped —
// never a hang, never a lost request.
TEST(PolicyServer, ShutdownWithQueuedRequestsDrainsOrReportsStopped) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_shutdown.ckpt");
  auto server = serve::PolicyServer::from_checkpoint(ckpt);

  core::DecimaAgent agent(agent_config());
  const auto envs = mid_episode_envs(agent, 8, 2.0);

  std::atomic<std::uint64_t> ok{0}, stopped{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      serve::Session session = server->open_session();
      for (int i = 0; i < 40; ++i) {
        const auto r = server->decide_with_status(
            session, *envs[static_cast<std::size_t>(t)]);
        switch (r.status) {
          case serve::DecideStatus::kOk: ++ok; break;
          case serve::DecideStatus::kStopped: ++stopped; break;
          default: ++other; break;
        }
      }
    });
  }
  server->stop();  // races the queries above on purpose
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok + stopped, 8u * 40u);  // every request resolved, one way only
  EXPECT_EQ(other, 0u);               // default config: nothing degrades
  const auto stats = server->stats();
  EXPECT_EQ(stats.decisions, ok);
  EXPECT_EQ(stats.stopped_answers, stopped);
}

// Backpressure + deadline + fallback under saturation: a bounded queue and a
// tight deadline force degraded answers, which must come from SJF-CP and be
// counted — and the accounting must balance exactly.
TEST(PolicyServer, SaturationDegradesToSjfCpWithExactAccounting) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_saturate.ckpt");
  serve::ServeConfig cfg;
  cfg.max_queue = 1;
  cfg.deadline = 5e-5;
  auto server = serve::PolicyServer::from_checkpoint(ckpt, cfg);

  core::DecimaAgent agent(agent_config());
  const auto envs = mid_episode_envs(agent, 8, 2.0);
  // Precompute each env's SJF-CP answer: envs are static here, so every
  // degraded answer must equal it bit for bit.
  std::vector<sim::Action> sjf_want;
  for (const auto& env : envs) {
    sched::SjfCpScheduler sjf;
    sjf_want.push_back(sjf.schedule(*env));
  }

  std::atomic<std::uint64_t> issued{0}, resolved{0};
  std::atomic<bool> mismatch{false};
  // Degradation depends on thread timing; retry waves until we have seen it
  // (max_queue=1 against 8 threads makes the first wave all but certain).
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        const auto& env = *envs[static_cast<std::size_t>(t)];
        serve::Session session = server->open_session();
        for (int i = 0; i < 10; ++i) {
          ++issued;
          const auto r = server->decide_with_status(session, env);
          ++resolved;
          if (r.status == serve::DecideStatus::kRejected ||
              r.status == serve::DecideStatus::kTimedOut) {
            if (!r.fallback) mismatch = true;
            const auto& want = sjf_want[static_cast<std::size_t>(t)];
            if (r.action.node.job != want.node.job ||
                r.action.node.stage != want.node.stage ||
                r.action.limit != want.limit ||
                r.action.exec_class != want.exec_class) {
              mismatch = true;
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const auto s = server->stats();
    if (s.rejections + s.timeouts > 0) break;
  }

  EXPECT_FALSE(mismatch) << "degraded answer differed from SJF-CP";
  const auto stats = server->stats();
  EXPECT_GT(stats.rejections + stats.timeouts, 0u) << "never saturated";
  EXPECT_EQ(stats.fallbacks, stats.rejections + stats.timeouts);
  EXPECT_EQ(stats.decisions + stats.rejections + stats.timeouts,
            resolved.load());
  EXPECT_EQ(issued.load(), resolved.load());
  EXPECT_LE(stats.max_queue_depth, 1u);
}

// --- Sharded serving plane + Session API (docs/serving.md) ------------------

TEST(ServeConfigValidate, RejectsNonsenseLoudly) {
  EXPECT_NO_THROW(serve::ServeConfig{}.validate());

  serve::ServeConfig cfg;
  cfg.shards = 0;  // zero shards would serve nothing
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.deadline = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.max_queue = 2;
  cfg.max_batch = 8;  // a full batch could never assemble
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.batch_wait_us = -5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // The server construction path validates too — misconfiguration fails at
  // startup, not as silent serialization later.
  const std::string ckpt = checkpoint_of_fresh_agent("serve_validate.ckpt");
  serve::ServeConfig bad;
  bad.shards = -3;
  EXPECT_THROW(serve::PolicyServer::from_checkpoint(ckpt, bad),
               std::invalid_argument);
}

TEST(PolicyServerSharded, SessionAffinityPinsShardAndKeepsCacheWarm) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_affinity.ckpt");
  serve::ServeConfig cfg;
  cfg.shards = 4;
  auto server = serve::PolicyServer::from_checkpoint(ckpt, cfg);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->num_shards(), 4);

  core::DecimaAgent agent(agent_config());
  const auto envs = mid_episode_envs(agent, 1, 2.0);

  serve::Session session = server->open_session();
  EXPECT_TRUE(session.open());
  constexpr std::uint64_t kQueries = 12;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    const auto r = server->decide_with_status(session, *envs[0]);
    EXPECT_EQ(r.status, serve::DecideStatus::kOk);
  }
  // Every query landed on the session's shard and nowhere else — the
  // affinity that keeps its embedding cache on one dispatcher.
  for (int s = 0; s < server->num_shards(); ++s) {
    const auto st = server->shard_stats(s);
    EXPECT_EQ(st.decisions, s == session.shard() ? kQueries : 0u)
        << "shard " << s;
  }
  EXPECT_EQ(server->stats().decisions, kQueries);
  // Identical consecutive queries find every feature row unchanged and
  // reuse the entries: the shard kept this session's cache hot across
  // batches.
  const auto& cs = session.cache_stats();
  EXPECT_GT(cs.graphs_reused, 0u);

  session.close();
  EXPECT_FALSE(session.open());
  // A closed handle still answers (uncached), and close is idempotent.
  EXPECT_EQ(server->decide_with_status(session, *envs[0]).status,
            serve::DecideStatus::kOk);
  session.close();
}

TEST(PolicyServerSharded, SessionsSpreadRoundRobinAcrossShards) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_rr.ckpt");
  serve::ServeConfig cfg;
  cfg.shards = 4;
  auto server = serve::PolicyServer::from_checkpoint(ckpt, cfg);
  std::vector<serve::Session> sessions;
  std::vector<int> per_shard(4, 0);
  for (int i = 0; i < 8; ++i) {
    sessions.push_back(server->open_session());
    ++per_shard[static_cast<std::size_t>(sessions.back().shard())];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(per_shard[static_cast<std::size_t>(s)], 2);
  }
}

// FLAG_PINNED equivalence pin (scripts/check_invariants.py): shards=1 is the
// reference dispatcher, and shards=4 must produce bit-identical sessions —
// sharding, like batching, changes only throughput.
TEST(PolicyServerSharded, Shards4MatchesShards1) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_shards.ckpt");
  serve::ServeConfig one;
  one.shards = 1;
  serve::ServeConfig four;
  four.shards = 4;
  auto ref = serve::PolicyServer::from_checkpoint(ckpt, one);
  auto sharded = serve::PolicyServer::from_checkpoint(ckpt, four);
  ASSERT_NE(ref, nullptr);
  ASSERT_NE(sharded, nullptr);

  const auto r1 = run_concurrent_sessions(*ref, 8);
  const auto r4 = run_concurrent_sessions(*sharded, 8);
  for (std::size_t s = 0; s < r1.size(); ++s) {
    EXPECT_EQ(r1[s].avg_jct, r4[s].avg_jct) << "session " << s;
    EXPECT_EQ(r1[s].end_time, r4[s].end_time) << "session " << s;
    EXPECT_EQ(r1[s].decisions, r4[s].decisions) << "session " << s;
  }
  // All four dispatchers actually served (8 sessions round-robin over 4
  // shards), and the aggregate accounts for every decision.
  const auto agg = sharded->stats();
  std::uint64_t sum = 0;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    const auto st = sharded->shard_stats(s);
    EXPECT_GT(st.decisions, 0u) << "shard " << s;
    sum += st.decisions;
  }
  EXPECT_EQ(sum, agg.decisions);
}

TEST(PolicyServerSharded, AdaptiveBoundedWaitChangesNothingButLatency) {
  const std::string ckpt = checkpoint_of_fresh_agent("serve_wait.ckpt");
  serve::ServeConfig waiting;
  waiting.shards = 2;
  waiting.batch_wait_us = 2000;
  auto ref = serve::PolicyServer::from_checkpoint(ckpt, serve::ServeConfig{});
  auto waited = serve::PolicyServer::from_checkpoint(ckpt, waiting);
  ASSERT_NE(waited, nullptr);

  const auto rr = run_concurrent_sessions(*ref, 6);
  const auto rw = run_concurrent_sessions(*waited, 6);
  for (std::size_t s = 0; s < rr.size(); ++s) {
    EXPECT_EQ(rr[s].avg_jct, rw[s].avg_jct) << "session " << s;
    EXPECT_EQ(rr[s].decisions, rw[s].decisions) << "session " << s;
  }
  const auto st = waited->stats();
  EXPECT_GT(st.decisions, 0u);
  EXPECT_LE(st.batches, st.decisions);
}

}  // namespace
}  // namespace decima
