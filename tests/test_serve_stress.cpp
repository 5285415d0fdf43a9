// ThreadSanitizer stress for the PolicyServer locking discipline — the exact
// interleavings src/util/sync.h's annotations claim safe at compile time,
// exercised at runtime so TSan can veto them: session threads churning
// (starting, finishing, restarting) while swap_policy() hot-swaps the
// snapshot under load and readers poll stats()/policy() against the
// dispatcher. The CI thread-sanitizer job runs this binary; it also runs in
// the plain suite, where the assertions below (counter conservation,
// liveness, swap visibility) are the signal.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "serve/policy_server.h"

namespace decima {
namespace {

core::AgentConfig agent_config(std::uint64_t seed) {
  core::AgentConfig c;
  c.seed = seed;
  return c;
}

sim::JobSpec chain_job(const std::string& name, int tasks, double dur) {
  sim::JobBuilder b(name);
  const int root = b.stage(tasks, dur);
  b.stage(tasks, dur, {root});
  return b.build();
}

std::vector<workload::ArrivingJob> session_jobs(std::uint64_t variant) {
  const int tasks = 1 + static_cast<int>(variant % 3);
  return workload::batched({chain_job("s", tasks, 1.0),
                            chain_job("t", tasks + 1, 0.5)});
}

sim::EnvConfig serve_env() {
  sim::EnvConfig c;
  c.num_executors = 3;
  return c;
}

// Session churn + snapshot hot-swap + concurrent readers, all at once. Every
// session must complete (no decision may be lost across a swap), the served
// decision counter must conserve the sessions' query counts, and every swap
// must be visible in stats(). Run at shards=1 (the reference dispatcher) and
// shards=4 (cross-shard hot-swap: every shard's dispatcher pins and retires
// snapshots independently while sessions churn across all of them).
void churn_under_swaps_and_readers(int shards) {
  constexpr int kSessionThreads = 4;
  constexpr int kSessionsPerThread = 3;
  constexpr int kSwaps = 12;

  serve::ServeConfig cfg;
  cfg.shards = shards;
  auto server = std::make_unique<serve::PolicyServer>(
      std::make_unique<const core::DecimaAgent>(agent_config(19)), cfg);

  std::atomic<std::uint64_t> decisions{0};
  std::atomic<int> completed_sessions{0};
  std::vector<std::thread> threads;

  // Churn: each thread runs short sessions back-to-back, so sessions are
  // continuously joining and leaving the dispatcher's cross-session batches.
  for (int t = 0; t < kSessionThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = 0; s < kSessionsPerThread; ++s) {
        const auto r = serve::run_session(
            *server, serve_env(),
            session_jobs(static_cast<std::uint64_t>(t * 31 + s)));
        decisions += r.decisions;
        if (r.completed > 0) ++completed_sessions;
      }
    });
  }

  // Hot-swapper: alternates two different-weight snapshots under load, so
  // batches straddle retirements and pinned snapshots outlive the swap.
  threads.emplace_back([&] {
    for (int i = 0; i < kSwaps; ++i) {
      server->swap_policy(std::make_unique<const core::DecimaAgent>(
          agent_config(i % 2 == 0 ? 97 : 19)));
      std::this_thread::yield();
    }
  });

  // Readers: stats() snapshots and policy() pins racing the dispatcher's
  // stats updates and the swapper's publishes.
  std::atomic<bool> stop_readers{false};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop_readers.load()) {
        const auto s = server->stats();
        EXPECT_GE(s.decisions, last);  // monotone under one consistent lock
        last = s.decisions;
        const auto pinned = server->policy();
        EXPECT_NE(pinned, nullptr);
        std::this_thread::yield();
      }
    });
  }

  for (int t = 0; t < kSessionThreads + 1; ++t) threads[static_cast<std::size_t>(t)].join();
  stop_readers = true;
  for (std::size_t t = kSessionThreads + 1; t < threads.size(); ++t) threads[t].join();

  const auto stats = server->stats();
  EXPECT_EQ(stats.decisions, decisions.load());
  EXPECT_EQ(stats.snapshot_swaps, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(completed_sessions.load(), kSessionThreads * kSessionsPerThread);
  EXPECT_GE(stats.batches, 1u);
  // Per-shard books must sum to the aggregate — no decision is double- or
  // un-counted when stats() folds the shards together.
  std::uint64_t per_shard_sum = 0;
  for (int s = 0; s < server->num_shards(); ++s) {
    per_shard_sum += server->shard_stats(s).decisions;
  }
  EXPECT_EQ(per_shard_sum, stats.decisions);
}

TEST(ServeStress, SessionChurnUnderSnapshotSwapsAndReaders) {
  churn_under_swaps_and_readers(1);
}

TEST(ServeStress, SessionChurnUnderSnapshotSwapsAndReadersShards4) {
  churn_under_swaps_and_readers(4);
}

// swap_policy with null must be a no-op, and a snapshot pinned through
// policy() must stay valid (and answer decide() identically) after the
// server retires it and even after the server dies.
TEST(ServeStress, PinnedSnapshotOutlivesSwapAndServer) {
  auto server = std::make_unique<serve::PolicyServer>(
      std::make_unique<const core::DecimaAgent>(agent_config(19)));

  const auto pinned = server->policy();
  server->swap_policy(nullptr);  // ignored
  EXPECT_EQ(server->stats().snapshot_swaps, 0u);

  server->swap_policy(
      std::make_unique<const core::DecimaAgent>(agent_config(97)));
  EXPECT_EQ(server->stats().snapshot_swaps, 1u);
  EXPECT_NE(server->policy(), pinned);

  sim::ClusterEnv env(serve_env());
  workload::load(env, session_jobs(0));
  const auto before = pinned->decide(env);
  server.reset();  // server gone; the pin keeps the snapshot alive
  const auto after = pinned->decide(env);
  EXPECT_EQ(before.node.job, after.node.job);
  EXPECT_EQ(before.node.stage, after.node.stage);
  EXPECT_EQ(before.limit, after.limit);
}

// Concurrent stop() callers: exactly one joins the dispatcher, every caller
// returns only after it is gone, and queries afterwards answer none. This is
// the join_once_ race the annotations cannot express (std::once_flag carries
// its own synchronization), so TSan is the checker here.
TEST(ServeStress, ConcurrentStopIsIdempotent) {
  auto server = std::make_unique<serve::PolicyServer>(
      std::make_unique<const core::DecimaAgent>(agent_config(19)));

  // Load it first so stop() has in-flight history behind it.
  const auto r = serve::run_session(*server, serve_env(), session_jobs(1));
  EXPECT_GT(r.decisions, 0u);

  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&] { server->stop(); });
  }
  for (auto& t : stoppers) t.join();

  sim::ClusterEnv env(serve_env());
  workload::load(env, session_jobs(2));
  serve::Session session = server->open_session();
  EXPECT_FALSE(server->decide(session, env).valid());
}

// Overload/saturation: hundreds of sessions against a tight deadline, behind
// a tiny bounded queue (max_queue = 4, where most degradation is rejection)
// or an unbounded one (max_queue = 0 with one request claimed per dispatch,
// where every degraded answer is a request withdrawn from the queue). The
// CI TSan job runs these interleavings too. The gates: queue depth stays
// bounded, every request resolves with an explicit status (zero lost, no
// hang — the test finishing is itself the liveness check), degradation is
// exactly accounted, fallback answers keep every session completing its
// jobs, and saturation actually produced fallbacks. Run at shards=1 and
// shards=4: the ladder is enforced shard-locally (max_queue bounds each
// shard's queue; deadlines withdraw on each shard independently) and the
// aggregated books must still balance to the request.
void overload_backpressure_and_fairness(int shards, int max_queue) {
  constexpr int kThreads = 16;
  constexpr int kSessionsPerThread = 16;  // 256 sessions total
  // Each thread drives one session at a time, so at most kThreads requests
  // are ever queued when the queue itself is unbounded.
  const std::uint64_t depth_bound =
      static_cast<std::uint64_t>(max_queue > 0 ? max_queue : kThreads);

  serve::ServeConfig cfg;
  cfg.shards = shards;
  cfg.max_queue = max_queue;
  cfg.deadline = 2e-4;
  cfg.heuristic_fallback = true;
  if (max_queue == 0) {
    // A dispatcher that claims the whole queue each round answers these
    // lockstep sessions in time, so an unbounded queue never ages past the
    // deadline. Claiming one request per round makes each queued request
    // wait behind every request ahead of it: the queue backs up until
    // deadlines withdraw requests from it.
    cfg.max_batch = 1;
  }
  auto server = std::make_unique<serve::PolicyServer>(
      std::make_unique<const core::DecimaAgent>(agent_config(19)), cfg);

  std::atomic<std::uint64_t> queries{0}, answered{0}, ok{0}, timeouts{0},
      rejections{0}, fallbacks{0};
  std::atomic<int> completed_sessions{0}, starved_sessions{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int s = 0; s < kSessionsPerThread; ++s) {
        const auto r = serve::run_session(
            *server, serve_env(),
            session_jobs(static_cast<std::uint64_t>(t * 131 + s)));
        queries += r.decisions;
        answered += r.degradation.answered();
        ok += r.degradation.ok;
        timeouts += r.degradation.timeouts;
        rejections += r.degradation.rejections;
        fallbacks += r.degradation.fallbacks;
        // Fairness floor: under saturation every session still finishes its
        // jobs (degraded answers keep it moving) — nobody starves.
        if (r.completed == 2) {
          ++completed_sessions;
        } else {
          ++starved_sessions;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Zero lost requests: every query resolved with exactly one status.
  EXPECT_EQ(queries.load(), answered.load());
  EXPECT_EQ(starved_sessions.load(), 0);
  EXPECT_EQ(completed_sessions.load(), kThreads * kSessionsPerThread);

  const auto stats = server->stats();
  // The server's books agree with the sessions' books, event for event.
  EXPECT_EQ(stats.decisions, ok.load());
  EXPECT_EQ(stats.timeouts, timeouts.load());
  EXPECT_EQ(stats.rejections, rejections.load());
  EXPECT_EQ(stats.fallbacks, fallbacks.load());
  EXPECT_EQ(stats.fallbacks, stats.timeouts + stats.rejections);
  EXPECT_EQ(stats.stopped_answers, 0u);
  // Bounded queue held its bound — per shard: stats() reports the max over
  // shards, each of which admits at most max_queue live requests to its
  // queue. 256 sessions with a 200µs deadline cannot all be served by the
  // policy.
  EXPECT_LE(stats.max_queue_depth, depth_bound);
  EXPECT_GT(stats.fallbacks, 0u) << "overload never triggered degradation";
  if (max_queue == 0) {
    EXPECT_EQ(stats.rejections, 0u);
  }
  // Exact accounting holds per shard too, not just in aggregate.
  std::uint64_t shard_ok = 0, shard_rej = 0, shard_to = 0, shard_fb = 0;
  for (int s = 0; s < server->num_shards(); ++s) {
    const auto st = server->shard_stats(s);
    EXPECT_LE(st.max_queue_depth, depth_bound) << "shard " << s;
    shard_ok += st.decisions;
    shard_rej += st.rejections;
    shard_to += st.timeouts;
    shard_fb += st.fallbacks;
  }
  EXPECT_EQ(shard_ok, stats.decisions);
  EXPECT_EQ(shard_rej, stats.rejections);
  EXPECT_EQ(shard_to, stats.timeouts);
  EXPECT_EQ(shard_fb, stats.fallbacks);
}

TEST(ServeStress, OverloadBackpressureAndFairnessAcrossHundredsOfSessions) {
  overload_backpressure_and_fairness(1, 4);
}

TEST(ServeStress, OverloadBackpressureAndFairnessShards4) {
  overload_backpressure_and_fairness(4, 4);
}

TEST(ServeStress, OverloadDeadlineOnlyWithdrawsFromQueue) {
  overload_backpressure_and_fairness(1, 0);
}

TEST(ServeStress, OverloadDeadlineOnlyWithdrawsFromQueueShards4) {
  overload_backpressure_and_fairness(4, 0);
}

}  // namespace
}  // namespace decima
