// The sharded multi-session serving subsystem (docs/serving.md).
//
// Training produces a policy; this layer serves it. A PolicyServer loads a
// policy checkpoint (io::load_policy_agent) into an immutable snapshot and
// answers scheduling queries for many concurrent cluster sessions. The
// serving plane is sharded (ServeConfig::shards, default 1 — the reference
// single-dispatcher path): each shard owns a dispatcher thread, a request
// queue guarded by the shard mutex, a map of the embedding caches of the
// sessions pinned to it, and its own load counters/histograms in the obs
// registry (serve.shard.* — docs/observability.md). Sessions get stable shard
// affinity so their incremental embedding caches stay hot on one dispatcher.
// Within a shard the dispatcher drains pending requests and scores them in
// ONE forward evaluation (DecimaAgent::decide_batch — cross-session
// batching, the serving analogue of episode-batched replay). Decisions are
// bit-identical to scoring each session alone, so throughput is the only
// thing sharding or batching changes (bench_serve_throughput,
// bench_serve_sharded; shards=1 is pinned bit-identical to the pre-shard
// dispatcher by tests/test_serve.cpp's Shards4MatchesShards1 family).
//
// Sessions are first-class: PolicyServer::open_session() returns a
// serve::Session handle that owns the session's incremental embedding cache
// and its shard affinity; every query goes through
// decide_with_status(session, env).
//
// Snapshots are hot-swappable: swap_policy() publishes a new agent under the
// server lock without draining sessions — every shard's dispatcher pins the
// current snapshot (shared_ptr copy) per batch, in-flight batches finish on
// the old snapshot, and the per-session embedding caches self-invalidate on
// the parameter-version mismatch the first time the new snapshot answers.
//
// The server degrades gracefully under saturation (docs/robustness.md),
// shard-locally: each shard's queue can be bounded (ServeConfig::max_queue
// is a per-shard bound; excess requests are rejected — backpressure), queued
// requests can carry a deadline (timed out if the shard's dispatcher doesn't
// reach them in time), and rejected/timed-out requests are answered by the
// SJF-CP heuristic instead of an empty action. Every request resolves with
// an explicit DecideStatus — ok, timed-out, rejected, or stopped — and every
// degradation event is counted in the shard's ServeStats; stats() aggregates
// across shards with the same exact-accounting guarantee.
//
// Adaptive bounded-wait batching: with ServeConfig::batch_wait_us > 0 a
// shard whose queue is shallower than its open-session count waits up to
// that long for more sessions to submit before dispatching — shallow
// batches grow at low load, while a deep queue (or a lone session)
// dispatches immediately. Waiting reorders nothing a session can observe:
// decisions stay bit-identical, only latency/throughput shift.
//
// Locking discipline (docs/concurrency.md): every mutable member is
// GUARDED_BY its shard mutex (or the server mutex mu_ for the snapshot) and
// the Clang thread-safety analysis proves it at compile time; the one
// unannotated sharing is the Request handoff, documented at the struct.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>  // std::once_flag only — locks live in util/sync.h
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/agent.h"
#include "sim/cluster_env.h"
#include "util/sync.h"
#include "workload/arrivals.h"

namespace decima::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace decima::obs

namespace decima::serve {

struct ServeConfig {
  // Most pending requests one dispatch may coalesce; 0 drains the whole
  // queue, 1 scores one request per inference (the sequential reference of
  // bench_serve_throughput). Decisions do not depend on batch composition,
  // only latency does.
  int max_batch = 0;

  // --- Sharding (docs/serving.md) ------------------------------------------
  // Dispatcher shards. 1 (the default) is the reference path, bit-identical
  // to the historical single-dispatcher server. Sessions are pinned to
  // shards round-robin at open_session(); a session's every request lands on
  // its shard, so its embedding cache is only ever touched by one
  // dispatcher.
  int shards = 1;
  // Adaptive bounded-wait dispatch: when > 0, a shard whose pending-request
  // count is below its open-session count waits up to this many microseconds
  // for more submissions before dispatching a shallow batch. 0 (default) =
  // dispatch immediately, the historical behavior.
  int batch_wait_us = 0;

  // --- Graceful degradation (docs/robustness.md) ---------------------------
  // Bounded queue, per shard: a request arriving while max_queue requests
  // are already queued on its shard is rejected (kRejected) instead of
  // enqueued — backpressure, not unbounded latency. A timed-out request
  // leaves the queue at once, so the bound counts live requests only.
  // 0 = unbounded (the pre-degradation behavior).
  int max_queue = 0;
  // Per-request deadline in seconds: a request still QUEUED this long after
  // submission gives up (kTimedOut). A request the dispatcher already picked
  // up always waits for its answer — decisions are never half-delivered.
  // 0 = no deadline. Rejected and timed-out requests are always answered
  // by the SJF-CP heuristic (src/sched), so a session keeps making progress
  // while the server is saturated; stopped servers answer Action::none().
  double deadline = 0.0;

  // Fail-loudly construction: throws std::invalid_argument on nonsense
  // (shards < 1, negative budgets/deadlines, a per-shard queue bound smaller
  // than the batch size).
  // PolicyServer's constructor calls this, so a misconfigured server never
  // starts silently degraded. The knob table lives in docs/serving.md.
  void validate() const;
};

struct ServeStats {
  std::uint64_t decisions = 0;       // requests answered by the policy
  std::uint64_t batches = 0;         // dispatcher wake-ups that did work
  std::uint64_t max_batch_size = 0;  // largest single coalesced batch
  std::uint64_t snapshot_swaps = 0;  // successful swap_policy calls
  double mean_batch_size = 0.0;
  // Degradation events (every one is also a returned DecideResult status —
  // requests are answered ok/timed-out/rejected/stopped, never dropped).
  std::uint64_t rejections = 0;       // bounced off a full per-shard queue
  std::uint64_t timeouts = 0;         // deadline expired while queued
  std::uint64_t fallbacks = 0;        // degraded answers routed to SJF-CP
  std::uint64_t stopped_answers = 0;  // queries arriving after stop()
  std::uint64_t max_queue_depth = 0;  // high-water pending count (per shard)
};

// Why a decision came back the way it did. Replaces the old convention of
// returning Action::none() for "stopped", which was indistinguishable from a
// legitimate empty action (no runnable work).
enum class DecideStatus {
  kOk,        // answered by the policy snapshot
  kTimedOut,  // deadline expired while queued
  kRejected,  // bounced off a full queue (backpressure)
  kStopped,   // server stopped; no fallback, sessions should wind down
};

struct DecideResult {
  sim::Action action;  // Action::none() for kStopped
  DecideStatus status = DecideStatus::kOk;
  bool fallback = false;  // action came from the SJF-CP heuristic
};

class PolicyServer;

// A served session's identity: its shard affinity and its incremental
// embedding cache, owned by the server for exactly the handle's lifetime.
// Obtained from PolicyServer::open_session(); movable, not copyable; closes
// (and frees the cache) on destruction or close(). A Session must not
// outlive its server, and is single-threaded like the session it names:
// one thread drives decide_with_status(session, env) at a time.
class Session {
 public:
  Session() = default;
  Session(Session&& other) noexcept { *this = std::move(other); }
  Session& operator=(Session&& other) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() { close(); }

  // Unregisters from the server and frees the embedding cache. Idempotent;
  // safe on a moved-from or default-constructed handle.
  void close();

  bool open() const { return server_ != nullptr; }
  // The shard every request of this session lands on (stable for the
  // handle's lifetime).
  int shard() const { return shard_; }
  std::uint64_t id() const { return id_; }
  // The session's embedding-cache accounting (all zeros after close(), or
  // when the policy snapshot was exported with embed_cache off).
  const gnn::EmbeddingCacheStats& cache_stats() const;

 private:
  friend class PolicyServer;
  Session(PolicyServer* server, std::uint64_t id, int shard,
          gnn::EmbeddingCache* cache)
      : server_(server), id_(id), shard_(shard), cache_(cache) {}

  PolicyServer* server_ = nullptr;
  std::uint64_t id_ = 0;
  int shard_ = 0;
  // Owned by the server's shard (stable address in the shard's cache map);
  // only the shard dispatcher touches it while a request is in flight.
  gnn::EmbeddingCache* cache_ = nullptr;
};

class PolicyServer {
 public:
  // Takes ownership of the policy snapshot; the server only ever touches it
  // through the const read-only inference path. Validates `config`
  // (ServeConfig::validate — throws std::invalid_argument on nonsense, or
  // on a null policy) and starts one dispatcher thread per shard.
  explicit PolicyServer(std::unique_ptr<const core::DecimaAgent> policy,
                        ServeConfig config = {});
  // Loads a policy checkpoint written by io::save_policy; null on any
  // checkpoint error. A nonsense `config` still throws, as the constructor
  // does.
  static std::unique_ptr<PolicyServer> from_checkpoint(
      const std::string& path, ServeConfig config = {});
  ~PolicyServer();

  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  // Registers a new session: assigns it a shard (round-robin, stable for the
  // session's lifetime) and an embedding cache owned by that shard. The
  // handle unregisters itself on destruction. Sessions opened on a stopped
  // server are valid but every query answers kStopped.
  Session open_session() EXCLUDES(mu_);

  // Blocking decision query, called from the session's thread: enqueues the
  // session's current state on its shard and waits for that shard's
  // dispatcher — or degrades per the config (kRejected on a full queue,
  // kTimedOut past the deadline, kStopped once stopped), answering
  // rejected/timed-out requests from SJF-CP.
  // The session's embedding cache rides along: consecutive queries re-embed
  // only what changed between them, even inside a cross-session batch. The
  // fallback path never touches the cache, so a degraded answer cannot
  // stale it. A closed, moved-from or foreign handle serves uncached on
  // shard 0.
  DecideResult decide_with_status(Session& session, const sim::ClusterEnv& env)
      EXCLUDES(mu_);

  // Publishes `policy` as the snapshot answering every *subsequent* batch;
  // batches already dispatched (on any shard) finish on the snapshot they
  // pinned. Live sessions keep their embedding caches — the agent's
  // parameter-version check invalidates them on first contact with the new
  // snapshot (pinned by DecideBatch.SessionCacheSurvivesSnapshotSwap). The
  // retired snapshot is destroyed once the last in-flight batch drops its
  // pin. Null is ignored.
  void swap_policy(std::unique_ptr<const core::DecimaAgent> policy)
      EXCLUDES(mu_);

  // Drains outstanding requests on every shard and joins the dispatchers.
  // Idempotent; the destructor calls it.
  void stop() EXCLUDES(mu_);

  // Aggregate across shards: sums for the counters, max for the high-water
  // marks (max_batch_size; max_queue_depth stays a per-shard bound — the
  // ladder's admission check is shard-local).
  ServeStats stats() const EXCLUDES(mu_);
  // One shard's own ladder accounting (snapshot_swaps is server-level and
  // reported as 0 here). `shard` must be in [0, num_shards()).
  ServeStats shard_stats(int shard) const EXCLUDES(mu_);
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The snapshot currently answering queries. Callers get their own pin: the
  // agent stays alive (and immutable) even if the server swaps or dies.
  std::shared_ptr<const core::DecimaAgent> policy() const EXCLUDES(mu_);
  const ServeConfig& config() const { return config_; }

 private:
  friend class Session;

  // One blocking query. It lives in the calling session's
  // decide_with_status frame and reaches the dispatcher as a pointer in its
  // shard's queue. Its fields are shared without annotations (the analysis
  // cannot name the owning shard's mutex from here); the protocol is:
  //   * claimed/done/action are written and read under the shard mutex. The
  //     dispatcher pops a request and sets `claimed` in one critical
  //     section; a session whose deadline expires withdraws its request
  //     from the queue only while it is unclaimed, so exactly one side
  //     wins and a claimed request always waits for its answer.
  //   * env/cache/enqueue_* are written before the push; the dispatcher
  //     reads them after the claim while the session blocks on `done`.
  //   * The dispatcher never touches a request after setting `done`, and
  //     the session returns only after seeing it (or after withdrawing), so
  //     the frame outlives every dispatcher access.
  struct Request {
    const sim::ClusterEnv* env = nullptr;
    gnn::EmbeddingCache* cache = nullptr;  // the session's; null = uncached
    // Queue-wait observability (docs/observability.md): stamped at enqueue
    // when metrics were enabled; the dispatcher reads it after claiming.
    std::chrono::steady_clock::time_point enqueue_tp{};
    bool enqueue_timed = false;
    sim::Action action;
    bool claimed = false;
    bool done = false;
  };

  // One dispatcher shard: request queue, caches of the sessions pinned
  // here, local ladder accounting, and the shard's obs instruments. The
  // mutex guards the queue and the claim/withdraw/done handoff, and
  // carries the done/work signaling.
  struct Shard {
    util::Mutex mu;
    util::CondVar work_cv;  // dispatcher waits: work, stop, or batch growth
    util::CondVar done_cv;  // sessions wait: answer ready
    std::deque<Request*> queue GUARDED_BY(mu);  // unclaimed, oldest first
    bool stopping GUARDED_BY(mu) = false;
    ServeStats st GUARDED_BY(mu);  // snapshot_swaps unused (server-level)
    std::unordered_map<std::uint64_t, std::unique_ptr<gnn::EmbeddingCache>>
        caches GUARDED_BY(mu);
    int open_sessions GUARDED_BY(mu) = 0;

    // Per-shard obs instruments (serve.shard.*, registered once at server
    // construction as "<name>.<shard-index>"; recording is lock-free).
    obs::Counter* m_decisions = nullptr;
    obs::Gauge* m_queue_depth = nullptr;
    obs::Histogram* m_batch_size = nullptr;
    obs::Histogram* m_batch_wait_us = nullptr;

    std::thread dispatcher;
  };

  void dispatch_loop(Shard& sh);
  // Adaptive bounded-wait (docs/serving.md): holds the dispatcher up to
  // batch_wait_us while the queue is shallower than the shard's
  // open-session count (capped by max_batch), so low-load batches grow;
  // returns immediately when the queue is already deep, the shard is
  // stopping, or a lone session could never be joined by another.
  void bounded_batch_wait(Shard& sh) REQUIRES(sh.mu);
  void close_session(const Session& session);
  // Builds the degraded (rejected/timed-out) answer from SJF-CP.
  static DecideResult degraded_answer(const sim::ClusterEnv& env,
                                      DecideStatus status);

  const ServeConfig config_;

  // Server-level state: the hot-swappable snapshot and session numbering.
  // Shard-local state (queue, caches, ladder stats) lives in each Shard.
  mutable util::Mutex mu_;
  // The live snapshot. shared_ptr so a batch / policy() caller can pin it
  // across the unlocked inference while swap_policy retires it.
  std::shared_ptr<const core::DecimaAgent> policy_ GUARDED_BY(mu_);
  std::uint64_t snapshot_swaps_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_session_id_ GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::once_flag join_once_;  // concurrent stop(): exactly one caller joins
};

// A Scheduler that routes every scheduling query of one session through the
// server, so an unmodified ClusterEnv::run() drives a served session.
// Per-session tally of how each query resolved; ok + timeouts + rejections +
// stopped always equals the queries issued — no request is ever lost.
struct SessionDegradation {
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejections = 0;
  std::uint64_t stopped = 0;
  std::uint64_t fallbacks = 0;  // of the above, answered by SJF-CP
  std::uint64_t answered() const {
    return ok + timeouts + rejections + stopped;
  }
};

class ServedScheduler : public sim::Scheduler {
 public:
  explicit ServedScheduler(PolicyServer& server)
      : server_(server), session_(server.open_session()) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    ++decisions_;
    const DecideResult r = server_.decide_with_status(session_, env);
    switch (r.status) {
      case DecideStatus::kOk: ++degradation_.ok; break;
      case DecideStatus::kTimedOut: ++degradation_.timeouts; break;
      case DecideStatus::kRejected: ++degradation_.rejections; break;
      case DecideStatus::kStopped: ++degradation_.stopped; break;
    }
    if (r.fallback) ++degradation_.fallbacks;
    return r.action;
  }
  std::string name() const override { return "Decima-served"; }
  std::size_t decisions() const { return decisions_; }
  const SessionDegradation& degradation() const { return degradation_; }
  const Session& session() const { return session_; }
  const gnn::EmbeddingCacheStats& embed_cache_stats() const {
    return session_.cache_stats();
  }

 private:
  PolicyServer& server_;
  // The session handle: this scheduler is the session, so its lifetime is
  // exactly the handle's (shard affinity + server-owned embedding cache).
  Session session_;
  std::size_t decisions_ = 0;
  SessionDegradation degradation_;
};

// One served cluster session end to end: loads `jobs` into a fresh env and
// runs it against the server until `until` (or completion).
struct SessionResult {
  double avg_jct = 0.0;
  double end_time = 0.0;
  int completed = 0;
  std::size_t decisions = 0;  // scheduling queries the session issued
  SessionDegradation degradation;  // how each of those queries resolved
  // The session's embedding-cache accounting (EmbeddingCache::stats():
  // reused graphs, rebuilds, diff refreshes, dirty rows); all zeros when
  // the policy snapshot was exported with embed_cache off.
  gnn::EmbeddingCacheStats cache;
};
SessionResult run_session(PolicyServer& server, const sim::EnvConfig& env,
                          const std::vector<workload::ArrivingJob>& jobs,
                          sim::Time until = sim::kInfTime);

}  // namespace decima::serve
