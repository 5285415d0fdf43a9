#include "serve/policy_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "io/checkpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/heuristics.h"

namespace decima::serve {

namespace {

// Serving-plane metric handles (docs/observability.md), registered once and
// cached — recording is a relaxed-atomic op, and a no-op while the obs
// layer is disabled. These fold the ServeStats degradation ladder into the
// registry so live counters and the per-server stats() snapshot agree.
struct ServeMetrics {
  obs::Histogram& decide_latency_us;
  obs::Histogram& queue_wait_us;
  obs::Histogram& batch_infer_us;
  obs::Histogram& batch_size;
  obs::Counter& ok;
  obs::Counter& rejected;
  obs::Counter& timed_out;
  obs::Counter& stopped;
  obs::Counter& fallbacks;
  obs::Counter& snapshot_swaps;
  obs::Counter& batches;

  static ServeMetrics& get() {
    static ServeMetrics* m = new ServeMetrics{
        obs::Registry::instance().histogram(obs::names::kServeDecideLatencyUs),
        obs::Registry::instance().histogram(obs::names::kServeQueueWaitUs),
        obs::Registry::instance().histogram(obs::names::kServeBatchInferUs),
        obs::Registry::instance().histogram(
            obs::names::kServeBatchSize,
            obs::Histogram::exponential_bounds(1.0, 1024.0, 11)),
        obs::Registry::instance().counter(obs::names::kServeRequestsOk),
        obs::Registry::instance().counter(obs::names::kServeRequestsRejected),
        obs::Registry::instance().counter(obs::names::kServeRequestsTimedOut),
        obs::Registry::instance().counter(obs::names::kServeRequestsStopped),
        obs::Registry::instance().counter(obs::names::kServeFallbacks),
        obs::Registry::instance().counter(obs::names::kServeSnapshotSwaps),
        obs::Registry::instance().counter(obs::names::kServeBatches)};
    return *m;
  }
};

// Per-shard instrument instances are the shard-suffixed serve.shard.* names
// (docs/observability.md): one registry entry per (name, shard index).
std::string shard_metric(const char* prefix, int shard) {
  return std::string(prefix) + "." + std::to_string(shard);
}

// Ring sizing: an explicit override wins; otherwise cover the per-shard
// admission bound (max_queue) with 2x headroom for abandoned-but-unpopped
// entries, and stay generously deep for unbounded configs. SpscRing rounds
// up to a power of two.
std::size_t ring_capacity_for(const ServeConfig& config) {
  if (config.ring_capacity > 0) {
    return static_cast<std::size_t>(config.ring_capacity);
  }
  std::size_t cap = 1024;
  if (config.max_queue > 0) {
    cap = std::max(cap, static_cast<std::size_t>(config.max_queue) * 2);
  }
  return cap;
}

}  // namespace

void ServeConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ServeConfig: " + what);
  };
  if (shards < 1) fail("shards must be >= 1 (0 shards would serve nothing)");
  if (shards > 1024) fail("shards > 1024: more dispatchers than plausible");
  if (max_batch < 0) fail("max_batch must be >= 0 (0 = drain the ring)");
  if (max_queue < 0) fail("max_queue must be >= 0 (0 = unbounded)");
  if (batch_wait_us < 0) {
    fail("batch_wait_us must be >= 0 (0 = immediate dispatch)");
  }
  if (ring_capacity < 0) fail("ring_capacity must be >= 0 (0 = automatic)");
  if (!(deadline >= 0.0) || !std::isfinite(deadline)) {
    fail("deadline must be a finite number of seconds >= 0");
  }
  if (max_queue > 0 && max_batch > max_queue) {
    fail("max_batch exceeds max_queue: a full batch could never assemble "
         "behind the per-shard admission bound");
  }
  if (ring_capacity > 0 && max_queue > ring_capacity) {
    fail("ring_capacity below max_queue: admitted requests would not fit");
  }
}

PolicyServer::PolicyServer(std::unique_ptr<const core::DecimaAgent> policy,
                           ServeConfig config)
    : config_(config), policy_(std::move(policy)) {
  config_.validate();
  if (!policy_) {
    throw std::invalid_argument("PolicyServer: null policy snapshot");
  }
  const std::size_t ring_cap = ring_capacity_for(config_);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    auto sh = std::make_unique<Shard>(ring_cap);
    obs::Registry& reg = obs::Registry::instance();
    sh->m_decisions =
        &reg.counter(shard_metric(obs::names::kServeShardDecisions, i));
    sh->m_queue_depth =
        &reg.gauge(shard_metric(obs::names::kServeShardQueueDepth, i));
    sh->m_batch_size =
        &reg.histogram(shard_metric(obs::names::kServeShardBatchSize, i),
                       obs::Histogram::exponential_bounds(1.0, 1024.0, 11));
    sh->m_batch_wait_us =
        &reg.histogram(shard_metric(obs::names::kServeShardBatchWaitUs, i));
    shards_.push_back(std::move(sh));
  }
  // Start dispatchers only after every shard exists: a dispatcher never
  // touches a sibling shard, but constructing under way would still race
  // the shards_ vector itself.
  for (auto& sh : shards_) {
    Shard* p = sh.get();
    p->dispatcher = std::thread([this, p] { dispatch_loop(*p); });
  }
}

std::unique_ptr<PolicyServer> PolicyServer::from_checkpoint(
    const std::string& path, ServeConfig config) {
  std::unique_ptr<const core::DecimaAgent> policy =
      io::load_policy_agent(path);
  if (!policy) return nullptr;
  return std::make_unique<PolicyServer>(std::move(policy), config);
}

PolicyServer::~PolicyServer() { stop(); }

void PolicyServer::stop() {
  for (auto& sh : shards_) {
    {
      util::MutexLock lk(sh->mu);
      sh->stopping = true;
    }
    sh->work_cv.notify_all();
    // Sessions blocked on ring space must recheck stopping and wind down.
    sh->done_cv.notify_all();
  }
  // call_once also blocks late callers until the winning join completes, so
  // every stop() returns only after the last dispatcher is gone.
  std::call_once(join_once_, [this] {
    for (auto& sh : shards_) sh->dispatcher.join();
  });
}

Session PolicyServer::open_session() {
  std::uint64_t id = 0;
  {
    util::MutexLock lk(mu_);
    id = next_session_id_++;
  }
  const int shard_idx = static_cast<int>(id % shards_.size());
  Shard& sh = *shards_[static_cast<std::size_t>(shard_idx)];
  gnn::EmbeddingCache* cache = nullptr;
  {
    util::MutexLock lk(sh.mu);
    std::unique_ptr<gnn::EmbeddingCache>& slot = sh.caches[id];
    slot = std::make_unique<gnn::EmbeddingCache>();
    cache = slot.get();
    ++sh.open_sessions;
  }
  return Session(this, id, shard_idx, cache);
}

void PolicyServer::close_session(const Session& session) {
  Shard& sh = *shards_[static_cast<std::size_t>(session.shard_)];
  {
    util::MutexLock lk(sh.mu);
    sh.caches.erase(session.id_);
    --sh.open_sessions;
  }
  // The shard's adaptive-wait target shrank: a dispatcher holding a shallow
  // batch open for this session must re-evaluate instead of sleeping out
  // the full bounded wait.
  sh.work_cv.notify_all();
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    close();
    server_ = other.server_;
    id_ = other.id_;
    shard_ = other.shard_;
    cache_ = other.cache_;
    other.server_ = nullptr;
    other.cache_ = nullptr;
  }
  return *this;
}

void Session::close() {
  if (server_ == nullptr) return;
  server_->close_session(*this);
  server_ = nullptr;
  cache_ = nullptr;
}

const gnn::EmbeddingCacheStats& Session::cache_stats() const {
  static const gnn::EmbeddingCacheStats kEmpty{};
  return cache_ != nullptr ? cache_->stats() : kEmpty;
}

DecideResult PolicyServer::degraded_answer(const sim::ClusterEnv& env,
                                           DecideStatus status) const {
  DecideResult result;
  result.status = status;
  if (config_.heuristic_fallback) {
    // SJF-CP is stateless, cheap (no GNN), and the strongest single
    // heuristic on average-JCT (§7.2) — the natural degraded-mode policy.
    sched::SjfCpScheduler fallback;
    result.action = fallback.schedule(env);
    result.fallback = true;
  }
  return result;
}

sim::Action PolicyServer::decide(Session& session, const sim::ClusterEnv& env) {
  return decide_with_status(session, env).action;
}

DecideResult PolicyServer::decide_with_status(Session& session,
                                              const sim::ClusterEnv& env) {
  // A closed, moved-from or foreign handle is served uncached on shard 0
  // instead of being UB.
  const bool own = session.open() && session.server_ == this;
  Shard& sh = *shards_[own ? static_cast<std::size_t>(session.shard_) : 0];
  ServeMetrics& metrics = ServeMetrics::get();
  // End-to-end latency as this session sees it, every outcome included.
  obs::ScopedLatencyUs decide_latency(metrics.decide_latency_us);
  // Heap-shared: the ring (and the dispatcher) may hold the request past
  // this frame if the session abandons it on deadline expiry.
  auto req = std::make_shared<Request>();
  req->env = &env;
  req->cache = own ? session.cache_ : nullptr;
  if (obs::metrics_enabled()) {
    req->enqueue_tp = std::chrono::steady_clock::now();
    req->enqueue_timed = true;
  }
  bool rejected = false;
  bool stopped = false;
  {
    util::MutexLock lk(sh.mu);
    for (;;) {
      if (sh.stopping) {
        ++sh.st.stopped_answers;
        stopped = true;
        break;
      }
      if (config_.max_queue > 0 &&
          sh.ring.size() >= static_cast<std::size_t>(config_.max_queue)) {
        // Backpressure: bounce instead of queueing unboundedly; the request
        // is answered below by the (lock-free) heuristic and never reaches
        // the dispatcher. The producer-side ring size is exact-or-over
        // (util/ring.h), so the per-shard bound is never exceeded.
        ++sh.st.rejections;
        if (config_.heuristic_fallback) ++sh.st.fallbacks;
        rejected = true;
        break;
      }
      if (sh.ring.try_push(req)) {
        sh.st.max_queue_depth =
            std::max(sh.st.max_queue_depth,
                     static_cast<std::uint64_t>(sh.ring.size()));
        break;
      }
      // Ring full in an unbounded config: wait for the dispatcher to free
      // slots (done_cv doubles as the space signal — the dispatcher
      // notifies it after every pop cycle), then recheck from the top.
      sh.done_cv.wait(sh.mu);
    }
  }
  if (stopped) {
    metrics.stopped.inc();
    return DecideResult{sim::Action::none(), DecideStatus::kStopped, false};
  }
  if (rejected) {
    metrics.rejected.inc();
    if (config_.heuristic_fallback) metrics.fallbacks.inc();
    return degraded_answer(env, DecideStatus::kRejected);
  }

  sh.work_cv.notify_one();
  const bool has_deadline = config_.deadline > 0.0;
  const auto submit_time = std::chrono::steady_clock::now();
  const auto deadline_tp =
      submit_time + std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::duration<double>(config_.deadline));
  bool timed_out = false;
  {
    util::MutexLock lk(sh.mu);
    bool enforce_deadline = has_deadline;
    while (req->state.load(std::memory_order_acquire) != Request::kDone) {
      if (!enforce_deadline) {
        sh.done_cv.wait(sh.mu);
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline_tp) {
        int expected = Request::kQueued;
        if (req->state.compare_exchange_strong(expected, Request::kAbandoned,
                                               std::memory_order_acq_rel)) {
          // Withdrawn before any dispatcher claimed it: the stale ring
          // entry is skipped (and freed) at the next pop cycle, and the
          // request is answered from the fallback.
          ++sh.st.timeouts;
          if (config_.heuristic_fallback) ++sh.st.fallbacks;
          timed_out = true;
          break;
        }
        // Claimed: the dispatcher is scoring this request, so its answer
        // MUST be awaited (it is about to arrive anyway) — decisions are
        // never half-delivered.
        enforce_deadline = false;
        continue;
      }
      sh.done_cv.wait_for(
          sh.mu, std::chrono::duration_cast<std::chrono::nanoseconds>(
                     deadline_tp - now));
    }
  }
  if (timed_out) {
    metrics.timed_out.inc();
    if (config_.heuristic_fallback) metrics.fallbacks.inc();
    return degraded_answer(env, DecideStatus::kTimedOut);
  }
  metrics.ok.inc();
  return DecideResult{req->action, DecideStatus::kOk, false};
}

void PolicyServer::swap_policy(
    std::unique_ptr<const core::DecimaAgent> policy) {
  if (!policy) return;
  // The retired snapshot leaves the lock scope before it dies: in-flight
  // batches still pin it, and ~DecimaAgent under mu_ would stall dispatch.
  std::shared_ptr<const core::DecimaAgent> retired;
  {
    util::MutexLock lk(mu_);
    retired = std::move(policy_);
    policy_ = std::move(policy);
    ++snapshot_swaps_;
  }
  ServeMetrics::get().snapshot_swaps.inc();
}

bool PolicyServer::swap_policy_from_checkpoint(const std::string& path) {
  std::unique_ptr<const core::DecimaAgent> policy =
      io::load_policy_agent(path);
  if (!policy) return false;
  swap_policy(std::move(policy));
  return true;
}

void PolicyServer::bounded_batch_wait(Shard& sh) {
  if (config_.batch_wait_us <= 0) return;
  // The batch-growth target: every open session on the shard could submit
  // one request, capped by max_batch. Recomputed each wakeup — sessions may
  // open/close while we wait (close_session notifies work_cv for exactly
  // this reason).
  std::size_t target = static_cast<std::size_t>(sh.open_sessions);
  if (config_.max_batch > 0) {
    target = std::min(target, static_cast<std::size_t>(config_.max_batch));
  }
  // A lone session (or a raw-API shard with no session registry) gains
  // nothing from waiting; a ring already at target depth dispatches now.
  if (target <= 1 || sh.ring.size() >= target) return;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::microseconds(config_.batch_wait_us);
  while (!sh.stopping && sh.ring.size() < target) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    sh.work_cv.wait_for(
        sh.mu,
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now));
    target = static_cast<std::size_t>(sh.open_sessions);
    if (config_.max_batch > 0) {
      target = std::min(target, static_cast<std::size_t>(config_.max_batch));
    }
    if (target <= 1) break;
  }
  if (obs::metrics_enabled()) {
    sh.m_batch_wait_us->observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
}

void PolicyServer::dispatch_loop(Shard& sh) {
  ServeMetrics& metrics = ServeMetrics::get();
  for (;;) {
    {
      util::MutexLock lk(sh.mu);
      while (!sh.stopping && sh.ring.empty()) sh.work_cv.wait(sh.mu);
      if (sh.stopping && sh.ring.empty()) return;  // drained and answered
      bounded_batch_wait(sh);
    }

    // Claim lock-free: pop up to max_batch entries, skipping requests their
    // sessions abandoned on deadline expiry (the CAS decides each race
    // exactly once; dropping the popped shared_ptr frees an abandoned
    // request).
    std::vector<std::shared_ptr<Request>> batch;
    const std::size_t cap =
        config_.max_batch > 0 ? static_cast<std::size_t>(config_.max_batch)
                              : std::numeric_limits<std::size_t>::max();
    std::size_t popped = 0;
    std::shared_ptr<Request> r;
    while (batch.size() < cap && sh.ring.try_pop(r)) {
      ++popped;
      int expected = Request::kQueued;
      if (r->state.compare_exchange_strong(expected, Request::kClaimed,
                                           std::memory_order_acq_rel)) {
        batch.push_back(std::move(r));
      }
      r.reset();
    }
    if (batch.empty()) {
      // Everything popped had been abandoned; the freed slots may unblock a
      // producer waiting on ring space.
      if (popped > 0) sh.done_cv.notify_all();
      continue;
    }

    // Pin this batch's snapshot: swap_policy may publish a new one while we
    // score unlocked, and the whole batch must answer from one policy.
    std::shared_ptr<const core::DecimaAgent> policy;
    {
      util::MutexLock lk(mu_);
      policy = policy_;
    }

    // Batch-assembly observability: how long each claimed request sat
    // queued, and the coalesced batch shape — globally and per shard.
    if (obs::metrics_enabled()) {
      const auto now = std::chrono::steady_clock::now();
      for (const std::shared_ptr<Request>& p : batch) {
        if (p->enqueue_timed) {
          metrics.queue_wait_us.observe(
              std::chrono::duration<double, std::micro>(now - p->enqueue_tp)
                  .count());
        }
      }
      metrics.batch_size.observe(static_cast<double>(batch.size()));
      metrics.batches.inc();
      sh.m_batch_size->observe(static_cast<double>(batch.size()));
      sh.m_queue_depth->set(static_cast<double>(sh.ring.size()));
    }

    // Inference runs unlocked: the waiting session threads are blocked until
    // their request is marked done, so their envs cannot change under us.
    std::vector<sim::Action> actions;
    {
      obs::Span batch_span(obs::names::kSpanServeBatch, "serve");
      obs::ScopedLatencyUs infer_latency(metrics.batch_infer_us);
      if (config_.cross_session_batching && batch.size() > 1) {
        std::vector<const sim::ClusterEnv*> envs;
        std::vector<gnn::EmbeddingCache*> caches;
        envs.reserve(batch.size());
        caches.reserve(batch.size());
        for (const std::shared_ptr<Request>& p : batch) {
          envs.push_back(p->env);
          caches.push_back(p->cache);
        }
        actions = policy->decide_batch(envs, caches);
      } else {
        // Sequential reference path, and the singleton fast path of batched
        // mode: decide() is bit-identical to a one-element decide_batch()
        // without the batch-assembly overhead.
        actions.reserve(batch.size());
        for (const std::shared_ptr<Request>& p : batch) {
          actions.push_back(policy->decide(*p->env, p->cache));
        }
      }
    }

    {
      util::MutexLock lk(sh.mu);
      sh.st.decisions += batch.size();
      sh.st.batches += 1;
      sh.st.max_batch_size = std::max(
          sh.st.max_batch_size, static_cast<std::uint64_t>(batch.size()));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->action = actions[i];
        batch[i]->state.store(Request::kDone, std::memory_order_release);
      }
    }
    sh.m_decisions->inc(static_cast<std::uint64_t>(batch.size()));
    sh.done_cv.notify_all();
  }
}

ServeStats PolicyServer::stats() const {
  ServeStats s;
  {
    util::MutexLock lk(mu_);
    s.snapshot_swaps = snapshot_swaps_;
  }
  for (const auto& sh : shards_) {
    util::MutexLock lk(sh->mu);
    s.decisions += sh->st.decisions;
    s.batches += sh->st.batches;
    s.max_batch_size = std::max(s.max_batch_size, sh->st.max_batch_size);
    s.rejections += sh->st.rejections;
    s.timeouts += sh->st.timeouts;
    s.fallbacks += sh->st.fallbacks;
    s.stopped_answers += sh->st.stopped_answers;
    s.max_queue_depth = std::max(s.max_queue_depth, sh->st.max_queue_depth);
  }
  s.mean_batch_size = s.batches > 0 ? static_cast<double>(s.decisions) /
                                          static_cast<double>(s.batches)
                                    : 0.0;
  return s;
}

ServeStats PolicyServer::shard_stats(int shard) const {
  Shard& sh = *shards_.at(static_cast<std::size_t>(shard));
  util::MutexLock lk(sh.mu);
  ServeStats s = sh.st;
  s.mean_batch_size = s.batches > 0 ? static_cast<double>(s.decisions) /
                                          static_cast<double>(s.batches)
                                    : 0.0;
  return s;
}

std::shared_ptr<const core::DecimaAgent> PolicyServer::policy() const {
  util::MutexLock lk(mu_);
  return policy_;
}

SessionResult run_session(PolicyServer& server, const sim::EnvConfig& env,
                          const std::vector<workload::ArrivingJob>& jobs,
                          sim::Time until) {
  sim::ClusterEnv cluster(env);
  workload::load(cluster, jobs);
  ServedScheduler sched(server);
  cluster.run(sched, until);

  SessionResult result;
  result.avg_jct = cluster.avg_jct();
  result.end_time = cluster.now();
  result.completed = static_cast<int>(cluster.jcts().size());
  result.decisions = sched.decisions();
  result.degradation = sched.degradation();
  result.cache = sched.embed_cache_stats();
  return result;
}

}  // namespace decima::serve
