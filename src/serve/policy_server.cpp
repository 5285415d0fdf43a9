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

}  // namespace

void ServeConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ServeConfig: " + what);
  };
  if (shards < 1) fail("shards must be >= 1 (0 shards would serve nothing)");
  if (shards > 1024) fail("shards > 1024: more dispatchers than plausible");
  if (max_batch < 0) fail("max_batch must be >= 0 (0 = drain the queue)");
  if (max_queue < 0) fail("max_queue must be >= 0 (0 = unbounded)");
  if (batch_wait_us < 0) {
    fail("batch_wait_us must be >= 0 (0 = immediate dispatch)");
  }
  if (!(deadline >= 0.0) || !std::isfinite(deadline)) {
    fail("deadline must be a finite number of seconds >= 0");
  }
  if (max_queue > 0 && max_batch > max_queue) {
    fail("max_batch exceeds max_queue: a full batch could never assemble "
         "behind the per-shard admission bound");
  }
}

PolicyServer::PolicyServer(std::unique_ptr<const core::DecimaAgent> policy,
                           ServeConfig config)
    : config_(config), policy_(std::move(policy)) {
  config_.validate();
  if (!policy_) {
    throw std::invalid_argument("PolicyServer: null policy snapshot");
  }
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    auto sh = std::make_unique<Shard>();
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
  {
    util::MutexLock lk(sh.mu);
    ++sh.open_sessions;
  }
  return Session(this, id, shard_idx);
}

void PolicyServer::close_session(const Session& session) {
  Shard& sh = *shards_[static_cast<std::size_t>(session.shard_)];
  {
    util::MutexLock lk(sh.mu);
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
    cache_ = std::move(other.cache_);
    other.server_ = nullptr;
  }
  return *this;
}

void Session::close() {
  if (server_ == nullptr) return;
  server_->close_session(*this);
  server_ = nullptr;
  cache_.reset();
}

const gnn::EmbeddingCacheStats& Session::cache_stats() const {
  static const gnn::EmbeddingCacheStats kEmpty{};
  return cache_ != nullptr ? cache_->stats() : kEmpty;
}

DecideResult PolicyServer::degraded_answer(const sim::ClusterEnv& env,
                                           DecideStatus status) {
  // SJF-CP is stateless, cheap (no GNN), and the strongest single heuristic
  // on average-JCT (§7.2) — the natural degraded-mode policy.
  sched::SjfCpScheduler fallback;
  return DecideResult{fallback.schedule(env), status, true};
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
  // Lives in this frame: the dispatcher touches it only between claim and
  // done, and a claimed request is always awaited (Request, header).
  Request req;
  req.env = &env;
  req.cache = own ? session.cache_.get() : nullptr;
  if (obs::metrics_enabled()) {
    req.enqueue_tp = std::chrono::steady_clock::now();
    req.enqueue_timed = true;
  }
  const std::size_t max_queue = static_cast<std::size_t>(config_.max_queue);
  bool rejected = false;
  bool stopped = false;
  {
    util::MutexLock lk(sh.mu);
    if (sh.stopping) {
      ++sh.st.stopped_answers;
      stopped = true;
    } else if (max_queue > 0 && sh.queue.size() >= max_queue) {
      // Backpressure: bounce instead of queueing unboundedly; the request
      // is answered below by the (lock-free) heuristic and never reaches
      // the dispatcher.
      ++sh.st.rejections;
      ++sh.st.fallbacks;
      rejected = true;
    } else {
      sh.queue.push_back(&req);
      sh.st.max_queue_depth = std::max(
          sh.st.max_queue_depth, static_cast<std::uint64_t>(sh.queue.size()));
    }
  }
  if (stopped) {
    metrics.stopped.inc();
    return DecideResult{sim::Action::none(), DecideStatus::kStopped, false};
  }
  if (rejected) {
    metrics.rejected.inc();
    metrics.fallbacks.inc();
    return degraded_answer(env, DecideStatus::kRejected);
  }

  sh.work_cv.notify_one();
  const bool has_deadline = config_.deadline > 0.0;
  const auto deadline_tp =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(config_.deadline));
  bool timed_out = false;
  {
    util::MutexLock lk(sh.mu);
    while (!req.done) {
      // A claimed request MUST be awaited (its answer is about to arrive
      // anyway) — decisions are never half-delivered.
      if (!has_deadline || req.claimed) {
        sh.done_cv.wait(sh.mu);
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline_tp) {
        // Still unclaimed, so still queued: withdraw it, freeing its
        // max_queue slot at once, and answer from the fallback.
        sh.queue.erase(std::find(sh.queue.begin(), sh.queue.end(), &req));
        ++sh.st.timeouts;
        ++sh.st.fallbacks;
        timed_out = true;
        break;
      }
      sh.done_cv.wait_for(
          sh.mu, std::chrono::duration_cast<std::chrono::nanoseconds>(
                     deadline_tp - now));
    }
  }
  if (timed_out) {
    metrics.timed_out.inc();
    metrics.fallbacks.inc();
    return degraded_answer(env, DecideStatus::kTimedOut);
  }
  metrics.ok.inc();
  return DecideResult{req.action, DecideStatus::kOk, false};
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
  // A queue already at target depth dispatches now. The dispatcher calls
  // this only with a request queued, so this also returns for a lone
  // session, which gains nothing from waiting.
  if (sh.queue.size() >= target) return;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::microseconds(config_.batch_wait_us);
  while (!sh.stopping && sh.queue.size() < target) {
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
  const std::size_t cap =
      config_.max_batch > 0 ? static_cast<std::size_t>(config_.max_batch)
                            : std::numeric_limits<std::size_t>::max();
  std::vector<Request*> batch;
  for (;;) {
    batch.clear();
    std::size_t depth_left = 0;
    {
      util::MutexLock lk(sh.mu);
      while (!sh.stopping && sh.queue.empty()) sh.work_cv.wait(sh.mu);
      if (sh.stopping && sh.queue.empty()) return;  // drained and answered
      bounded_batch_wait(sh);
      // Claim up to max_batch requests in the same critical section: from
      // here on their sessions wait for the answer instead of withdrawing.
      while (batch.size() < cap && !sh.queue.empty()) {
        Request* r = sh.queue.front();
        sh.queue.pop_front();
        r->claimed = true;
        batch.push_back(r);
      }
      depth_left = sh.queue.size();
    }
    // Every request withdrew during the bounded wait.
    if (batch.empty()) continue;

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
      for (const Request* p : batch) {
        if (p->enqueue_timed) {
          metrics.queue_wait_us.observe(
              std::chrono::duration<double, std::micro>(now - p->enqueue_tp)
                  .count());
        }
      }
      metrics.batch_size.observe(static_cast<double>(batch.size()));
      metrics.batches.inc();
      sh.m_batch_size->observe(static_cast<double>(batch.size()));
      sh.m_queue_depth->set(static_cast<double>(depth_left));
    }

    // Inference runs unlocked: the waiting session threads are blocked until
    // their request is marked done, so their envs cannot change under us.
    std::vector<sim::Action> actions;
    {
      obs::Span batch_span(obs::names::kSpanServeBatch, "serve");
      obs::ScopedLatencyUs infer_latency(metrics.batch_infer_us);
      std::vector<const sim::ClusterEnv*> envs;
      std::vector<gnn::EmbeddingCache*> caches;
      envs.reserve(batch.size());
      caches.reserve(batch.size());
      for (const Request* p : batch) {
        envs.push_back(p->env);
        caches.push_back(p->cache);
      }
      actions = policy->decide_batch(envs, caches);
    }

    {
      util::MutexLock lk(sh.mu);
      sh.st.decisions += batch.size();
      sh.st.batches += 1;
      sh.st.max_batch_size = std::max(
          sh.st.max_batch_size, static_cast<std::uint64_t>(batch.size()));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->action = actions[i];
        batch[i]->done = true;
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
