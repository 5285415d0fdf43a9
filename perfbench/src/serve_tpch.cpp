// serve_tpch: a closed serving loop. A cluster's scheduling event blocks on
// its decision, so each of 3 session threads waits for its reply before the
// simulation goes on; with the server's one dispatcher that is 4 threads.
// The only workload that loads serve (queue, handoff, cross-session
// batching) and the inference-time embedding cache.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>
#include <unordered_map>

#include "gnn/features.h"
#include "gnn/graph_embedding.h"
#include "harness.h"
#include "io/checkpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/policy_server.h"
#include "sim/validate.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using decima::serve::PolicyServer;
using decima::serve::ServedScheduler;
using decima::sim::ClusterEnv;

constexpr int kSessions = 3;
constexpr int kExecutors = 50;
constexpr int kJobs = 60;
constexpr double kMeanIat = 30.0;  // §7.2's continuous TPC-H workload
// Distinct episodes generated at set-up, taken in order (and again from the
// start when a long run uses them up). Episodes differ up to tenfold in
// the work per decision, so a run serves many distinct ones: about 70 in
// 30 s.
constexpr int kEpisodePool = 96;
// The determinism figures (served decisions, average JCT) cover episodes
// [0, kJctEpisodes), which every run completes.
constexpr int kJctEpisodes = 12;
constexpr int kSetupRepeats = 3;
// Share of the decision cycles the throughput is taken over: the fastest
// 99%. The slowest 1% are the cycles a stall of the shared host lands in
// (it runs another tenant on one of the four vCPUs the closed loop needs),
// and a handful of such cycles moves the mean by tens of percent.
constexpr double kKeptCycles = 0.99;
// The served policy: a fresh agent, so serving numbers do not depend on
// training code.
constexpr std::uint64_t kPolicySeed = 42;

enum Stream : std::uint64_t { kJobStream = 1, kEnvStream = 2, kWarmupStream = 3 };

using Jobs = std::vector<decima::workload::ArrivingJob>;

decima::core::AgentConfig policy_config(const Options& opts) {
  decima::core::AgentConfig c;
  c.seed = kPolicySeed;
  if (opts.probe == "embed_cache_off") c.embed_cache = false;
  return c;
}

decima::sim::EnvConfig env_config(std::uint64_t seed) {
  decima::sim::EnvConfig c;
  c.num_executors = kExecutors;
  c.seed = seed;
  return c;
}

bool same_action(const decima::sim::Action& a, const decima::sim::Action& b) {
  return a.node == b.node && a.limit == b.limit && a.exec_class == b.exec_class;
}

// Benchmark-side copies of the inference layers, called on every served
// state in traced runs: the direct decision on the pinned policy, feature
// extraction, and a cached embedding owned by the benchmark.
class Shadow {
 public:
  Shadow(std::shared_ptr<const decima::core::DecimaAgent> policy,
         const decima::gnn::GraphEmbedding& embedding,
         std::uint64_t embedding_version)
      : policy_(std::move(policy)),
        embedding_(embedding),
        embedding_version_(embedding_version) {}

  // Spans core.decide, gnn.extract and gnn.embed_cached; returns whether
  // the direct decision equals the served one.
  bool probe(const ClusterEnv& env, const decima::sim::Action& served,
             SpanLog* log, std::uint64_t id) {
    decima::sim::Action direct;
    {
      ScopedSpan span(log, "core.decide", id);
      direct = policy_->decide(env, &decide_cache_);
    }
    std::vector<decima::gnn::JobGraph> graphs;
    {
      ScopedSpan span(log, "gnn.extract", id);
      graphs = decima::gnn::extract_graphs(env, policy_->config().features);
    }
    {
      ScopedSpan span(log, "gnn.embed_cached", id);
      embed_cache_.ensure_param_version(embedding_version_);
      decima::nn::Tape tape(false);
      embedding_.embed_cached(tape, graphs, embed_cache_);
    }
    return same_action(direct, served);
  }

 private:
  std::shared_ptr<const decima::core::DecimaAgent> policy_;
  decima::gnn::EmbeddingCache decide_cache_;
  const decima::gnn::GraphEmbedding& embedding_;
  std::uint64_t embedding_version_;
  decima::gnn::EmbeddingCache embed_cache_;
};

// The timed window; a decision counts when it finished inside it. An
// untimed pass has an empty window.
struct Window {
  Clock::time_point start;
  Clock::time_point end;
  bool contains(Clock::time_point t) const { return t >= start && t < end; }
};

// What one session thread saw during one pass.
struct SessionPass {
  // Inside the window: latency of the kOk decisions, kOk and other
  // decisions.
  std::vector<double> latency_us;
  // Inside the window: a session's decision cycles, each from one request
  // to its next request in the same episode (the session's simulation work
  // plus the served latency).
  std::vector<double> cycle_us;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t decisions = 0;
  std::vector<std::pair<std::size_t, double>> jct;  // (episode, avg JCT)
  std::vector<std::pair<std::size_t, std::uint64_t>> episode_decisions;
  std::size_t episodes = 0;
  std::uint64_t mismatches = 0;
  // With a HostSpeed: kernel samples before the session's first episode and
  // after each of its episodes.
  std::vector<double> host_ns;
  Clock::time_point end;
  std::exception_ptr error;
};

// The session's scheduler: forwards to its ServedScheduler and records how
// the call resolved and how long the session waited.
class SessionScheduler : public decima::sim::Scheduler {
 public:
  SessionScheduler(ServedScheduler& served, SessionPass& out,
                   const Window& window, SpanLog* log, Shadow* shadow,
                   std::uint64_t session)
      : served_(served),
        out_(out),
        window_(window),
        log_(log),
        shadow_(shadow),
        session_(session) {}

  decima::sim::Action schedule(const ClusterEnv& env) override {
    const std::uint64_t id = (session_ << 40) | out_.decisions++;
    ScopedSpan request(log_, "bench.request", id);
    const std::uint64_t ok_before = served_.degradation().ok;
    const auto t0 = Clock::now();
    if (last_request_ && window_.contains(t0)) {
      out_.cycle_us.push_back(us_between(*last_request_, t0));
    }
    last_request_ = t0;
    decima::sim::Action a;
    {
      ScopedSpan span(log_, "serve.decide", id);
      a = served_.schedule(env);
    }
    const auto t1 = Clock::now();
    if (window_.contains(t1)) {
      if (served_.degradation().ok != ok_before) {
        ++out_.ok;
        out_.latency_us.push_back(us_between(t0, t1));
      } else {
        ++out_.failed;
      }
    }
    if (shadow_ != nullptr && !shadow_->probe(env, a, log_, id)) {
      ++out_.mismatches;
    }
    return a;
  }
  std::string name() const override { return "perfbench-session"; }
  // A new episode: its first request starts no cycle.
  void begin_episode() { last_request_.reset(); }

 private:
  ServedScheduler& served_;
  SessionPass& out_;
  const Window& window_;
  SpanLog* log_;
  Shadow* shadow_;
  std::uint64_t session_;
  std::optional<Clock::time_point> last_request_;
};

struct Inputs {
  std::vector<Jobs> pool;
  std::vector<Jobs> warmup;  // one per session
};

// The timed episodes from `seed`; the warm-up episodes, the same on every
// seed.
Inputs generate(std::uint64_t seed) {
  Inputs in;
  for (int i = 0; i < kEpisodePool; ++i) {
    in.pool.push_back(tpch_poisson(
        derive_seed(seed, kJobStream, static_cast<std::uint64_t>(i)), kJobs,
        kMeanIat));
  }
  for (int i = 0; i < kSessions; ++i) {
    in.warmup.push_back(tpch_poisson(
        derive_seed(kWarmupSeed, kWarmupStream, static_cast<std::uint64_t>(i)),
        kJobs, kMeanIat));
  }
  return in;
}

// Runs one served episode to completion and checks its trace.
void run_episode(const Jobs& jobs, std::uint64_t env_seed, std::size_t index,
                 SessionScheduler& sched, SpanLog* log, SessionPass& out) {
  ScopedSpan root(log, "bench.episode", index);
  std::optional<ClusterEnv> env;
  {
    ScopedSpan span(log, "sim.load", index);
    env.emplace(env_config(env_seed));
    decima::workload::load(*env, jobs);
  }
  const std::uint64_t before = out.decisions;
  sched.begin_episode();
  {
    ScopedSpan span(log, "sim.run", index);
    env->run(sched);
  }
  ScopedSpan span(log, "sim.validate", index);
  std::string err;
  check(decima::sim::validate_trace(*env, &err),
        "serve_tpch episode " + std::to_string(index) +
            " fails validate_trace: " + err);
  check(env->all_done(), "serve_tpch episode " + std::to_string(index) +
                             " left jobs unfinished");
  ++out.episodes;
  if (index < static_cast<std::size_t>(kJctEpisodes)) {
    out.jct.emplace_back(index, env->avg_jct());
    out.episode_decisions.emplace_back(index, out.decisions - before);
  }
}

// A server and its sessions, after generation, policy load and warm-up.
struct Setup {
  Inputs inputs;
  std::unique_ptr<PolicyServer> server;
  std::vector<std::unique_ptr<ServedScheduler>> sessions;
  double generate_s = 0.0;
  double load_policy_s = 0.0;
  double total_s = 0.0;
};

void join_all(std::vector<std::thread>& threads,
              std::vector<SessionPass>& passes) {
  for (std::thread& t : threads) t.join();
  for (const SessionPass& p : passes) {
    if (p.error) std::rethrow_exception(p.error);
  }
}

// One pass of all sessions over the shared episode list. Timed passes stop
// starting episodes at the window's end (episodes [0, kJctEpisodes) always
// run); `exact` > 0 runs exactly episodes [0, exact) instead. With a
// HostSpeed, every session samples it between its episodes.
std::vector<SessionPass> run_pass(Setup& s, std::uint64_t seed,
                                  double seconds, std::size_t exact,
                                  std::vector<std::unique_ptr<SpanLog>>* logs,
                                  const decima::gnn::GraphEmbedding* embedding,
                                  std::uint64_t embedding_version,
                                  const HostSpeed* host, Window* window) {
  window->start = Clock::now() + std::chrono::milliseconds(5);
  window->end =
      exact > 0 ? window->start
                : window->start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::vector<SessionPass> passes(kSessions);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      SessionPass& out = passes[static_cast<std::size_t>(t)];
      try {
        SpanLog* log = logs != nullptr ? (*logs)[static_cast<std::size_t>(t)].get()
                                       : nullptr;
        std::optional<Shadow> shadow;
        if (embedding != nullptr) {
          shadow.emplace(s.server->policy(), *embedding, embedding_version);
        }
        SessionScheduler sched(*s.sessions[static_cast<std::size_t>(t)], out,
                               *window, log,
                               shadow ? &*shadow : nullptr,
                               static_cast<std::uint64_t>(t));
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (host != nullptr) out.host_ns.push_back(host->sample_ns());
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          const bool done =
              exact > 0 ? i >= exact
                        : i >= static_cast<std::size_t>(kJctEpisodes) &&
                              Clock::now() >= window->end;
          if (done) break;
          run_episode(s.inputs.pool[i % s.inputs.pool.size()],
                      derive_seed(seed, kEnvStream, i), i, sched, log, out);
          if (host != nullptr) out.host_ns.push_back(host->sample_ns());
        }
      } catch (...) {
        out.error = std::current_exception();
      }
      out.end = Clock::now();
    });
  }
  std::this_thread::sleep_until(window->start);
  go.store(true, std::memory_order_release);
  join_all(threads, passes);
  return passes;
}

Setup set_up(const Options& opts) {
  Setup s;
  const auto t0 = Clock::now();
  s.inputs = generate(opts.seed);
  const auto t1 = Clock::now();
  const std::string path = work_file(opts, ".policy");
  {
    decima::core::DecimaAgent fresh(policy_config(opts));
    check(decima::io::save_policy(fresh, path), "cannot write " + path);
  }
  const auto t2 = Clock::now();
  s.server = PolicyServer::from_checkpoint(path);
  const auto t3 = Clock::now();
  std::remove(path.c_str());
  check(s.server != nullptr, "PolicyServer::from_checkpoint failed on " + path);
  for (int i = 0; i < kSessions; ++i) {
    s.sessions.push_back(std::make_unique<ServedScheduler>(*s.server));
  }
  // Warm-up: every session serves one episode of its own, the same on
  // every seed.
  const Window no_window;
  std::vector<SessionPass> passes(kSessions);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      const auto tt = static_cast<std::size_t>(t);
      try {
        SessionScheduler sched(*s.sessions[tt], passes[tt], no_window,
                               nullptr, nullptr, static_cast<std::uint64_t>(t));
        run_episode(s.inputs.warmup[tt],
                    derive_seed(kWarmupSeed, kEnvStream, tt),
                    static_cast<std::size_t>(kJctEpisodes) + tt, sched, nullptr,
                    passes[tt]);
      } catch (...) {
        passes[tt].error = std::current_exception();
      }
    });
  }
  join_all(threads, passes);
  const auto t4 = Clock::now();
  s.generate_s = seconds_between(t0, t1);
  s.load_policy_s = seconds_between(t2, t3);
  s.total_s = seconds_between(t0, t4);
  return s;
}

// Output checks that hold for a server whose sessions are all idle.
void check_books(const Setup& s) {
  std::uint64_t ok = 0;
  for (const auto& session : s.sessions) {
    check(session->degradation().answered() == session->decisions(),
          "a session's answered() differs from the queries it issued");
    ok += session->degradation().ok;
  }
  check(s.server->stats().decisions == ok,
        "ServeStats::decisions differs from the sessions' kOk count");
}

struct CacheTotals {
  std::uint64_t events = 0, seen = 0, reused = 0, nodes = 0, recomputed = 0;
};
CacheTotals cache_totals(const Setup& s) {
  CacheTotals c;
  for (const auto& session : s.sessions) {
    const auto& st = session->embed_cache_stats();
    c.events += st.events;
    c.seen += st.graphs_seen;
    c.reused += st.graphs_reused;
    c.nodes += st.nodes_total;
    c.recomputed += st.nodes_recomputed;
  }
  return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void run_serve_tpch(const Options& opts, Report& report) {
  // Set-up, repeated; the median repetition, scaled to the reference host
  // speed, is setup_s.
  const HostSpeed host(HostSpeed::Kernel::kRingWalk);
  std::vector<double> setup_s, raw_setup_s, generate_s, load_policy_s;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (s.server) {
      check_books(s);
      s.sessions.clear();  // sessions close on the server they name
      s.server.reset();
    }
    const double host_before = host.sample_ns();
    s = set_up(opts);
    raw_setup_s.push_back(s.total_s);
    setup_s.push_back(s.total_s /
                      host.slowdown({host_before, host.sample_ns()}));
    generate_s.push_back(s.generate_s);
    load_policy_s.push_back(s.load_policy_s);
  }

  Window window;
  const double seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<SessionPass> timed =
      run_pass(s, opts.seed, seconds, 0, nullptr, nullptr, 0, &host, &window);
  check_books(s);

  // Across sessions, inside the window: decisions, their latency and the
  // decision cycles; and the host slowdown the sessions sampled between
  // their episodes.
  std::vector<double> latency_us, cycle_us, host_ns;
  std::uint64_t ok = 0, failed = 0;
  for (const SessionPass& p : timed) {
    latency_us.insert(latency_us.end(), p.latency_us.begin(),
                      p.latency_us.end());
    cycle_us.insert(cycle_us.end(), p.cycle_us.begin(), p.cycle_us.end());
    host_ns.insert(host_ns.end(), p.host_ns.begin(), p.host_ns.end());
    ok += p.ok;
    failed += p.failed;
  }
  const double decisions_per_s = static_cast<double>(ok) / seconds;
  // Each session turns one decision cycle at a time, so the sessions
  // together decide kSessions per mean cycle.
  const double cycle_decisions_per_s =
      kSessions * 1e6 / lower_mean(cycle_us, kKeptCycles);
  const double decision_p50_us = decima::percentile(latency_us, 50);
  const double slow = host.slowdown(host_ns);

  std::vector<std::pair<std::size_t, double>> jct;
  std::vector<std::pair<std::size_t, std::uint64_t>> first_decisions;
  std::size_t episodes = 0;
  Clock::time_point end = window.start;
  for (const SessionPass& p : timed) {
    jct.insert(jct.end(), p.jct.begin(), p.jct.end());
    first_decisions.insert(first_decisions.end(), p.episode_decisions.begin(),
                           p.episode_decisions.end());
    episodes += p.episodes;
    end = std::max(end, p.end);
  }
  std::sort(jct.begin(), jct.end());
  check(jct.size() == static_cast<std::size_t>(kJctEpisodes),
        "serve_tpch did not complete its first episodes");
  std::vector<double> jcts;
  std::uint64_t first_k_decisions = 0;
  for (const auto& [i, v] : jct) jcts.push_back(v);
  for (const auto& [i, n] : first_decisions) first_k_decisions += n;
  report.attempted = ok + failed;
  report.failed = failed;
  report.note("serve_tpch: episodes=" + std::to_string(episodes) +
              " served_decisions_in_window=" + std::to_string(ok) +
              " failed_share=" + format_double(ratio(failed, ok + failed)) +
              " decision_p99_us=" +
              format_double(decima::percentile(latency_us, 99)) +
              " peak_rss_mb=" + format_double(peak_rss_mb()));
  report.note("serve_tpch: as measured: setup_s=" +
              format_double(decima::percentile(raw_setup_s, 50)) +
              " decisions_per_s=" + format_double(decisions_per_s) +
              " cycle_decisions_per_s=" + format_double(cycle_decisions_per_s) +
              " decision_p50_us=" + format_double(decision_p50_us) +
              " host_slowdown=" + format_double(slow));
  report.note("serve_tpch: first " + std::to_string(kJctEpisodes) +
              " episodes: served_decisions=" +
              std::to_string(first_k_decisions) +
              " jct_checksum=" + std::to_string(checksum(jcts)) +
              " avg_jct_s=" + format_double(decima::mean_of(jcts)));

  if (!opts.trace) {
    report.metric("setup_s", decima::percentile(setup_s, 50), "s");
    report.metric("throughput_per_s", cycle_decisions_per_s * slow, "1/s");
    report.metric("decision_p50_us", decision_p50_us / slow, "us");
    return;
  }

  // Traced pass: the same episodes again, with obs metrics on, spans around
  // every layer call, and every served action checked against decide().
  const std::size_t untraced_episodes = episodes;
  const double untraced_wall = seconds_between(window.start, end);
  const CacheTotals cache0 = cache_totals(s);
  const decima::serve::ServeStats stats0 = s.server->stats();

  const decima::core::AgentConfig& pc = s.server->policy()->config();
  decima::gnn::GnnConfig gc;
  gc.feat_dim = pc.features.dim();
  gc.emb_dim = pc.emb_dim;
  gc.two_level_aggregation = pc.two_level_aggregation;
  gc.batched = pc.batched_inference;
  decima::Rng rng(kPolicySeed);
  decima::gnn::GraphEmbedding embedding(gc, rng);
  const std::uint64_t version = embedding.param_set().version();

  std::vector<std::unique_ptr<SpanLog>> logs;
  const auto origin = Clock::now();
  for (int t = 0; t < kSessions; ++t) {
    logs.push_back(std::make_unique<SpanLog>(t, origin));
  }
  decima::obs::Registry::instance().reset();
  decima::obs::set_metrics_enabled(true);
  Window traced_window;
  const std::vector<SessionPass> traced =
      run_pass(s, opts.seed, 0.0, untraced_episodes, &logs, &embedding,
               version, nullptr, &traced_window);
  const Clock::time_point tstart = traced_window.start;
  decima::obs::set_metrics_enabled(false);
  check_books(s);

  std::uint64_t mismatches = 0, traced_decisions = 0;
  double busy_s = 0.0, traced_wall = 0.0;
  for (const SessionPass& p : traced) {
    mismatches += p.mismatches;
    traced_decisions += p.decisions;
    busy_s += seconds_between(tstart, p.end);
    traced_wall = std::max(traced_wall, seconds_between(tstart, p.end));
  }
  report.note("serve_tpch traced: requests=" + std::to_string(traced_decisions) +
              " served_vs_direct_mismatches=" + std::to_string(mismatches));
  check(mismatches == 0, std::to_string(mismatches) +
                             " served actions differ from DecimaAgent::decide "
                             "on the same state");

  std::vector<const SpanLog*> views;
  for (const auto& log : logs) views.push_back(log.get());
  const std::string out = work_file(opts, ".trace.json");
  check(write_chrome_trace(out, views, 100000), "cannot write " + out);
  report.note("trace: " + out);
  const SelfTimes self = self_times(views);

  // Served minus direct latency of the same request.
  std::vector<double> overhead_us;
  for (const SpanLog* log : views) {
    std::unordered_map<std::uint64_t, double> served_us;
    for (const Span& sp : log->spans()) {
      const double us = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3;
      if (std::strcmp(sp.name, "serve.decide") == 0) {
        served_us[sp.id] = us;
      } else if (std::strcmp(sp.name, "core.decide") == 0) {
        overhead_us.push_back(served_us.at(sp.id) - us);
      }
    }
  }
  auto& registry = decima::obs::Registry::instance();
  const auto& queue_wait =
      registry.histogram(decima::obs::names::kServeQueueWaitUs);
  const auto& batch_infer =
      registry.histogram(decima::obs::names::kServeBatchInferUs);
  const decima::serve::ServeStats stats1 = s.server->stats();
  const CacheTotals cache1 = cache_totals(s);
  const auto batches = static_cast<double>(stats1.batches - stats0.batches);

  check(!overhead_us.empty() && queue_wait.count() > 0 && batch_infer.count() > 0,
        "the traced serve_tpch pass recorded no served request");
  report.metric("serve.overhead_p50_us", decima::percentile(overhead_us, 50), "us");
  report.metric("serve.overhead_p99_us", decima::percentile(overhead_us, 99), "us");
  report.metric("serve.queue_wait_p50_us", queue_wait.percentile(50), "us");
  report.metric("serve.queue_wait_p99_us", queue_wait.percentile(99), "us");
  report.metric("serve.batch_infer_p50_us", batch_infer.percentile(50), "us");
  report.metric("serve.batches", batches, "count");
  report.metric("serve.mean_batch_size",
                ratio(static_cast<double>(stats1.decisions - stats0.decisions),
                      batches),
                "count");
  report.metric("core.decide_p50_us",
                self.percentile("core.decide", 50), "us");
  report.metric("core.decide_p99_us",
                self.percentile("core.decide", 99), "us");
  report.metric("gnn.extract_p50_us",
                self.percentile("gnn.extract", 50), "us");
  report.metric("gnn.embed_cached_p50_us",
                self.percentile("gnn.embed_cached", 50), "us");
  report.metric("gnn.cache_hit_rate",
                ratio(static_cast<double>(cache1.reused - cache0.reused),
                      static_cast<double>(cache1.seen - cache0.seen)),
                "ratio");
  report.metric("gnn.recompute_share",
                ratio(static_cast<double>(cache1.recomputed - cache0.recomputed),
                      static_cast<double>(cache1.nodes - cache0.nodes)),
                "ratio");
  report.metric("gnn.nodes_per_decision",
                ratio(static_cast<double>(cache1.nodes - cache0.nodes),
                      static_cast<double>(cache1.events - cache0.events)),
                "count");
  report.metric("sim.client_per_decision_us",
                ratio(self.total_s("sim.run") * 1e6,
                      static_cast<double>(traced_decisions)),
                "us");
  report.metric("io.load_policy_s", decima::percentile(load_policy_s, 50), "s");
  report.metric("workload.generate_s", decima::percentile(generate_s, 50), "s");
  report.metric("trace.coverage", ratio(self.layer_seconds, busy_s), "ratio");
  report.metric("trace.wall_ratio", ratio(traced_wall, untraced_wall), "ratio");
}

}  // namespace perfbench
