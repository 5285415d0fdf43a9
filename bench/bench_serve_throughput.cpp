// Serving throughput (docs/serving.md): decisions/sec of the PolicyServer
// for 1-32 concurrent simulated cluster sessions, along two independent
// axes. (1) cross-session batched dispatch vs the sequential reference
// (ServeConfig::max_batch = 1, one request per inference), both with the
// embedding cache off — isolating what batching buys: all pending
// sessions' scheduling events embedded and scored as one levelized GNN +
// policy-head evaluation instead of one per session. The reference wakes
// every waiting session after each one-request batch (the shard's
// done_cv.notify_all()), so at 16 and 32 sessions it pays that wake storm
// once per request and the speedups there read higher than batching alone
// would make them. (2) the per-session incremental embedding cache
// (docs/incremental_embedding.md) on top of batched dispatch — isolating
// what caching buys a long-lived session stream. Decisions are bit-identical
// in every mode (tests/test_serve.cpp), so the ratios are pure throughput.
// Each row runs its arms as kPairs alternated rounds and reports the median
// of the per-round ratios, so one stalled pass cannot decide a ratio.
// Writes BENCH_serve.json.
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "gnn/embedding_cache.h"
#include "io/checkpoint.h"
#include "serve/policy_server.h"
#include "util/stats.h"

using namespace decima;

namespace {

// Rounds per row. Every round runs the sequential, batched and cached arms
// back to back, in an order that flips each round, so drift and warm-up
// reach every arm alike.
constexpr int kPairs = 5;

struct RunResult {
  double wall_seconds = 0.0;
  std::uint64_t decisions = 0;
  double mean_batch = 0.0;
  // End-to-end decide_with_status latency as the sessions saw it, merged
  // across session threads after the join (docs/observability.md).
  std::vector<double> latencies_us;
  // Aggregate per-session embedding-cache accounting; 0 when the policy
  // snapshot was exported with embed_cache off.
  double cache_hit_rate = 0.0;
  double decisions_per_sec() const {
    return static_cast<double>(decisions) / std::max(wall_seconds, 1e-12);
  }
  double latency_pct(double p) const {
    return percentile(latencies_us, p);
  }
};

// ServedScheduler plus a wall-clock stamp around every server query. The
// sample vector is session-owned and pre-sized, so timing adds two clock
// reads per decision and no locks or allocation to the measured loop.
class TimedServedScheduler : public sim::Scheduler {
 public:
  TimedServedScheduler(serve::PolicyServer& server,
                       std::vector<double>& samples_us)
      : sched_(server), samples_us_(samples_us) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    const auto t0 = std::chrono::steady_clock::now();
    sim::Action a = sched_.schedule(env);
    samples_us_.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return a;
  }
  std::string name() const override { return "Decima-served-timed"; }
  const gnn::EmbeddingCacheStats& embed_cache_stats() const {
    return sched_.embed_cache_stats();
  }

 private:
  serve::ServedScheduler sched_;
  std::vector<double>& samples_us_;
};

RunResult run_sessions(const std::string& ckpt, bool batching, int wait_us,
                       int sessions, const sim::EnvConfig& env,
                       const std::vector<std::vector<workload::ArrivingJob>>&
                           session_workloads) {
  serve::ServeConfig cfg;
  // The sequential reference scores one request per inference.
  cfg.max_batch = batching ? 0 : 1;
  // Adaptive bounded-wait batching (docs/serving.md): the batched rows run
  // with it on, so shallow-session rows coalesce full batches instead of
  // losing to the sequential reference on dispatch overhead. The sequential
  // reference itself always runs with 0 (waiting cannot help one-at-a-time
  // scoring).
  cfg.batch_wait_us = batching ? wait_us : 0;
  auto server = serve::PolicyServer::from_checkpoint(ckpt, cfg);
  if (!server) {
    std::cerr << "failed to load " << ckpt << "\n";
    std::exit(1);
  }
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(sessions));
  std::vector<gnn::EmbeddingCacheStats> cache_stats(
      static_cast<std::size_t>(sessions));
  for (auto& v : latencies) v.reserve(4096);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      const std::size_t ss = static_cast<std::size_t>(s);
      sim::ClusterEnv cluster(env);
      workload::load(cluster, session_workloads[ss]);
      TimedServedScheduler sched(*server, latencies[ss]);
      cluster.run(sched, sim::kInfTime);
      cache_stats[ss] = sched.embed_cache_stats();
    });
  }
  for (auto& t : threads) t.join();
  RunResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto stats = server->stats();
  r.decisions = stats.decisions;
  r.mean_batch = stats.mean_batch_size;
  std::uint64_t seen = 0, reused = 0;
  for (int s = 0; s < sessions; ++s) {
    const std::size_t ss = static_cast<std::size_t>(s);
    r.latencies_us.insert(r.latencies_us.end(), latencies[ss].begin(),
                          latencies[ss].end());
    seen += cache_stats[ss].graphs_seen;
    reused += cache_stats[ss].graphs_reused;
  }
  r.cache_hit_rate =
      seen == 0 ? 0.0
                : static_cast<double>(reused) / static_cast<double>(seen);
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Serving throughput (ROADMAP north star)",
      "PolicyServer decisions/sec vs concurrent session count, cross-session\n"
      "batched dispatch vs sequential scoring of the same request queue\n"
      "(writes BENCH_serve.json).");

  // The 50-node-DAG profiling family of BENCH_fig12/BENCH_train, sized per
  // session so a full sweep stays in CI budget. Decisions are identical in
  // both modes; only wall-clock differs.
  const int dag_jobs = env_int("DECIMA_SERVE_JOBS", 3);
  const int dag_nodes = env_int("DECIMA_SERVE_NODES", 30);
  // Bounded wait for the batched rows: long enough to catch the other
  // sessions' next queries (inter-query gaps are tens of µs of simulator
  // event processing), short against the ~ms inference itself.
  const int wait_us = env_int("DECIMA_SERVE_WAIT_US", 200);
  sim::EnvConfig env;
  env.num_executors = 10;

  // Policy checkpoints: a freshly initialized agent (throughput does not
  // care about training quality, and the weights round-trip bit-exactly
  // anyway), once with the embedding cache off (the batching comparison's
  // baseline policy) and once with it on.
  core::AgentConfig ac;
  ac.seed = 37;
  ac.embed_cache = false;
  core::DecimaAgent agent(ac);
  const std::string ckpt = "serve_bench_policy.ckpt";
  core::AgentConfig cached_ac = ac;
  cached_ac.embed_cache = true;
  core::DecimaAgent cached_agent(cached_ac);
  cached_agent.params().copy_values_from(agent.params());
  const std::string cached_ckpt = "serve_bench_policy_cached.ckpt";
  if (!io::save_policy(agent, ckpt)) {
    std::cerr << "cannot write " << ckpt << "\n";
    return 1;
  }
  if (!io::save_policy(cached_agent, cached_ckpt)) {
    std::cerr << "cannot write " << cached_ckpt << "\n";
    return 1;
  }
  std::cout << "policy checkpoint: " << ckpt << " ("
            << agent.num_parameters() << " params)\n\n";

  const std::vector<int> session_counts = {1, 2, 4, 8, 16, 32};
  const int max_sessions = session_counts.back();
  std::vector<std::vector<workload::ArrivingJob>> session_workloads;
  for (int s = 0; s < max_sessions; ++s) {
    session_workloads.push_back(workload::batched(bench::random_dag_jobs(
        dag_jobs, dag_nodes, 4000 + static_cast<std::uint64_t>(s))));
  }

  bench::BenchJson json("serve");
  json.set("bench", "serve_throughput");
  json.set("dag_jobs_per_session", static_cast<double>(dag_jobs));
  json.set("dag_nodes", static_cast<double>(dag_nodes));

  json.set("batch_wait_us", static_cast<double>(wait_us));
  json.set("rounds_per_row", static_cast<double>(kPairs));

  // Warm-up run (allocator + cache state), not measured.
  run_sessions(ckpt, /*batching=*/true, wait_us, 2, env, session_workloads);

  Table t({"sessions", "sequential [dec/s]", "batched [dec/s]", "speedup",
           "+embed cache [dec/s]", "cache speedup", "mean batch",
           "p50/p95/p99 [us]", "cache hit"});
  double speedup_at_max = 0.0;
  double cache_speedup_at_max = 0.0;
  double cache_hit_rate_at_max = 0.0;
  for (int sessions : session_counts) {
    auto run = [&](const std::string& policy, bool batching) {
      return run_sessions(policy, batching, wait_us, sessions, env,
                          session_workloads);
    };
    std::vector<double> seq_dps, bat_dps, cached_dps, mean_batch;
    std::vector<double> speedups, cache_speedups;
    RunResult bat;  // every batched round's latencies, pooled
    RunResult cached;
    for (int round = 0; round < kPairs; ++round) {
      RunResult s, b, c;
      if (round % 2 == 0) {
        s = run(ckpt, /*batching=*/false);
        b = run(ckpt, /*batching=*/true);
        c = run(cached_ckpt, /*batching=*/true);
      } else {
        c = run(cached_ckpt, /*batching=*/true);
        b = run(ckpt, /*batching=*/true);
        s = run(ckpt, /*batching=*/false);
      }
      seq_dps.push_back(s.decisions_per_sec());
      bat_dps.push_back(b.decisions_per_sec());
      cached_dps.push_back(c.decisions_per_sec());
      mean_batch.push_back(b.mean_batch);
      speedups.push_back(b.decisions_per_sec() /
                         std::max(s.decisions_per_sec(), 1e-12));
      cache_speedups.push_back(c.decisions_per_sec() /
                               std::max(b.decisions_per_sec(), 1e-12));
      bat.decisions = b.decisions;
      bat.latencies_us.insert(bat.latencies_us.end(), b.latencies_us.begin(),
                              b.latencies_us.end());
      cached = std::move(c);
    }
    const double speedup = percentile(speedups, 50.0);
    const double cache_speedup = percentile(cache_speedups, 50.0);
    const double batch = percentile(mean_batch, 50.0);
    speedup_at_max = speedup;
    cache_speedup_at_max = cache_speedup;
    cache_hit_rate_at_max = cached.cache_hit_rate;
    t.add_row({fmt_int(sessions), fmt(percentile(seq_dps, 50.0), 0),
               fmt(percentile(bat_dps, 50.0), 0), fmt(speedup, 2),
               fmt(percentile(cached_dps, 50.0), 0), fmt(cache_speedup, 2),
               fmt(batch, 2),
               fmt(bat.latency_pct(50.0), 0) + "/" +
                   fmt(bat.latency_pct(95.0), 0) + "/" +
                   fmt(bat.latency_pct(99.0), 0),
               fmt(cached.cache_hit_rate, 2)});
    std::cout << "sessions " << sessions << " per-round speedups:";
    for (double r : speedups) std::cout << " " << fmt(r, 3);
    std::cout << " | cache speedups:";
    for (double r : cache_speedups) std::cout << " " << fmt(r, 3);
    std::cout << "\n";
    const std::string key = "sessions" + std::to_string(sessions);
    json.set(key + "_sequential_dps", percentile(seq_dps, 50.0));
    json.set(key + "_batched_dps", percentile(bat_dps, 50.0));
    json.set(key + "_speedup", speedup);
    json.set(key + "_cached_dps", percentile(cached_dps, 50.0));
    json.set(key + "_cache_speedup", cache_speedup);
    json.set(key + "_mean_batch", batch);
    json.set(key + "_decisions", static_cast<double>(bat.decisions));
    json.set(key + "_latency_p50_us", bat.latency_pct(50.0));
    json.set(key + "_latency_p95_us", bat.latency_pct(95.0));
    json.set(key + "_latency_p99_us", bat.latency_pct(99.0));
    json.set(key + "_cache_hit_rate", cached.cache_hit_rate);
  }
  // The headline hit rate of the cached configuration at the deepest
  // concurrency level — the number the ROADMAP cache refactor tracks.
  json.set("cache_hit_rate", cache_hit_rate_at_max);
  std::cout << t.to_string();
  std::cout << "\nat " << max_sessions << " sessions: cross-session batching "
            << fmt(speedup_at_max, 2) << "x, embedding cache a further "
            << fmt(cache_speedup_at_max, 2) << "x on top (hit rate "
            << fmt(cache_hit_rate_at_max, 2) << ")\n";

  const std::string path = json.write();
  if (!path.empty()) std::cout << "\n[bench] wrote " << path << "\n";
  return 0;
}
