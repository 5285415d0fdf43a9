// Instrumentation overhead of the runtime observability layer
// (docs/observability.md): decisions/sec of a served multi-session run with
// metrics + tracing fully ON vs fully OFF, as the median of the on/off ratios
// of 9 adjacent pairs whose order alternates, so drift on a busy CI host
// cancels within each pair. The recording paths are relaxed atomics behind
// one enabled-flag load, so the ratio should sit at ~1.0; check_bench.py
// floors `metrics_on_vs_off_ratio` at 0.97 (BENCH_REGISTRY) — instrumenting
// the hot paths may never cost more than 3% of serving throughput.
//
// Also emits the observability artifacts CI uploads: obs_trace.json (Chrome
// trace-event format, loadable in chrome://tracing) and obs_metrics.json
// (the registry dump), populated by an instrumented pass over all three
// planes — serving, training, and the embedding cache. Writes
// BENCH_observability.json.
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "gnn/embedding_cache.h"
#include "io/checkpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/policy_server.h"
#include "util/stats.h"

using namespace decima;

namespace {

// One served pass: `sessions` concurrent session threads against a fresh
// server, batched dispatch, embedding cache on. Returns decisions/sec.
double serve_pass(const std::string& ckpt, int sessions,
                  const sim::EnvConfig& env,
                  const std::vector<std::vector<workload::ArrivingJob>>&
                      session_workloads) {
  serve::ServeConfig cfg;
  auto server = serve::PolicyServer::from_checkpoint(ckpt, cfg);
  if (!server) {
    std::cerr << "failed to load " << ckpt << "\n";
    std::exit(1);
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      serve::run_session(*server, env,
                         session_workloads[static_cast<std::size_t>(s)]);
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(server->stats().decisions) /
         std::max(wall, 1e-12);
}

}  // namespace

int main() {
  bench::print_header(
      "Observability overhead",
      "Served decisions/sec with the obs layer on vs off (median of 9\n"
      "adjacent-pair ratios), plus the chrome://tracing + metrics-dump\n"
      "artifacts (writes BENCH_observability.json, obs_trace.json,\n"
      "obs_metrics.json).");

  constexpr int dag_jobs = 3;
  constexpr int dag_nodes = 30;
  constexpr int sessions = 4;
  constexpr int reps = 9;
  sim::EnvConfig env;
  env.num_executors = 10;

  // Freshly initialized policy with the embedding cache ON, so the measured
  // loop crosses every instrumented plane boundary the serving path has:
  // decide latency + queue wait + batch spans, and the cache hit/miss/dirty
  // counters inside refresh.
  core::AgentConfig ac;
  ac.seed = 41;
  ac.embed_cache = true;
  core::DecimaAgent agent(ac);
  const std::string ckpt = "obs_bench_policy.ckpt";
  if (!io::save_policy(agent, ckpt)) {
    std::cerr << "cannot write " << ckpt << "\n";
    return 1;
  }

  std::vector<std::vector<workload::ArrivingJob>> session_workloads;
  for (int s = 0; s < sessions; ++s) {
    session_workloads.push_back(workload::batched(bench::random_dag_jobs(
        dag_jobs, dag_nodes, 7000 + static_cast<std::uint64_t>(s))));
  }

  // Warm-up (allocator, page cache), not measured.
  obs::set_enabled(false);
  serve_pass(ckpt, sessions, env, session_workloads);

  // Adjacent off/on pairs, alternating which arm runs first: each pair's
  // ratio sees the same host load, and the median discards the pairs a
  // load change split.
  std::vector<double> off_dps, on_dps, ratios;
  for (int r = 0; r < reps; ++r) {
    double off = 0.0;
    double on = 0.0;
    const bool on_first = r % 2 == 1;
    for (const bool enabled : {on_first, !on_first}) {
      obs::set_enabled(enabled);
      (enabled ? on : off) = serve_pass(ckpt, sessions, env, session_workloads);
    }
    off_dps.push_back(off);
    on_dps.push_back(on);
    ratios.push_back(on / std::max(off, 1e-12));
  }
  obs::set_enabled(false);
  const double off_median = percentile(off_dps, 50.0);
  const double on_median = percentile(on_dps, 50.0);
  const double ratio = percentile(ratios, 50.0);

  Table t({"arm", "median [dec/s]", "pairs"});
  t.add_row({"metrics+tracing off", fmt(off_median, 0), fmt_int(reps)});
  t.add_row({"metrics+tracing on", fmt(on_median, 0), fmt_int(reps)});
  std::cout << t.to_string();
  std::cout << "\nmedian per-pair on/off throughput ratio: " << fmt(ratio, 3)
            << "  (floor 0.97 — see scripts/check_bench.py)\n";

  // --- Artifact pass: populate all three planes, then dump ------------------
  // A fresh instrumented window: serving (one pass), training (two tiny
  // iterations — rollout/replay/step spans, pool-utilization gauges), and
  // the embedding cache riding inside both.
  obs::Registry::instance().reset();
  obs::Tracer::instance().clear();
  obs::set_enabled(true);
  serve_pass(ckpt, sessions, env, session_workloads);
  {
    core::AgentConfig train_ac;
    train_ac.seed = 43;
    core::DecimaAgent train_agent(train_ac);
    rl::TrainConfig tc;
    tc.episodes_per_iter = 2;
    tc.rollout_threads = 2;
    tc.tau_mean_init = 50.0;
    tc.env = env;
    tc.sampler = bench::tpch_batch_sampler(3);
    rl::ReinforceTrainer trainer(train_agent, tc);
    trainer.iterate();
    trainer.iterate();
  }
  obs::set_enabled(false);

  const bool trace_ok =
      obs::Tracer::instance().write_chrome_json("obs_trace.json");
  const bool metrics_ok =
      obs::Registry::instance().write_json("obs_metrics.json");
  if (!trace_ok || !metrics_ok) {
    std::cerr << "failed to write obs artifacts\n";
    return 1;
  }
  std::cout << "\n[bench] wrote obs_trace.json ("
            << obs::Tracer::instance().size()
            << " events) and obs_metrics.json ("
            << obs::Registry::instance().metric_names().size()
            << " metrics)\n";

  bench::BenchJson json("observability");
  json.set("bench", "observability");
  json.set("sessions", static_cast<double>(sessions));
  json.set("dag_jobs_per_session", static_cast<double>(dag_jobs));
  json.set("dag_nodes", static_cast<double>(dag_nodes));
  json.set("metrics_off_dps", off_median);
  json.set("metrics_on_dps", on_median);
  json.set("metrics_on_vs_off_ratio", ratio);
  json.set("trace_events",
           static_cast<double>(obs::Tracer::instance().size()));
  json.set(
      "registered_metrics",
      static_cast<double>(obs::Registry::instance().metric_names().size()));
  const std::string path = json.write();
  if (!path.empty()) std::cout << "[bench] wrote " << path << "\n";
  return 0;
}
