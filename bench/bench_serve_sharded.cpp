// Sharded serving-plane scaling (docs/serving.md): decisions/sec of the
// PolicyServer across a shards × sessions grid, batched dispatch with the
// adaptive bounded wait on and per-session embedding caches (the production
// serving shape). Decisions are bit-identical at every shard count
// (tests/test_serve.cpp, Shards4MatchesShards1), so the within-run ratios are
// pure throughput: the headline `shards4_vs_shards1_speedup` at the
// 32-session workload is the ROADMAP "shard the serving plane" scaling
// signal, floor-gated in scripts/check_bench.py. Writes
// BENCH_serve_sharded.json.
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "io/checkpoint.h"
#include "serve/policy_server.h"

using namespace decima;

namespace {

struct CellResult {
  double wall_seconds = 0.0;
  std::uint64_t decisions = 0;
  double mean_batch = 0.0;
  double balance = 0.0;  // min/max per-shard decision share (1.0 = even)
  double decisions_per_sec() const {
    return static_cast<double>(decisions) / std::max(wall_seconds, 1e-12);
  }
};

CellResult run_cell(const std::string& ckpt, int shards, int wait_us,
                    int sessions, const sim::EnvConfig& env,
                    const std::vector<std::vector<workload::ArrivingJob>>&
                        session_workloads) {
  serve::ServeConfig cfg;
  cfg.shards = shards;
  cfg.batch_wait_us = wait_us;
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
      const std::size_t ss = static_cast<std::size_t>(s);
      serve::run_session(*server, env, session_workloads[ss]);
    });
  }
  for (auto& t : threads) t.join();
  CellResult r;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto stats = server->stats();
  r.decisions = stats.decisions;
  r.mean_batch = stats.mean_batch_size;
  std::uint64_t lo = stats.decisions, hi = 0;
  for (int i = 0; i < server->num_shards(); ++i) {
    const auto st = server->shard_stats(i);
    lo = std::min(lo, st.decisions);
    hi = std::max(hi, st.decisions);
  }
  r.balance = hi == 0 ? 0.0
                      : static_cast<double>(lo) / static_cast<double>(hi);
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Sharded serving plane (ROADMAP: shard the serving plane)",
      "PolicyServer decisions/sec across dispatcher shards x concurrent\n"
      "sessions — per-shard request queues, session shard affinity, adaptive\n"
      "bounded-wait batching (writes BENCH_serve_sharded.json).");

  constexpr int dag_jobs = 3;
  constexpr int dag_nodes = 30;
  constexpr int wait_us = 200;
  sim::EnvConfig env;
  env.num_executors = 10;

  // A freshly initialized agent with the embedding cache on — the production
  // serving shape (Sessions own caches); throughput does not care about
  // training quality.
  core::AgentConfig ac;
  ac.seed = 41;
  ac.embed_cache = true;
  core::DecimaAgent agent(ac);
  const std::string ckpt = "serve_sharded_policy.ckpt";
  if (!io::save_policy(agent, ckpt)) {
    std::cerr << "cannot write " << ckpt << "\n";
    return 1;
  }
  std::cout << "policy checkpoint: " << ckpt << " (" << agent.num_parameters()
            << " params)\n\n";

  const std::vector<int> shard_counts = {1, 2, 4};
  const std::vector<int> session_counts = {4, 8, 16, 32};
  const int max_sessions = session_counts.back();
  std::vector<std::vector<workload::ArrivingJob>> session_workloads;
  for (int s = 0; s < max_sessions; ++s) {
    session_workloads.push_back(workload::batched(bench::random_dag_jobs(
        dag_jobs, dag_nodes, 7000 + static_cast<std::uint64_t>(s))));
  }

  bench::BenchJson json("serve_sharded");
  json.set("bench", "serve_sharded");
  json.set("dag_jobs_per_session", static_cast<double>(dag_jobs));
  json.set("dag_nodes", static_cast<double>(dag_nodes));
  json.set("batch_wait_us", static_cast<double>(wait_us));

  // Warm-up (allocator + code paths), not measured.
  run_cell(ckpt, 2, wait_us, 4, env, session_workloads);

  Table t({"sessions", "shards=1 [dec/s]", "shards=2 [dec/s]",
           "shards=4 [dec/s]", "s4/s1", "balance", "mean batch"});
  double s1_at_max = 0.0, s2_at_max = 0.0, s4_at_max = 0.0;
  double balance_at_max = 0.0;
  for (int sessions : session_counts) {
    std::vector<CellResult> row;
    for (int shards : shard_counts) {
      row.push_back(
          run_cell(ckpt, shards, wait_us, sessions, env, session_workloads));
      const std::string key = "shards" + std::to_string(shards) + "_sessions" +
                              std::to_string(sessions);
      json.set(key + "_dps", row.back().decisions_per_sec());
      json.set(key + "_mean_batch", row.back().mean_batch);
    }
    const double s4_vs_s1 = row[2].decisions_per_sec() /
                            std::max(row[0].decisions_per_sec(), 1e-12);
    if (sessions == max_sessions) {
      s1_at_max = row[0].decisions_per_sec();
      s2_at_max = row[1].decisions_per_sec();
      s4_at_max = row[2].decisions_per_sec();
      balance_at_max = row[2].balance;
    }
    t.add_row({fmt_int(sessions), fmt(row[0].decisions_per_sec(), 0),
               fmt(row[1].decisions_per_sec(), 0),
               fmt(row[2].decisions_per_sec(), 0), fmt(s4_vs_s1, 2),
               fmt(row[2].balance, 2), fmt(row[2].mean_batch, 2)});
  }

  // Headline ratios at the deepest workload (32 sessions): what 4 (and 2)
  // dispatcher shards buy over the single-dispatcher reference. Floors live
  // in scripts/check_bench.py's BENCH_REGISTRY; like the rollout-pool
  // floors, they are meaningful on multi-core runners (a 1-core box
  // legitimately reports ~1.0x).
  const double s4_speedup = s4_at_max / std::max(s1_at_max, 1e-12);
  const double s2_speedup = s2_at_max / std::max(s1_at_max, 1e-12);
  json.set("shards4_vs_shards1_speedup", s4_speedup);
  json.set("shards2_vs_shards1_speedup", s2_speedup);
  // Round-robin session placement should keep per-shard load even; reported
  // unguarded (min/max per-shard decisions at shards=4, 32 sessions).
  json.set("shard_balance_min_max_ratio", balance_at_max);

  std::cout << t.to_string();
  std::cout << "\nat " << max_sessions << " sessions: shards=4 "
            << fmt(s4_speedup, 2) << "x over shards=1 (shards=2 "
            << fmt(s2_speedup, 2) << "x), per-shard balance "
            << fmt(balance_at_max, 2) << "\n";

  const std::string path = json.write();
  if (!path.empty()) std::cout << "\n[bench] wrote " << path << "\n";
  return 0;
}
