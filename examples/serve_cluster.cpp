// Train -> checkpoint -> serve, end to end (docs/serving.md):
//   1. trains a Decima agent for a few iterations, checkpointing the trainer
//      every iteration and once killing + resuming it mid-run (bit-exact);
//   2. exports the final policy as a versioned policy checkpoint;
//   3. boots a sharded PolicyServer from that file and serves N concurrent
//      simulated cluster sessions with cross-session batched inference:
//      every session opens a serve::Session handle (stable shard affinity +
//      a server-owned incremental embedding cache) and the per-shard
//      dispatchers coalesce batches under the adaptive bounded wait.
//
//   ./examples/serve_cluster [train_iters] [sessions] [shards]
#include <iostream>
#include <thread>

#include "io/checkpoint.h"
#include "rl/reinforce.h"
#include "serve/policy_server.h"
#include "util/table.h"
#include "workload/tpch.h"

using namespace decima;

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 20;
  const int sessions = argc > 2 ? std::atoi(argv[2]) : 8;
  const int shards = argc > 3 ? std::atoi(argv[3]) : 2;
  const std::string trainer_ckpt = "serve_cluster_trainer.ckpt";
  const std::string policy_ckpt = "serve_cluster_policy.ckpt";

  sim::EnvConfig env;
  env.num_executors = 10;
  rl::WorkloadSampler sampler = [](std::uint64_t seed) {
    Rng rng(seed);
    return workload::batched(workload::sample_tpch_batch(rng, 10));
  };

  // ---- 1. Train with periodic checkpoints, kill + resume halfway ----------
  core::AgentConfig agent_config;
  agent_config.seed = 1;
  rl::TrainConfig train;
  train.num_iterations = iters;
  train.episodes_per_iter = 4;
  train.rollout_threads = 4;
  train.curriculum = false;
  train.env = env;
  train.sampler = sampler;

  core::DecimaAgent agent(agent_config);
  std::cout << "training " << agent.num_parameters() << "-parameter policy, "
            << iters << " iterations\n";
  {
    rl::ReinforceTrainer trainer(agent, train);
    for (int i = 0; i < iters / 2; ++i) trainer.iterate();
    if (!trainer.save_checkpoint(trainer_ckpt)) {
      std::cerr << "failed to write " << trainer_ckpt << "\n";
      return 1;
    }
  }  // "kill" the first training process

  core::DecimaAgent resumed_agent(agent_config);
  rl::ReinforceTrainer trainer(resumed_agent, train);
  if (!trainer.resume(trainer_ckpt)) {
    std::cerr << "failed to resume from " << trainer_ckpt << "\n";
    return 1;
  }
  std::cout << "resumed at iteration " << trainer.iteration()
            << " from " << trainer_ckpt << "\n";
  for (int i = trainer.iteration(); i < iters; ++i) {
    const auto s = trainer.iterate();
    if (s.iteration % 5 == 0) {
      std::cout << "iter " << s.iteration << "  rollout avg JCT "
                << fmt(s.mean_avg_jct, 1) << "s\n";
    }
  }

  // ---- 2. Export the policy -------------------------------------------------
  if (!io::save_policy(resumed_agent, policy_ckpt)) {
    std::cerr << "failed to write " << policy_ckpt << "\n";
    return 1;
  }
  std::cout << "exported policy to " << policy_ckpt << "\n\n";

  // ---- 3. Serve concurrent sessions ----------------------------------------
  // Sharded serving plane: `shards` dispatcher threads, each draining its
  // own request queue, with the adaptive bounded wait coalescing
  // shallow batches. shards=1 is the bit-identical reference dispatcher.
  serve::ServeConfig serve_cfg;
  serve_cfg.shards = shards;
  serve_cfg.batch_wait_us = 200;
  auto server = serve::PolicyServer::from_checkpoint(policy_ckpt, serve_cfg);
  if (!server) {
    std::cerr << "failed to boot server from " << policy_ckpt << "\n";
    return 1;
  }
  // Each session thread is a serve::Session under the hood (run_session's
  // ServedScheduler opens one): the handle pins the session to a shard and
  // owns its incremental embedding cache for exactly its lifetime. Shown
  // explicitly here for one ad-hoc query before the full runs:
  {
    serve::Session probe = server->open_session();
    sim::ClusterEnv probe_env(env);
    Rng rng(8999);
    workload::load(probe_env,
                   workload::batched(workload::sample_tpch_batch(rng, 3)));
    const serve::DecideResult r = server->decide_with_status(probe, probe_env);
    std::cout << "probe session on shard " << probe.shard() << ": status "
              << (r.status == serve::DecideStatus::kOk ? "ok" : "degraded")
              << ", action " << (r.action.valid() ? "valid" : "none") << "\n";
  }  // handle closes here; its cache is freed server-side

  std::vector<serve::SessionResult> results(
      static_cast<std::size_t>(sessions));
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      Rng rng(9000 + static_cast<std::uint64_t>(s));
      results[static_cast<std::size_t>(s)] = serve::run_session(
          *server, env,
          workload::batched(workload::sample_tpch_batch(rng, 10)));
    });
  }
  for (auto& t : threads) t.join();

  Table t({"session", "avg JCT [s]", "jobs done", "decisions"});
  for (int s = 0; s < sessions; ++s) {
    const auto& r = results[static_cast<std::size_t>(s)];
    t.add_row({fmt_int(s), fmt(r.avg_jct, 1), fmt_int(r.completed),
               fmt_int(static_cast<long long>(r.decisions))});
  }
  std::cout << t.to_string();
  const auto stats = server->stats();
  std::cout << "\nserved " << stats.decisions << " decisions in "
            << stats.batches << " batches (mean batch "
            << fmt(stats.mean_batch_size, 2) << ", max "
            << stats.max_batch_size << ") across " << server->num_shards()
            << " shard(s):\n";
  for (int s = 0; s < server->num_shards(); ++s) {
    const auto st = server->shard_stats(s);
    std::cout << "  shard " << s << ": " << st.decisions << " decisions, "
              << st.batches << " batches\n";
  }
  return 0;
}
