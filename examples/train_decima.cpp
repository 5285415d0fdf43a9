// Full training pipeline: trains a Decima agent on continuous TPC-H arrivals
// with curriculum learning and input-dependent baselines (Algorithm 1), logs
// the learning curve to CSV, and saves the model as a policy checkpoint
// (io::save_policy) that serve::PolicyServer::from_checkpoint loads.
//
//   ./examples/train_decima [iters] [model_out] [curve_csv]
#include <iostream>

#include "io/checkpoint.h"
#include "rl/reinforce.h"
#include "util/table.h"
#include "workload/tpch.h"

using namespace decima;

int main(int argc, char** argv) {
  const int iters = argc > 1 ? std::atoi(argv[1]) : 120;
  const std::string model_path = argc > 2 ? argv[2] : "decima.model";
  const std::string curve_path = argc > 3 ? argv[3] : "learning_curve.csv";

  sim::EnvConfig env;
  env.num_executors = 15;

  // Continuous arrivals: 25 jobs per episode, Poisson interarrival.
  rl::WorkloadSampler sampler = [](std::uint64_t seed) {
    Rng rng(seed);
    auto jobs = workload::sample_tpch_batch(rng, 25);
    Rng arr(rng.fork());
    return workload::continuous(std::move(jobs), arr, 40.0);
  };

  core::AgentConfig agent_config;
  agent_config.seed = 1;
  core::DecimaAgent agent(agent_config);
  std::cout << "Decima model: " << agent.num_parameters() << " parameters\n";

  rl::TrainConfig train;
  train.num_iterations = iters;
  train.episodes_per_iter = 8;
  train.rollout_threads = 8;
  train.curriculum = true;
  train.tau_mean_init = 500.0;
  train.tau_mean_growth = 100.0;
  train.differential_reward = true;
  train.env = env;
  train.sampler = sampler;
  rl::ReinforceTrainer trainer(agent, train);

  Table curve({"iteration", "tau", "rollout_avg_jct", "total_reward",
               "grad_norm"});
  for (int i = 0; i < iters; ++i) {
    const auto s = trainer.iterate();
    curve.add_row({fmt_int(s.iteration), fmt(s.tau, 0),
                   fmt(s.mean_avg_jct, 1), fmt(s.mean_total_reward, 0),
                   fmt(s.grad_norm, 3)});
    if (s.iteration % 10 == 0) {
      std::cout << "iter " << s.iteration << "  tau " << fmt(s.tau, 0)
                << "  rollout avg JCT " << fmt(s.mean_avg_jct, 1) << "s\n";
    }
  }

  if (!curve.write_csv(curve_path)) {
    std::cerr << "failed to write " << curve_path << "\n";
    return 1;
  }
  if (!io::save_policy(agent, model_path)) {
    std::cerr << "failed to save " << model_path << "\n";
    return 1;
  }
  std::cout << "saved model to " << model_path << ", learning curve to "
            << curve_path << "\n";
  return 0;
}
