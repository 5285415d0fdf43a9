// REINFORCE training loop — Algorithm 1 of the paper.
//
// Per iteration:
//   1. sample an episode length τ ~ Exp(τ_mean) and grow τ_mean (curriculum
//      learning, §5.3 challenge #1; memoryless termination so the agent
//      cannot game a deterministic horizon);
//   2. sample a job arrival sequence, shared by all N episodes of the
//      iteration (input-dependent baseline, §5.3 challenge #2);
//   3. roll out N episodes (stochastic policy) — sequentially at
//      rollout_threads = 1 (the reference path), else on a persistent pool
//      of workers that each own a parameter-snapshot clone of the agent;
//      episode seeds pre-derived in episode order keep the result
//      bit-identical either way;
//   4. convert rewards to returns (optionally differential/average-reward,
//      Appendix B), compute time-aligned per-sequence baselines, normalize
//      advantages;
//   5. replay each episode, accumulating −Σ_k A_k ∇log π_θ(s_k, a_k) − β∇H.
//      Two equivalent paths (docs/training.md): with
//      AgentConfig::batched_replay (default) the recorded actions re-drive
//      the simulator while each scheduling event is snapshotted, then the
//      whole episode is scored and differentiated on ONE tape with a single
//      backward pass; the reference path builds one tape per action and
//      backwards through it immediately. Gradients match to <= 1e-10
//      (tests/test_batched_equivalence.cpp);
//   6. clip gradients and take an Adam step (lr 1e-3, Appendix C).
//
// Ablation switches reproduce Fig. 14: fixed_sequences = false disables the
// input-dependent baseline; batched samplers train on batch arrivals;
// agent-side flags disable the GNN or parallelism control.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/agent.h"
#include "nn/adam.h"
#include "rl/objectives.h"
#include "util/stats.h"
#include "util/sync.h"
#include "workload/arrivals.h"

namespace decima::rl {

// kAvgJct and kMakespan are the paper's evaluated objectives (§7); kTailJct
// and kDeadline implement the §8 reward-shaping extensions (objectives.h).
enum class Objective { kAvgJct, kMakespan, kTailJct, kDeadline };

// Produces the job arrival sequence for a given seed. The same seed must
// yield the same sequence (required by the input-dependent baseline and the
// replay pass).
using WorkloadSampler =
    std::function<std::vector<workload::ArrivingJob>(std::uint64_t seed)>;

struct TrainConfig {
  int num_iterations = 100;
  int episodes_per_iter = 8;
  // Rollout/replay worker pool (docs/training.md, "Parallel rollout & the
  // determinism contract"). 1 = the sequential reference path: every episode
  // runs inline on the calling thread. K > 1 spawns K persistent workers
  // (util::WorkerPool), each owning its own cloned agent (params
  // re-snapshotted from the master every iteration) and embedding cache.
  // Episode seeds are derived on the coordinator in episode-index order and
  // per-episode gradients reduce in that same order, so training is
  // bit-identical for every value of this knob — params, checkpoints, and
  // stats (tests/test_parallel_rollout.cpp pins threads ∈ {1, 2, 8}, clean
  // and under fault plans). Only wall-clock changes.
  int rollout_threads = 1;

  double lr = 1e-3;
  double grad_clip = 20.0;

  // Entropy bonus, decayed multiplicatively each iteration.
  double entropy_weight = 0.2;
  double entropy_decay = 0.97;
  double entropy_min = 0.005;

  // Curriculum (§5.3): episodes end after τ ~ Exp(τ_mean) simulated seconds;
  // τ_mean grows linearly per iteration.
  bool curriculum = true;
  double tau_mean_init = 600.0;
  double tau_mean_growth = 60.0;
  double tau_mean_max = 1e6;

  // Input-dependent baseline: same arrival sequence for all episodes of an
  // iteration. false = the "w/o variance reduction" ablation.
  bool fixed_sequences = true;

  // Average-reward (differential) formulation for continuous arrivals.
  bool differential_reward = true;
  double reward_rate_horizon = 1e3;  // moving-average horizon (samples)

  bool normalize_advantages = true;

  Objective objective = Objective::kAvgJct;
  DeadlineConfig deadline;  // used when objective == kDeadline
  sim::EnvConfig env;
  WorkloadSampler sampler;
  std::uint64_t seed = 123;
};

struct IterationStats {
  int iteration = 0;
  double tau = 0.0;
  double mean_total_reward = 0.0;  // across the N episodes (pre-baseline)
  double mean_avg_jct = 0.0;       // of completed jobs in the rollouts
  int total_actions = 0;
  double grad_norm = 0.0;
  double entropy_weight = 0.0;
  // Phase timers (BENCH_train.json). rollout/replay/step are *wall-clock*
  // seconds per Algorithm-1 phase, measured on the coordinating thread as
  // one span per phase: rollout = step 3, replay = step 5, step = everything
  // else (returns/baselines/reduction/Adam, the remainder of total_seconds).
  // Under a worker pool the per-episode spans overlap, so they are NEVER
  // summed into these — summing would double-count concurrent work. The
  // *_cpu_seconds fields carry that sum instead: per-worker busy seconds
  // aggregated over the phase's episodes (≈ wall-clock at rollout_threads =
  // 1; up to rollout_threads × wall-clock when the pool scales). Invariants,
  // pinned by tests/test_parallel_rollout.cpp:
  //   rollout_seconds + replay_seconds + step_seconds == total_seconds
  //   0 <= <phase>_cpu_seconds <= rollout_threads * <phase>_seconds
  double rollout_seconds = 0.0;
  double replay_seconds = 0.0;
  double step_seconds = 0.0;
  double total_seconds = 0.0;
  double rollout_cpu_seconds = 0.0;
  double replay_cpu_seconds = 0.0;
};

class ReinforceTrainer {
 public:
  // `agent` is the master policy; its parameters are updated in place.
  ReinforceTrainer(core::DecimaAgent& agent, TrainConfig config);

  // Runs one Algorithm-1 iteration.
  IterationStats iterate();

  // Full training run; returns the per-iteration learning curve.
  std::vector<IterationStats> train();

  double tau_mean() const { return tau_mean_; }
  const TrainConfig& config() const { return config_; }
  int iteration() const { return iteration_; }

  // --- Checkpointing (src/io, docs/serving.md) ------------------------------
  // Writes a versioned binary checkpoint of the full training state: the
  // agent's config + parameters, the Adam moments, and the trainer's RNG
  // stream and entropy/curriculum/reward-rate schedules. False on I/O error.
  bool save_checkpoint(const std::string& path) const;
  // Restores a checkpoint written by save_checkpoint into this trainer. The
  // trainer's TrainConfig (env included) and the agent's AgentConfig must
  // match the checkpoint on every dynamics-affecting field
  // (num_iterations/rollout_threads may differ — thread count provably does
  // not change results); returns false with the trainer untouched otherwise.
  // The WorkloadSampler cannot be fingerprinted (it is a std::function): the
  // caller must install the same sampler for the guarantee to hold. After a
  // successful resume the run continues bit-exactly where the saved one
  // stopped:
  //   train(N) == train(k) + save_checkpoint + resume + train(N-k).
  bool resume(const std::string& path);

 private:
  struct EpisodeData {
    std::vector<core::RecordedAction> actions;
    std::vector<double> rewards;       // K+1 entries (see baseline.h)
    std::vector<double> action_times;  // K entries
    double end_time = 0.0;             // simulated time when the episode ended
    double avg_jct = 0.0;
    int completed = 0;
    std::uint64_t env_seed = 0;
    std::uint64_t workload_seed = 0;
  };

  EpisodeData rollout(core::DecimaAgent& worker, std::uint64_t workload_seed,
                      std::uint64_t env_seed, std::uint64_t sample_seed,
                      double tau) const;
  void replay(core::DecimaAgent& worker, const EpisodeData& episode,
              std::vector<double> advantages, double tau) const;
  std::vector<double> episode_rewards(const sim::ClusterEnv& env) const;

  // Lazily builds the persistent worker agents (one clone of the master per
  // rollout thread) and, for rollout_threads > 1, the pool itself.
  void ensure_workers();
  // Runs fn(episode, worker) for every episode in [0, n) — inline on this
  // thread at rollout_threads = 1, else scattered over the pool. Returns the
  // busy seconds summed across workers (the *_cpu_seconds aggregate).
  double run_on_workers(int n, const util::WorkerPool::Task& fn);

  core::DecimaAgent& agent_;
  TrainConfig config_;
  Rng rng_;
  nn::Adam adam_;
  double tau_mean_;
  double entropy_weight_;
  MovingAverage reward_rate_;  // r̄ for the differential reward
  int iteration_ = 0;

  // Persistent per-worker agent clones: worker w touches worker_agents_[w]
  // and nothing else, only from the pool task currently naming w, so the
  // agents need no locks (docs/concurrency.md). Parameter values are
  // re-snapshotted from the master at every iteration start; the embedding
  // cache each clone owns then re-validates itself and stays warm across the
  // iteration's episodes. pool_ is declared after worker_agents_ so its
  // destructor joins the threads before the agents they borrow die.
  std::vector<std::unique_ptr<core::DecimaAgent>> worker_agents_;
  std::unique_ptr<util::WorkerPool> pool_;
};

}  // namespace decima::rl
