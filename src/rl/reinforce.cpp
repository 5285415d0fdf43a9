#include "rl/reinforce.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include "io/checkpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/baseline.h"

namespace decima::rl {

namespace {

// Training-plane metric handles (docs/observability.md). Observation only:
// clocks, counters, and gauges live entirely outside the RNG streams and
// the gradient path, so training with the obs layer enabled is byte-
// identical to disabled (tests/test_observability.cpp pins this at
// rollout_threads 1 and 8 — the PR 8 phase-timer discipline).
struct TrainMetrics {
  obs::Counter& iterations;
  obs::Counter& episodes;
  obs::Gauge& rollout_utilization;
  obs::Gauge& replay_utilization;
  obs::Histogram& iteration_us;

  static TrainMetrics& get() {
    static TrainMetrics* m = new TrainMetrics{
        obs::Registry::instance().counter(obs::names::kTrainIterations),
        obs::Registry::instance().counter(obs::names::kTrainEpisodes),
        obs::Registry::instance().gauge(obs::names::kTrainRolloutUtilization),
        obs::Registry::instance().gauge(obs::names::kTrainReplayUtilization),
        obs::Registry::instance().histogram(obs::names::kTrainIterationUs)};
    return *m;
  }
};

// Worker-pool busy fraction for one phase: busy CPU seconds over the
// threads × wall-clock capacity, from the IterationStats accounting.
double pool_utilization(double cpu_seconds, double wall_seconds,
                        int threads) {
  const double capacity = wall_seconds * static_cast<double>(threads);
  return capacity > 0.0 ? cpu_seconds / capacity : 0.0;
}

// The TrainConfig fields that shape the training dynamics, as one byte
// string that trainer checkpoints store and resume() compares verbatim.
// num_iterations and rollout_threads are deliberately absent: iteration
// count is the caller's loop, and per-episode gradients reduce in a fixed
// order so the thread count cannot change results
// (tests/test_parallel_rollout.cpp and the resume-across-thread-counts case
// in tests/test_checkpoint.cpp pin this). Every EnvConfig field, the
// FaultPlan included, shapes the dynamics. The WorkloadSampler is a
// std::function and inherently unverifiable — resume() trusts the caller to
// install the same sampler (reinforce.h documents this).
std::string train_fingerprint(const TrainConfig& c) {
  std::string f;
  const auto put = [&f](auto v) {
    f.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(c.lr);
  put(c.grad_clip);
  put(c.entropy_weight);
  put(c.entropy_decay);
  put(c.entropy_min);
  put(c.curriculum);
  put(c.tau_mean_init);
  put(c.tau_mean_growth);
  put(c.tau_mean_max);
  put(c.fixed_sequences);
  put(c.differential_reward);
  put(c.normalize_advantages);
  put(c.reward_rate_horizon);
  put(static_cast<std::uint32_t>(c.objective));
  put(c.episodes_per_iter);
  put(c.deadline.slack);
  put(c.deadline.miss_penalty);
  put(c.seed);
  const sim::EnvConfig& env = c.env;
  put(env.num_executors);
  put(static_cast<std::uint64_t>(env.classes.size()));
  for (const sim::ExecutorClass& k : env.classes) {
    put(k.mem);
    put(static_cast<std::uint64_t>(k.name.size()));
    f += k.name;
  }
  put(env.moving_delay);
  put(env.enable_moving_delay);
  put(env.first_wave_factor);
  put(env.enable_wave_effect);
  put(env.enable_inflation);
  put(env.duration_noise);
  put(env.seed);
  const sim::FaultPlan& faults = env.faults;
  put(static_cast<std::uint64_t>(faults.failures.size()));
  for (const sim::ExecutorFault& e : faults.failures) {
    put(e.executor);
    put(e.fail_at);
    put(e.recover_at);
  }
  put(faults.stragglers.prob);
  put(faults.stragglers.factor);
  put(static_cast<std::uint64_t>(faults.executor_speeds.size()));
  for (double speed : faults.executor_speeds) put(speed);
  put(faults.seed);
  put(static_cast<std::uint64_t>(env.max_events));
  return f;
}

}  // namespace

ReinforceTrainer::ReinforceTrainer(core::DecimaAgent& agent, TrainConfig config)
    : agent_(agent),
      config_(std::move(config)),
      rng_(config_.seed),
      adam_(&agent.params(), nn::AdamConfig{.lr = config_.lr}),
      tau_mean_(config_.tau_mean_init),
      entropy_weight_(config_.entropy_weight),
      reward_rate_(config_.reward_rate_horizon) {}

std::vector<double> ReinforceTrainer::episode_rewards(
    const sim::ClusterEnv& env) const {
  switch (config_.objective) {
    case Objective::kAvgJct:
      return avg_jct_rewards(env);
    case Objective::kMakespan:
      return makespan_rewards(env);
    case Objective::kTailJct:
      return tail_jct_rewards(env);
    case Objective::kDeadline:
      return deadline_rewards(env, config_.deadline);
  }
  return avg_jct_rewards(env);
}

ReinforceTrainer::EpisodeData ReinforceTrainer::rollout(
    core::DecimaAgent& worker, std::uint64_t workload_seed,
    std::uint64_t env_seed, std::uint64_t sample_seed, double tau) const {
  sim::EnvConfig env_config = config_.env;
  env_config.seed = env_seed;
  sim::ClusterEnv env(env_config);
  workload::load(env, config_.sampler(workload_seed));

  worker.set_mode(core::Mode::kSample);
  worker.set_sample_seed(sample_seed);
  worker.start_recording();
  env.run(worker, tau);

  EpisodeData data;
  data.actions = worker.take_recorded();
  data.rewards = episode_rewards(env);
  data.action_times.assign(env.action_times().begin(),
                           env.action_times().end());
  data.avg_jct = env.avg_jct();
  data.end_time = env.now();
  data.completed = static_cast<int>(env.jcts().size());
  data.env_seed = env_seed;
  data.workload_seed = workload_seed;
  return data;
}

void ReinforceTrainer::replay(core::DecimaAgent& worker,
                              const EpisodeData& episode,
                              std::vector<double> advantages,
                              double tau) const {
  sim::EnvConfig env_config = config_.env;
  env_config.seed = episode.env_seed;
  sim::ClusterEnv env(env_config);
  workload::load(env, config_.sampler(episode.workload_seed));

  worker.params().zero_grads();
  worker.start_replay(episode.actions, std::move(advantages), entropy_weight_);
  env.run(worker, tau);
  // Batched replay (AgentConfig::batched_replay): the run above only
  // snapshotted the scheduling events; this scores them on chunked tapes,
  // each chunk differentiated by a single backward pass. No-op on the
  // reference path, which accumulated gradients action by action.
  worker.finish_replay();
}

void ReinforceTrainer::ensure_workers() {
  const int threads = std::max(1, config_.rollout_threads);
  if (static_cast<int>(worker_agents_.size()) != threads) {
    pool_.reset();
    worker_agents_.clear();
    worker_agents_.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) worker_agents_.push_back(agent_.clone());
  }
  if (threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<util::WorkerPool>(threads);
  }
}

double ReinforceTrainer::run_on_workers(int n,
                                        const util::WorkerPool::Task& fn) {
  using Clock = std::chrono::steady_clock;
  // One busy-seconds slot per worker: each slot is written only by its
  // worker (exclusive ownership by index), summed after the barrier. The
  // per-task spans on one worker are disjoint sub-intervals of the phase
  // span, so the sum never double-counts concurrent work.
  std::vector<double> busy(worker_agents_.size(), 0.0);
  const util::WorkerPool::Task timed = [&](int task, int worker) {
    const auto t0 = Clock::now();
    fn(task, worker);
    busy[static_cast<std::size_t>(worker)] +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  };
  if (pool_ == nullptr) {
    for (int i = 0; i < n; ++i) timed(i, 0);
  } else {
    pool_->parallel_for(n, timed);
  }
  double total = 0.0;
  for (double b : busy) total += b;
  return total;
}

IterationStats ReinforceTrainer::iterate() {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  obs::Span iteration_span(obs::names::kSpanTrainIteration, "train");
  const auto t_iter = Clock::now();
  const int n = config_.episodes_per_iter;

  // (1) Episode length: memoryless termination with growing mean (§5.3).
  const double tau =
      config_.curriculum ? rng_.exponential(tau_mean_) : sim::kInfTime;
  tau_mean_ =
      std::min(tau_mean_ + config_.tau_mean_growth, config_.tau_mean_max);

  // (2) Arrival sequence(s). fixed_sequences shares one sequence across the
  // iteration's episodes (input-dependent baseline); the ablation draws a
  // fresh sequence per episode. The determinism contract starts here: every
  // episode's sub-streams (workload, env, sampling) are forked from the
  // trainer RNG on this thread in episode-index order — keyed by
  // (iteration, episode), never by worker or claim order — so episode i
  // sees the same random draws no matter which worker later runs it.
  const std::uint64_t shared_seq = rng_.fork();
  std::vector<std::uint64_t> workload_seeds(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> env_seeds(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> sample_seeds(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workload_seeds[static_cast<std::size_t>(i)] =
        config_.fixed_sequences ? shared_seq : rng_.fork();
    env_seeds[static_cast<std::size_t>(i)] = rng_.fork();
    sample_seeds[static_cast<std::size_t>(i)] = rng_.fork();
  }

  // Persistent worker agents snapshot the master's current parameters once
  // per iteration (values only; the snapshot bumps the param version, so
  // each worker's embedding cache re-validates and then stays warm across
  // all episodes this worker runs this iteration).
  ensure_workers();
  for (auto& w : worker_agents_) w->snapshot_params_from(agent_);

  // (3) Rollouts. Lock-free by ownership, not by luck (docs/concurrency.md):
  // worker w exclusively owns worker_agents_[w], episode results land in
  // episodes[i] written by exactly one task, and the pool's barrier is the
  // only synchronization — everything is reduced on this thread afterwards.
  // Episodes are claimed dynamically for load balance; results stay
  // bit-identical for any rollout_threads because seeds and reduction order
  // are keyed by episode index.
  const auto t_rollout = Clock::now();
  std::vector<EpisodeData> episodes(static_cast<std::size_t>(n));
  double rollout_cpu_seconds = 0.0;
  {
    obs::Span rollout_span(obs::names::kSpanTrainRollout, "train");
    rollout_cpu_seconds = run_on_workers(n, [&](int i, int w) {
      const std::size_t ii = static_cast<std::size_t>(i);
      episodes[ii] = rollout(*worker_agents_[static_cast<std::size_t>(w)],
                             workload_seeds[ii], env_seeds[ii],
                             sample_seeds[ii], tau);
    });
  }
  const double rollout_seconds = seconds_since(t_rollout);

  // (4) Returns, baselines, advantages.
  double mean_total_reward = 0.0;
  double mean_avg_jct = 0.0;
  int total_actions = 0;
  std::vector<EpisodeReturns> returns(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    std::vector<double> rewards = episodes[ii].rewards;
    // Differential (average) reward: subtract the moving-average reward rate
    // times each interval's simulated duration (Appendix B).
    if (config_.differential_reward) {
      const double end = episodes[ii].end_time;
      const auto& times = episodes[ii].action_times;
      double total_r = 0.0;
      for (double r : rewards) total_r += r;
      if (end > 0.0) reward_rate_.add(total_r / end);
      const double rate = reward_rate_.value();
      double prev_t = 0.0;
      for (std::size_t k = 0; k < rewards.size(); ++k) {
        const double t_k = k < times.size() ? times[k] : std::max(prev_t, end);
        rewards[k] -= rate * std::max(t_k - prev_t, 0.0);
        prev_t = t_k;
      }
    }
    returns[ii].times = episodes[ii].action_times;
    returns[ii].returns = returns_to_go(rewards);
    for (double r : episodes[ii].rewards) mean_total_reward += r;
    mean_avg_jct += episodes[ii].avg_jct;
    total_actions += static_cast<int>(episodes[ii].actions.size());
  }
  mean_total_reward /= std::max(n, 1);
  mean_avg_jct /= std::max(n, 1);

  const auto baselines = time_aligned_baselines(returns);
  std::vector<std::vector<double>> advantages(static_cast<std::size_t>(n));
  RunningStats adv_stats;
  for (int i = 0; i < n; ++i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    advantages[ii].resize(returns[ii].returns.size());
    for (std::size_t k = 0; k < advantages[ii].size(); ++k) {
      advantages[ii][k] = returns[ii].returns[k] - baselines[ii][k];
      adv_stats.add(advantages[ii][k]);
    }
  }
  if (config_.normalize_advantages) {
    const double scale =
        adv_stats.stddev() > 1e-9 ? 1.0 / adv_stats.stddev() : 0.0;
    for (auto& ep : advantages) {
      for (double& a : ep) a *= scale;
    }
  }

  // (5) Replays accumulate each episode's gradients into its worker's
  // params (zeroed per episode), which are immediately flattened into the
  // episode-indexed stash — a worker replaying several episodes never mixes
  // their gradients, and (6) can reduce in fixed episode order regardless
  // of which worker produced what.
  const auto t_replay = Clock::now();
  std::vector<std::vector<double>> episode_grads(static_cast<std::size_t>(n));
  double replay_cpu_seconds = 0.0;
  {
    obs::Span replay_span(obs::names::kSpanTrainReplay, "train");
    replay_cpu_seconds = run_on_workers(n, [&](int i, int w) {
      const std::size_t ii = static_cast<std::size_t>(i);
      core::DecimaAgent& worker = *worker_agents_[static_cast<std::size_t>(w)];
      replay(worker, episodes[ii], advantages[ii], tau);
      episode_grads[ii] = worker.params().flat_grads();
    });
  }
  const double replay_seconds = seconds_since(t_replay);

  // (6) Reduce gradients (deterministic episode order), clip, Adam.
  double grad_norm = 0.0;
  {
    obs::Span step_span(obs::names::kSpanTrainStep, "train");
    agent_.params().zero_grads();
    for (int i = 0; i < n; ++i) {
      agent_.params().add_flat_to_grads(
          episode_grads[static_cast<std::size_t>(i)], 1.0 / n);
    }
    agent_.params().clip_grad_norm(config_.grad_clip);
    grad_norm = agent_.params().grad_norm();
    adam_.step();
    agent_.params().zero_grads();
  }

  entropy_weight_ =
      std::max(entropy_weight_ * config_.entropy_decay, config_.entropy_min);

  IterationStats stats;
  stats.iteration = iteration_++;
  stats.tau = tau;
  stats.mean_total_reward = mean_total_reward;
  stats.mean_avg_jct = mean_avg_jct;
  stats.total_actions = total_actions;
  stats.grad_norm = grad_norm;
  stats.entropy_weight = entropy_weight_;
  stats.rollout_seconds = rollout_seconds;
  stats.replay_seconds = replay_seconds;
  stats.total_seconds = seconds_since(t_iter);
  // The rollout/replay spans are disjoint sub-intervals of the iteration
  // span on this (monotonic) clock, so the remainder is never negative.
  stats.step_seconds = stats.total_seconds - rollout_seconds - replay_seconds;
  stats.rollout_cpu_seconds = rollout_cpu_seconds;
  stats.replay_cpu_seconds = replay_cpu_seconds;

  // Training-plane observability (docs/observability.md): pure readouts of
  // the stats computed above — nothing here feeds back into RNG streams or
  // gradients, so enabling metrics leaves training byte-identical.
  if (obs::metrics_enabled()) {
    TrainMetrics& metrics = TrainMetrics::get();
    const int threads = std::max(1, config_.rollout_threads);
    metrics.iterations.inc();
    metrics.episodes.inc(static_cast<std::uint64_t>(n));
    metrics.rollout_utilization.set(
        pool_utilization(rollout_cpu_seconds, rollout_seconds, threads));
    metrics.replay_utilization.set(
        pool_utilization(replay_cpu_seconds, replay_seconds, threads));
    metrics.iteration_us.observe(stats.total_seconds * 1e6);
  }
  return stats;
}

bool ReinforceTrainer::save_checkpoint(const std::string& path) const {
  io::BinaryWriter w(path);
  w.header(io::kTrainerMagic, io::kTrainerVersion);
  w.str(train_fingerprint(config_));
  io::write_agent_config(w, agent_.config());
  io::write_param_values(w, agent_.params());
  io::write_adam_state(w, adam_);
  w.i64(iteration_);
  w.f64(tau_mean_);
  w.f64(entropy_weight_);
  w.f64(reward_rate_.value());
  w.boolean(reward_rate_.initialized());
  w.str(rng_.state_string());
  return w.finish();
}

bool ReinforceTrainer::resume(const std::string& path) {
  io::BinaryReader r(path);
  if (!r.open_header(io::kTrainerMagic, io::kTrainerVersion)) return false;
  if (r.str() != train_fingerprint(config_) || !r.ok()) return false;
  const core::AgentConfig agent_config = io::read_agent_config(r);
  if (!r.ok() || !io::agent_config_equal(agent_config, agent_.config())) {
    return false;
  }
  // Stage every section, then commit all at once: a corrupt tail must not
  // leave the trainer half-restored.
  std::vector<nn::Matrix> param_values;
  if (!io::read_param_values_staged(r, agent_.params(), param_values)) {
    return false;
  }
  std::int64_t adam_steps = 0;
  std::vector<nn::Matrix> m, v;
  if (!io::read_adam_state_staged(r, adam_, &adam_steps, &m, &v)) return false;
  const std::int64_t iteration = r.i64();
  const double tau_mean = r.f64();
  const double entropy_weight = r.f64();
  const double reward_rate = r.f64();
  const bool reward_rate_initialized = r.boolean();
  const std::string rng_state = r.str();
  if (!r.ok() || !r.at_end()) return false;
  Rng restored_rng;
  if (!restored_rng.set_state_string(rng_state)) return false;

  auto& params = agent_.params().params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(param_values[i]);
  }
  agent_.params().bump_version();
  if (!adam_.restore_state(adam_steps, std::move(m), std::move(v))) {
    return false;  // unreachable: moment shapes were validated above
  }
  iteration_ = static_cast<int>(iteration);
  tau_mean_ = tau_mean;
  entropy_weight_ = entropy_weight;
  reward_rate_.restore(reward_rate, reward_rate_initialized);
  rng_ = restored_rng;
  return true;
}

std::vector<IterationStats> ReinforceTrainer::train() {
  std::vector<IterationStats> curve;
  curve.reserve(static_cast<std::size_t>(config_.num_iterations));
  for (int i = 0; i < config_.num_iterations; ++i) curve.push_back(iterate());
  return curve;
}

}  // namespace decima::rl
