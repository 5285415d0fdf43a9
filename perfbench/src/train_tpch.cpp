// train_tpch: Algorithm 1 iterations from a fresh agent on a 2-worker
// rollout pool. Loads rl, the replay tape and backward pass, Adam and
// util::WorkerPool; bypasses serve, and gnn runs uncached in replay.
#include <atomic>
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/agent.h"
#include "gnn/features.h"
#include "gnn/graph_embedding.h"
#include "harness.h"
#include "nn/adam.h"
#include "rl/reinforce.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using decima::core::DecimaAgent;
using decima::rl::IterationStats;
using decima::rl::ReinforceTrainer;
using decima::sim::ClusterEnv;

constexpr int kExecutors = 25;
constexpr int kJobs = 40;
constexpr double kMeanIat = 30.0;
constexpr int kEpisodesPerIter = 4;
constexpr int kRolloutThreads = 2;
// The agent and the trainer keep fixed seeds, so every run trains on the
// same curriculum of episode lengths; --seed picks the job sequences.
constexpr std::uint64_t kAgentSeed = 42;
// The timed phase repeats the first kCycleIterations iterations of a fresh
// trainer: each cycle resumes the checkpoint set-up writes before its
// warm-up. Left alone, the curriculum makes every later iteration longer, so
// a faster trainer would be measured on larger iterations; cycles keep the
// work the same however fast the trainer runs. Cycle c draws the job sequences of variant
// c % kCycleVariants, and a run completes at least kCycleVariants cycles,
// so every run of a seed trains on the same inputs.
constexpr int kCycleIterations = 8;
constexpr int kCycleVariants = 6;
constexpr int kSetupRepeats = 3;
// Iterations of set-up's warm-up, on inputs that are the same on every seed.
constexpr int kWarmupIterations = 4;
constexpr int kAdamStepsPerIteration = 16;

enum Stream : std::uint64_t { kJobStream = 1, kProbeStream = 2 };

decima::core::AgentConfig agent_config(const Options& opts) {
  decima::core::AgentConfig c;
  c.seed = kAgentSeed;
  if (opts.probe == "batched_replay_off") c.batched_replay = false;
  return c;
}

decima::sim::EnvConfig env_config(std::uint64_t seed) {
  decima::sim::EnvConfig c;
  c.num_executors = kExecutors;
  c.seed = seed;
  return c;
}

// The trainer's job sequences: 40 TPC-H jobs, Poisson arrivals, drawn from
// the run seed, the cycle and the trainer's per-iteration seed. Cycle 0 is
// set-up's warm-up iteration, whose jobs are the same on every seed. When
// `generate_ns` is set, the time spent generating is added to it.
decima::rl::TrainConfig train_config(std::uint64_t seed,
                                     const std::atomic<std::uint64_t>* cycle,
                                     std::atomic<std::int64_t>* generate_ns) {
  decima::rl::TrainConfig t;
  t.episodes_per_iter = kEpisodesPerIter;
  t.rollout_threads = kRolloutThreads;
  t.env = env_config(1);
  t.sampler = [seed, cycle, generate_ns](std::uint64_t s) {
    const auto t0 = Clock::now();
    const std::uint64_t c = cycle->load();
    auto jobs = tpch_poisson(
        derive_seed(c == 0 ? kWarmupSeed : seed, kJobStream + c, s), kJobs,
        kMeanIat);
    if (generate_ns != nullptr) {
      generate_ns->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - t0)
                                 .count());
    }
    return jobs;
  };
  return t;
}

struct Training {
  // Read by the sampler on the pool's workers, written between iterations.
  std::unique_ptr<std::atomic<std::uint64_t>> cycle;
  std::unique_ptr<DecimaAgent> agent;
  std::unique_ptr<ReinforceTrainer> trainer;
};

void check_stats(const IterationStats& s) {
  const std::string it = "train_tpch iteration " + std::to_string(s.iteration);
  check(std::isfinite(s.grad_norm), it + " has a non-finite grad_norm");
  check(std::isfinite(s.mean_total_reward) && std::isfinite(s.mean_avg_jct),
        it + " has non-finite stats");
  const double sum = s.rollout_seconds + s.replay_seconds + s.step_seconds;
  check(std::abs(sum - s.total_seconds) <= 1e-9 * std::max(1.0, s.total_seconds),
        it + " breaks rollout + replay + step == total_seconds");
}

// A fresh agent and trainer, the checkpoint every timed cycle starts from,
// and the warm-up iterations.
Training set_up(const Options& opts, const std::string& checkpoint,
                std::atomic<std::int64_t>* generate_ns) {
  Training t;
  t.cycle = std::make_unique<std::atomic<std::uint64_t>>(0);
  t.agent = std::make_unique<DecimaAgent>(agent_config(opts));
  t.trainer = std::make_unique<ReinforceTrainer>(
      *t.agent, train_config(opts.seed, t.cycle.get(), generate_ns));
  check(t.trainer->save_checkpoint(checkpoint), "cannot write " + checkpoint);
  for (int i = 0; i < kWarmupIterations; ++i) check_stats(t.trainer->iterate());
  return t;
}

// Calls fn(i) for iterations i of whole cycles, until `seconds` have passed
// (`exact` > 0: exactly that many iterations); returns the wall time.
template <typename Fn>
double run_cycles(Training& t, const std::string& checkpoint, double seconds,
                  std::size_t exact, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % kCycleIterations == 0) {
      const std::size_t cycle = i / kCycleIterations;
      if (exact > 0 ? i >= exact
                    : cycle >= kCycleVariants &&
                          seconds_between(t0, Clock::now()) >= seconds) {
        break;
      }
      check(t.trainer->resume(checkpoint),
            "cannot resume the trainer from " + checkpoint);
      t.cycle->store(1 + cycle % kCycleVariants);
    }
    fn(i);
  }
  return seconds_between(t0, Clock::now());
}

std::uint64_t params_checksum(const DecimaAgent& agent) {
  std::vector<double> values;
  for (const decima::nn::Param* p : agent.params().params()) {
    values.insert(values.end(), p->value.data(), p->value.data() + p->value.size());
  }
  return checksum(values);
}

// The sampled rollout probe's scheduler: the agent in kSample mode, one
// core.sample span per decision, and the extracted state kept for the
// embedding probe.
class SamplingProbe : public decima::sim::Scheduler {
 public:
  SamplingProbe(DecimaAgent& agent, SpanLog* log, std::uint64_t id,
                std::vector<std::vector<decima::gnn::JobGraph>>& states)
      : agent_(agent), log_(log), id_(id), states_(states) {}
  decima::sim::Action schedule(const ClusterEnv& env) override {
    decima::sim::Action a;
    {
      ScopedSpan span(log_, "core.sample", id_);
      a = agent_.schedule(env);
    }
    ScopedSpan span(log_, "gnn.extract", id_);
    auto graphs = decima::gnn::extract_graphs(env, agent_.config().features);
    // No arrived job yet: nothing to embed.
    if (!graphs.empty()) states_.push_back(std::move(graphs));
    return a;
  }
  std::string name() const override { return "perfbench-sample"; }

 private:
  DecimaAgent& agent_;
  SpanLog* log_;
  std::uint64_t id_;
  std::vector<std::vector<decima::gnn::JobGraph>>& states_;
};

// Outside-in layer probes run after each traced iteration, on a clone of
// the trained agent and on benchmark-owned GNN and optimizer objects.
class LayerProbes {
 public:
  LayerProbes(const DecimaAgent& master, std::uint64_t seed)
      : seed_(seed),
        probe_(master.clone()),
        embedding_(gnn_config(master.config()), embedding_rng_),
        embedding_params_(embedding_.param_set()),
        adam_(&probe_->params()) {}

  // `id` names the traced iteration (and picks the probe's inputs).
  void run(const DecimaAgent& master, const IterationStats& stats,
           std::uint64_t id, SpanLog* log) {
    probe_->snapshot_params_from(master);
    const auto jobs =
        tpch_poisson(derive_seed(seed_, kProbeStream, id), kJobs, kMeanIat);
    const decima::sim::EnvConfig env_cfg =
        env_config(derive_seed(seed_, kProbeStream, id + (1ULL << 32)));

    // Sampled rollout over one iteration's workload.
    std::vector<std::vector<decima::gnn::JobGraph>> states;
    probe_->set_mode(decima::core::Mode::kSample);
    probe_->set_sample_seed(id);
    probe_->start_recording();
    {
      ClusterEnv env(env_cfg);
      decima::workload::load(env, jobs);
      SamplingProbe sampler(*probe_, log, id, states);
      ScopedSpan span(log, "sim.run", id);
      env.run(sampler, stats.tau);
    }
    std::vector<decima::core::RecordedAction> actions = probe_->take_recorded();

    // Replay of the recorded actions.
    const auto t0 = Clock::now();
    {
      ScopedSpan span(log, "core.replay", id);
      ClusterEnv env(env_cfg);
      decima::workload::load(env, jobs);
      probe_->params().zero_grads();
      const std::size_t n = actions.size();
      probe_->start_replay(std::move(actions), std::vector<double>(n, 1.0),
                           0.2);
      env.run(*probe_, stats.tau);
      probe_->finish_replay();
      replay_actions_ += n;
    }
    replay_s_ += seconds_between(t0, Clock::now());

    // Gradient-tracking embedding and backward over replay-sized chunks.
    const std::size_t chunk = 8;  // AgentConfig::replay_batch default
    for (std::size_t begin = 0; begin < states.size(); begin += chunk) {
      const std::size_t end = std::min(states.size(), begin + chunk);
      std::vector<const decima::gnn::JobGraph*> graphs;
      std::vector<std::size_t> event_of_graph;
      for (std::size_t e = begin; e < end; ++e) {
        for (const auto& g : states[e]) {
          graphs.push_back(&g);
          event_of_graph.push_back(e - begin);
        }
      }
      decima::nn::Tape tape(true);
      decima::nn::Var loss;
      {
        ScopedSpan span(log, "gnn.embed_episode", id);
        const auto emb =
            embedding_.embed_episode(tape, graphs, event_of_graph, end - begin);
        const decima::nn::Var ones = tape.constant(decima::nn::Matrix(
            static_cast<std::size_t>(embedding_.config().emb_dim), 1, 1.0));
        loss = tape.matmul(tape.sum_rows(emb.global_mat), ones);
      }
      {
        ScopedSpan span(log, "nn.backward", id);
        tape.backward(loss);
      }
      embedded_events_ += end - begin;
    }
    embedding_params_.zero_grads();

    for (int k = 0; k < kAdamStepsPerIteration; ++k) {
      ScopedSpan span(log, "nn.adam", id);
      adam_.step();
    }
  }

  double replay_per_action_us() const {
    return replay_actions_ == 0 ? 0.0 : replay_s_ * 1e6 / replay_actions_;
  }
  std::size_t embedded_events() const { return embedded_events_; }

 private:
  static decima::gnn::GnnConfig gnn_config(const decima::core::AgentConfig& a) {
    decima::gnn::GnnConfig g;
    g.feat_dim = a.features.dim();
    g.emb_dim = a.emb_dim;
    g.two_level_aggregation = a.two_level_aggregation;
    return g;
  }

  std::uint64_t seed_;
  std::unique_ptr<DecimaAgent> probe_;
  decima::Rng embedding_rng_{kAgentSeed};
  decima::gnn::GraphEmbedding embedding_;
  decima::nn::ParamSet embedding_params_;
  decima::nn::Adam adam_;
  double replay_s_ = 0.0;
  std::size_t replay_actions_ = 0;
  std::size_t embedded_events_ = 0;
};

}  // namespace

void run_train_tpch(const Options& opts, Report& report) {
  const std::string checkpoint = work_file(opts, ".ckpt");
  std::vector<double> setup_s;
  Training t;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    t = set_up(opts, checkpoint, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed: whole cycles until the window has passed.
  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<double> iteration_us, jcts;
  // The host slowdown comes from the matrix kernel, sampled on this thread
  // before the first timed iteration and after each one; the ring walk does
  // not follow the trainer's speed (NOTES.md, "Host speed").
  const HostSpeed host(HostSpeed::Kernel::kMatmul);
  std::vector<double> host_ns{host.sample_ns()};
  // Per cycle: iterate() wall time, as measured and scaled to the reference
  // host speed, and decisions trained.
  std::vector<double> cycle_us, cycle_scaled_us, cycle_decisions;
  std::uint64_t params_sum = 0;
  double decisions = 0.0, busy_us = 0.0, scaled_busy_us = 0.0;
  const double wall = run_cycles(t, checkpoint, window, 0, [&](std::size_t i) {
    const auto a = Clock::now();
    const IterationStats s = t.trainer->iterate();
    iteration_us.push_back(us_between(a, Clock::now()));
    host_ns.push_back(host.sample_ns());
    check_stats(s);
    const double scaled_us =
        iteration_us.back() / host.slowdown({host_ns[i], host_ns[i + 1]});
    busy_us += iteration_us.back();
    scaled_busy_us += scaled_us;
    decisions += s.total_actions;
    if (i % kCycleIterations == 0) {
      cycle_us.push_back(0.0);
      cycle_scaled_us.push_back(0.0);
      cycle_decisions.push_back(0.0);
    }
    cycle_us.back() += iteration_us.back();
    cycle_scaled_us.back() += scaled_us;
    cycle_decisions.back() += s.total_actions;
    if (i < static_cast<std::size_t>(kCycleIterations)) {
      jcts.push_back(s.mean_avg_jct);
      if (i + 1 == static_cast<std::size_t>(kCycleIterations)) {
        params_sum = params_checksum(*t.agent);
      }
    }
  });
  // iterate() calls over the time spent in iterate() (not in the resume()
  // between cycles); every run repeats the same iterations (cycles), so a
  // faster trainer is not given larger ones.
  const double iterations = static_cast<double>(iteration_us.size());
  const double iterations_per_s = iterations / (busy_us * 1e-6);
  // Training has no per-decision latency of its own: a decision costs its
  // cycle's iterate() time per decision trained, median over cycles (the
  // reciprocal of the cycle's decisions trained per second).
  std::vector<double> per_decision_us, scaled_per_decision_us;
  for (std::size_t c = 0; c < cycle_us.size(); ++c) {
    per_decision_us.push_back(cycle_us[c] / cycle_decisions[c]);
    scaled_per_decision_us.push_back(cycle_scaled_us[c] / cycle_decisions[c]);
  }
  report.attempted = iteration_us.size();
  report.note("train_tpch: iterations=" + std::to_string(iteration_us.size()) +
              " failed_share=0 decisions_per_s=" +
              format_double(decisions / (busy_us * 1e-6)) +
              " iteration_p50_us=" +
              format_double(decima::percentile(iteration_us, 50)) +
              " iteration_p99_us=" +
              format_double(decima::percentile(iteration_us, 99)) +
              " peak_rss_mb=" + format_double(peak_rss_mb()));
  report.note("train_tpch: as measured: iterations_per_s=" +
              format_double(iterations_per_s) +
              " decision_p50_us=" +
              format_double(decima::percentile(per_decision_us, 50)) +
              " host_slowdown=" + format_double(host.slowdown(host_ns)));
  report.note("train_tpch: first cycle of " + std::to_string(kCycleIterations) +
              " iterations: params_checksum=" + std::to_string(params_sum) +
              " rollout_avg_jct_s=" + format_double(decima::mean_of(jcts)));

  if (!opts.trace) {
    std::remove(checkpoint.c_str());
    report.metric("setup_s", decima::percentile(setup_s, 50), "s");
    report.metric("throughput_per_s", iterations / (scaled_busy_us * 1e-6),
                  "1/s");
    report.metric("decision_p50_us",
                  decima::percentile(scaled_per_decision_us, 50), "us");
    return;
  }

  // Traced pass: a second fresh trainer runs the same iterations, each
  // followed by the layer probes.
  std::atomic<std::int64_t> generate_ns{0};
  Training traced = set_up(opts, checkpoint, &generate_ns);
  generate_ns.store(0);
  LayerProbes probes(*traced.agent, opts.seed);
  SpanLog log(0, Clock::now());
  std::vector<IterationStats> stats;
  const double traced_wall = run_cycles(
      traced, checkpoint, 0.0, iteration_us.size(), [&](std::size_t i) {
        const auto id = static_cast<std::uint64_t>(i);
        ScopedSpan root(&log, "bench.iteration", id);
        const int iterate_span = log.open("rl.iterate", id);
        const auto start = Clock::now();
        const IterationStats s = traced.trainer->iterate();
        // The phases are consecutive spans measured inside iterate().
        auto at = start;
        for (const auto& [name, seconds] :
             {std::pair<const char*, double>{"rl.rollout", s.rollout_seconds},
              {"rl.replay", s.replay_seconds},
              {"rl.step", s.step_seconds}}) {
          const auto next = at + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
          log.add(name, id, at, next);
          at = next;
        }
        log.close(iterate_span);
        check_stats(s);
        stats.push_back(s);
        probes.run(*traced.agent, s, id, &log);
      });
  std::remove(checkpoint.c_str());
  const std::string out = work_file(opts, ".trace.json");
  check(write_chrome_trace(out, {&log}, 100000), "cannot write " + out);
  report.note("trace: " + out);

  const SelfTimes self = self_times({&log});
  const double n = static_cast<double>(stats.size());
  double rollout = 0, replay = 0, step = 0, cpu = 0, actions = 0;
  for (const IterationStats& s : stats) {
    rollout += s.rollout_seconds;
    replay += s.replay_seconds;
    step += s.step_seconds;
    cpu += s.rollout_cpu_seconds + s.replay_cpu_seconds;
    actions += s.total_actions;
  }
  const double events = static_cast<double>(probes.embedded_events());
  report.metric("rl.rollout_s", rollout / n, "s");
  report.metric("rl.replay_s", replay / n, "s");
  report.metric("rl.step_s", step / n, "s");
  report.metric("rl.pool_utilization",
                cpu / (kRolloutThreads * (rollout + replay)), "ratio");
  report.metric("rl.actions_per_iter", actions / n, "count");
  report.metric("core.sample_p50_us", self.percentile("core.sample", 50), "us");
  report.metric("core.sample_p99_us", self.percentile("core.sample", 99), "us");
  report.metric("gnn.extract_p50_us", self.percentile("gnn.extract", 50), "us");
  report.metric("core.replay_per_action_us", probes.replay_per_action_us(), "us");
  report.metric("gnn.embed_episode_per_event_us",
                self.total_s("gnn.embed_episode") * 1e6 / events, "us");
  report.metric("nn.backward_per_event_us",
                self.total_s("nn.backward") * 1e6 / events, "us");
  report.metric("nn.adam_step_us", self.percentile("nn.adam", 50), "us");
  report.metric("workload.generate_s",
                static_cast<double>(generate_ns.load()) * 1e-9 / n, "s");
  report.metric("trace.coverage", self.layer_seconds / traced_wall, "ratio");
  report.metric("trace.wall_ratio", traced_wall / wall, "ratio");
}

}  // namespace perfbench
