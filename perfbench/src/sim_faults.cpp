// sim_faults: the heuristic SJF-CP baseline on a faulty 100-executor
// cluster, single-threaded. Loads sim (event loop, kill and reschedule),
// sched and workload; bypasses nn, gnn, core and serve, so it is the
// workload predicted flat for every inference or training optimisation.
#include <optional>

#include "harness.h"
#include "sched/heuristics.h"
#include "sim/validate.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using decima::sim::ClusterEnv;

constexpr int kExecutors = 100;
constexpr int kJobs = 200;
constexpr double kMeanIat = 15.0;
constexpr int kFailures = 10;
constexpr double kFailureWindow = 3000.0;
constexpr double kMeanDowntime = 300.0;
constexpr double kStragglerProb = 0.05;
constexpr double kStragglerFactor = 8.0;
// Distinct episodes generated at set-up; a run cycles through them.
constexpr int kEpisodePool = 64;
// The determinism figures (average JCT) cover episodes [0, kJctEpisodes),
// which every run completes.
constexpr int kJctEpisodes = 16;
constexpr int kSetupRepeats = 5;
// Warm-up episodes per set-up, the same on every seed: enough simulation that
// it, not the allocation-bound input generation, sets the set-up time.
constexpr int kWarmupEpisodes = 4;

enum Stream : std::uint64_t { kJobStream = 1, kFaultStream = 2, kEnvStream = 3 };

struct Episode {
  std::vector<decima::workload::ArrivingJob> jobs;
  decima::sim::EnvConfig env;
};

// Episode `index` of the inputs drawn from `seed`.
Episode make_episode(std::uint64_t seed, std::uint64_t index) {
  Episode e;
  e.jobs = tpch_poisson(derive_seed(seed, kJobStream, index), kJobs, kMeanIat);
  e.env.num_executors = kExecutors;
  e.env.seed = derive_seed(seed, kEnvStream, index);
  decima::Rng rng(derive_seed(seed, kFaultStream, index));
  e.env.faults.failures = decima::sim::random_failures(
      rng, kExecutors, kFailures, kFailureWindow, kMeanDowntime);
  e.env.faults.stragglers = {kStragglerProb, kStragglerFactor};
  e.env.faults.seed = rng.fork();
  return e;
}

std::vector<Episode> generate(std::uint64_t seed) {
  std::vector<Episode> pool;
  for (int i = 0; i < kEpisodePool; ++i) {
    pool.push_back(make_episode(seed, static_cast<std::uint64_t>(i)));
  }
  return pool;
}

// SJF-CP with one span per schedule() call (traced runs).
class SpannedScheduler : public decima::sim::Scheduler {
 public:
  SpannedScheduler(decima::sim::Scheduler& inner, SpanLog* log,
                   std::uint64_t id)
      : inner_(inner), log_(log), id_(id) {}
  decima::sim::Action schedule(const ClusterEnv& env) override {
    ScopedSpan span(log_, "sched.schedule", id_);
    return inner_.schedule(env);
  }
  std::string name() const override { return inner_.name(); }

 private:
  decima::sim::Scheduler& inner_;
  SpanLog* log_;
  std::uint64_t id_;
};

struct EpisodeResult {
  double sim_us = 0.0;  // env construction, job load and run
  double sim_cpu_us = 0.0;  // the same in thread CPU time
  double avg_jct = 0.0;
  std::size_t events = 0;
  std::size_t scheduling_events = 0;
  std::size_t killed = 0;
  // Percentiles of the episode's SJF-CP decision latencies, as the
  // simulator records them for every schedule() call.
  double decision_p50_us = 0.0;
  double decision_p99_us = 0.0;
  std::size_t decisions = 0;
};

// Simulates episode `index` of the run and checks its trace.
EpisodeResult run_episode(const std::vector<Episode>& pool, std::size_t index,
                          SpanLog* log) {
  const Episode& ep = pool[index % pool.size()];
  ScopedSpan root(log, "bench.episode", index);
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  std::optional<ClusterEnv> env;
  {
    ScopedSpan span(log, "sim.load", index);
    env.emplace(ep.env);
    decima::workload::load(*env, ep.jobs);
  }
  decima::sched::SjfCpScheduler sjf;
  {
    ScopedSpan span(log, "sim.run", index);
    if (log != nullptr) {
      SpannedScheduler spanned(sjf, log, index);
      env->run(spanned);
    } else {
      env->run(sjf);
    }
  }
  EpisodeResult r;
  r.sim_cpu_us = (thread_cpu_s() - cpu0) * 1e6;
  r.sim_us = us_between(t0, Clock::now());
  {
    ScopedSpan span(log, "sim.validate", index);
    std::string err;
    check(decima::sim::validate_trace(*env, &err),
          "sim_faults episode " + std::to_string(index) +
              " fails validate_trace: " + err);
    check(env->all_done(), "sim_faults episode " + std::to_string(index) +
                               " left jobs unfinished");
  }
  r.avg_jct = env->avg_jct();
  r.events = env->num_events_processed();
  r.scheduling_events = env->action_times().size();
  for (const auto& rec : env->trace()) r.killed += rec.killed ? 1 : 0;
  const std::vector<double>& latency_s = env->decision_latencies();
  r.decision_p50_us = decima::percentile(latency_s, 50) * 1e6;
  r.decision_p99_us = decima::percentile(latency_s, 99) * 1e6;
  r.decisions = latency_s.size();
  return r;
}

struct Pass {
  std::vector<EpisodeResult> episodes;
  // With a HostSpeed: kernel samples before the first episode and after
  // every episode, so episode i lies between samples i and i + 1.
  std::vector<double> host_ns;
  double wall_s = 0.0;
};

// Episodes back to back: until `seconds` have passed and at least
// `min_episodes` ran, or exactly `exact` episodes when that is > 0.
Pass run_pass(const std::vector<Episode>& pool, double seconds,
              std::size_t min_episodes, std::size_t exact, SpanLog* log,
              const HostSpeed* host) {
  Pass p;
  const auto t0 = Clock::now();
  if (host != nullptr) p.host_ns.push_back(host->sample_ns());
  for (std::size_t i = 0;; ++i) {
    if (exact > 0 ? i >= exact
                  : (i >= min_episodes && seconds_between(t0, Clock::now()) >= seconds)) {
      break;
    }
    p.episodes.push_back(run_episode(pool, i, log));
    if (host != nullptr) p.host_ns.push_back(host->sample_ns());
  }
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

}  // namespace

void run_sim_faults(const Options& opts, Report& report) {
  // Set-up: input generation and the warm-up episodes, repeated; the median
  // repetition, scaled to the reference host speed, is setup_s.
  const HostSpeed host(HostSpeed::Kernel::kRingWalk);
  std::vector<double> setup_s, raw_setup_s, generate_s;
  std::vector<Episode> pool;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double host_before = host.sample_ns();
    const auto t0 = Clock::now();
    pool = generate(opts.seed);
    std::vector<Episode> warmup;
    for (int i = 0; i < kWarmupEpisodes; ++i) {
      warmup.push_back(make_episode(kWarmupSeed, static_cast<std::uint64_t>(i)));
    }
    generate_s.push_back(seconds_between(t0, Clock::now()));
    for (std::size_t i = 0; i < warmup.size(); ++i) {
      run_episode(warmup, i, nullptr);
    }
    raw_setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_s.push_back(raw_setup_s.back() /
                      host.slowdown({host_before, host.sample_ns()}));
  }

  const Pass timed = run_pass(pool, opts.trace ? opts.seconds / 2 : opts.seconds,
                              kJctEpisodes, 0, nullptr, &host);
  // Per episode: events per second of the simulating thread's CPU time (a
  // stall of its vCPU does not count) and decision latency, as measured and
  // scaled by the host slowdown sampled either side of the episode.
  std::vector<double> rate, p50_us, p99_us, jcts, raw_rate, raw_p50_us;
  double sim_us = 0.0, events = 0.0;
  std::size_t decisions = 0;
  for (std::size_t i = 0; i < timed.episodes.size(); ++i) {
    const EpisodeResult& r = timed.episodes[i];
    const double slow = host.slowdown({timed.host_ns[i], timed.host_ns[i + 1]});
    raw_rate.push_back(static_cast<double>(r.events) / (r.sim_cpu_us * 1e-6));
    raw_p50_us.push_back(r.decision_p50_us);
    rate.push_back(raw_rate.back() * slow);
    p50_us.push_back(r.decision_p50_us / slow);
    p99_us.push_back(r.decision_p99_us);
    decisions += r.decisions;
    sim_us += r.sim_us;
    events += static_cast<double>(r.events);
  }
  for (int i = 0; i < kJctEpisodes; ++i) {
    jcts.push_back(timed.episodes[static_cast<std::size_t>(i)].avg_jct);
  }
  report.attempted = timed.episodes.size();
  report.note("sim_faults: episodes=" + std::to_string(timed.episodes.size()) +
              " events=" + format_double(events) + " events_per_s=" +
              format_double(events / (sim_us * 1e-6)) + " decisions=" +
              std::to_string(decisions) + " failed_share=0 decision_p99_us=" +
              format_double(decima::percentile(p99_us, 50)) +
              " peak_rss_mb=" + format_double(peak_rss_mb()));
  report.note("sim_faults: as measured: setup_s=" +
              format_double(decima::percentile(raw_setup_s, 50)) +
              " events_per_s_p50=" +
              format_double(decima::percentile(raw_rate, 50)) +
              " decision_p50_us=" +
              format_double(decima::percentile(raw_p50_us, 50)) +
              " host_slowdown=" + format_double(host.slowdown(timed.host_ns)));
  report.note("sim_faults: first " + std::to_string(kJctEpisodes) +
              " episodes: jct_checksum=" + std::to_string(checksum(jcts)) +
              " avg_jct_s=" + format_double(decima::mean_of(jcts)));

  if (!opts.trace) {
    report.metric("setup_s", decima::percentile(setup_s, 50), "s");
    report.metric("throughput_per_s", decima::percentile(rate, 50), "1/s");
    report.metric("decision_p50_us", decima::percentile(p50_us, 50), "us");
    return;
  }

  // Traced pass over exactly the episodes the untraced pass ran.
  SpanLog log(0, Clock::now());
  const Pass traced =
      run_pass(pool, 0.0, 0, timed.episodes.size(), &log, nullptr);
  const std::string out = work_file(opts, ".trace.json");
  check(write_chrome_trace(out, {&log}, 100000), "cannot write " + out);
  report.note("trace: " + out);

  const SelfTimes self = self_times({&log});
  const double n = static_cast<double>(traced.episodes.size());
  double events_t = 0.0, sched_events = 0.0, killed = 0.0;
  for (const EpisodeResult& r : traced.episodes) {
    events_t += static_cast<double>(r.events);
    sched_events += static_cast<double>(r.scheduling_events);
    killed += static_cast<double>(r.killed);
  }
  report.metric("sched.schedule_p50_us", self.percentile("sched.schedule", 50),
                "us");
  report.metric("sched.schedule_p99_us", self.percentile("sched.schedule", 99),
                "us");
  report.metric("sched.decisions",
                static_cast<double>(self.of("sched.schedule").size()) / n,
                "count");
  report.metric("sim.self_s",
                (self.total_s("sim.run") + self.total_s("sim.load")) / n, "s");
  report.metric("sim.events", events_t / n, "count");
  report.metric("sim.scheduling_events", sched_events / n, "count");
  report.metric("sim.killed_tasks", killed / n, "count");
  report.metric("workload.generate_s", decima::percentile(generate_s, 50), "s");
  report.metric("trace.coverage", self.layer_seconds / traced.wall_s, "ratio");
  report.metric("trace.wall_ratio", traced.wall_s / timed.wall_s, "ratio");
}

}  // namespace perfbench
