#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "io/checkpoint.h"

namespace decima::bench {

int train_iters(int fallback) {
  return env_int("DECIMA_TRAIN_ITERS", fallback);
}
int bench_runs(int fallback) { return env_int("DECIMA_BENCH_RUNS", fallback); }

std::uint64_t scenario_seed(std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      env_int("DECIMA_SCENARIO_SEED", static_cast<int>(fallback)));
}

core::AgentConfig agent_with_seed(std::uint64_t seed) {
  core::AgentConfig c;
  c.seed = seed;
  return c;
}

void print_header(const std::string& figure, const std::string& description) {
  const std::string rule(62, '=');
  std::cout << rule << "\n"
            << "Reproduction of " << figure << "\n"
            << description << "\n"
            << "(training iterations and run counts are scaled down; set\n"
            << " DECIMA_TRAIN_ITERS / DECIMA_BENCH_RUNS to scale up)\n"
            << rule << "\n\n";
}

std::unique_ptr<core::DecimaAgent> trained_agent(
    const core::AgentConfig& agent_config, rl::TrainConfig train_config,
    const std::string& cache_key, int iters) {
  auto agent = std::make_unique<core::DecimaAgent>(agent_config);
  const std::string cache_path =
      "decima_cache_" + cache_key + "_" + std::to_string(iters) + ".model";
  if (std::filesystem::exists(cache_path) &&
      io::load_policy(*agent, cache_path)) {
    std::cout << "[bench] loaded cached policy " << cache_path << "\n";
  } else {
    std::cout << "[bench] training policy '" << cache_key << "' for " << iters
              << " iterations...\n";
    train_config.num_iterations = iters;
    rl::ReinforceTrainer trainer(*agent, train_config);
    trainer.train();
    if (io::save_policy(*agent, cache_path)) {
      std::cout << "[bench] cached policy at " << cache_path << "\n";
    }
  }
  agent->set_mode(core::Mode::kGreedy);
  return agent;
}

rl::WorkloadSampler tpch_batch_sampler(int num_jobs) {
  return [num_jobs](std::uint64_t seed) {
    Rng rng(seed);
    return workload::batched(workload::sample_tpch_batch(rng, num_jobs));
  };
}

rl::WorkloadSampler tpch_continuous_sampler(int num_jobs, double mean_iat) {
  return [num_jobs, mean_iat](std::uint64_t seed) {
    Rng rng(seed);
    auto jobs = workload::sample_tpch_batch(rng, num_jobs);
    Rng arr(rng.fork());
    return workload::continuous(std::move(jobs), arr, mean_iat);
  };
}

std::vector<sim::JobSpec> random_dag_jobs(int num_jobs, int num_nodes,
                                          std::uint64_t seed, int feat_dim) {
  std::vector<sim::JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(num_jobs));
  for (int i = 0; i < num_jobs; ++i) {
    const auto dag = gnn::random_job_graph(
        seed + static_cast<std::uint64_t>(i), num_nodes, feat_dim);
    std::vector<std::vector<int>> parents(static_cast<std::size_t>(num_nodes));
    for (int p = 0; p < num_nodes; ++p) {
      for (int child : dag.shape->children[static_cast<std::size_t>(p)]) {
        parents[static_cast<std::size_t>(child)].push_back(p);
      }
    }
    sim::JobBuilder b("dag" + std::to_string(i));
    for (int s = 0; s < num_nodes; ++s) {
      b.stage(2, 1.0, std::move(parents[static_cast<std::size_t>(s)]),
              /*mem_req=*/0.25);
    }
    jobs.push_back(b.build());
  }
  return jobs;
}

std::vector<double> eval_runs(sim::Scheduler& sched,
                              const sim::EnvConfig& env,
                              const rl::WorkloadSampler& sampler, int runs,
                              std::uint64_t seed_base) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    std::vector<std::vector<workload::ArrivingJob>> w = {
        sampler(seed_base + static_cast<std::uint64_t>(i))};
    out.push_back(metrics::evaluate_avg_jct(sched, env, w));
  }
  return out;
}

LatencyStats latency_from_samples(std::vector<double> samples_us) {
  LatencyStats out;
  if (samples_us.empty()) return out;
  std::sort(samples_us.begin(), samples_us.end());
  out.median_us = samples_us[samples_us.size() / 2];
  out.p95_us = samples_us[std::min(samples_us.size() - 1,
                                   samples_us.size() * 95 / 100)];
  out.samples = samples_us.size();
  return out;
}

LatencyStats time_reps(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return latency_from_samples(std::move(samples));
}

sim::Action TimedScheduler::schedule(const sim::ClusterEnv& env) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Action a = inner_.schedule(env);
  const auto t1 = std::chrono::steady_clock::now();
  samples_us_.push_back(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  return a;
}

namespace {
std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setfill('0') << std::setw(4)
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  return os.str();
}
}  // namespace

void BenchJson::set(const std::string& key, double value) {
  std::ostringstream os;
  if (std::isfinite(value)) {
    os.precision(12);
    os << value;
  } else {
    os << "null";  // NaN/Inf are not valid JSON tokens
  }
  entries_.emplace_back(key, os.str());
}

void BenchJson::set(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

std::string BenchJson::write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out << "  \"" << json_escape(entries_[i].first)
        << "\": " << entries_[i].second
        << (i + 1 < entries_.size() ? "," : "") << "\n";
  }
  out << "}\n";
  return out ? path : "";
}

}  // namespace decima::bench
