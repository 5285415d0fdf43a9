// sim::JobShape is derived once per job and read at every decision. These
// tests pin it against the per-decision derivations it replaced: the shape's
// fields equal an on-demand oracle bit for bit, the heuristics that read it
// take the same actions as oracle schedulers that re-derive everything at
// every call, and graphs that share it stay valid after their env is gone.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>

#include "gnn/embedding_cache.h"
#include "gnn/graph_embedding.h"
#include "rl/objectives.h"
#include "sched/heuristics.h"
#include "sim/faults.h"
#include "workload/arrivals.h"
#include "workload/tpch.h"

namespace decima {
namespace {

// --- On-demand oracle: every fact re-derived from the spec per call ---------

namespace oracle {

std::vector<std::vector<int>> children(const sim::JobSpec& spec) {
  std::vector<std::vector<int>> out(spec.stages.size());
  for (std::size_t v = 0; v < spec.stages.size(); ++v) {
    for (int p : spec.stages[v].parents) {
      out[static_cast<std::size_t>(p)].push_back(static_cast<int>(v));
    }
  }
  return out;
}

std::vector<int> topo_order(const sim::JobSpec& spec) {
  const std::size_t n = spec.stages.size();
  std::vector<int> indegree(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<int>(spec.stages[v].parents.size());
  }
  const auto kids = children(spec);
  std::vector<int> order;
  std::vector<int> frontier;
  for (std::size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) frontier.push_back(static_cast<int>(v));
  }
  while (!frontier.empty()) {
    const int v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (int c : kids[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) frontier.push_back(c);
    }
  }
  return order;
}

// Longest chain below each node, by `weight(v)`.
template <typename Weight>
std::vector<double> chain(const sim::JobSpec& spec, Weight weight) {
  const auto order = topo_order(spec);
  const auto kids = children(spec);
  std::vector<double> out(spec.stages.size(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    double best_child = 0.0;
    for (int c : kids[v]) {
      best_child = std::max(best_child, out[static_cast<std::size_t>(c)]);
    }
    out[v] = weight(v) + best_child;
  }
  return out;
}

std::vector<double> critical_path(const sim::JobSpec& spec) {
  return chain(spec, [&](std::size_t v) { return spec.stages[v].work(); });
}

double critical_path_duration(const sim::JobSpec& spec) {
  double best = 0.0;
  for (double x : chain(spec, [&](std::size_t v) {
         return spec.stages[v].task_duration;
       })) {
    best = std::max(best, x);
  }
  return best;
}

double total_work(const sim::JobSpec& spec) {
  double w = 0.0;
  for (const sim::StageSpec& s : spec.stages) w += s.work();
  return w;
}

std::vector<std::vector<std::size_t>> levelize(const sim::JobSpec& spec) {
  const std::size_t n = spec.stages.size();
  const auto order = topo_order(spec);
  const auto kids = children(spec);
  std::vector<int> depth(n, 0);
  int max_depth = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    int d = 0;
    for (int u : kids[v]) {
      d = std::max(d, depth[static_cast<std::size_t>(u)] + 1);
    }
    depth[v] = d;
    max_depth = std::max(max_depth, d);
  }
  std::vector<std::vector<std::size_t>> levels(
      static_cast<std::size_t>(max_depth) + 1);
  for (std::size_t v = 0; v < n; ++v) {
    levels[static_cast<std::size_t>(depth[v])].push_back(v);
  }
  return levels;
}

}  // namespace oracle

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_shape_matches_oracle(const sim::JobSpec& spec) {
  SCOPED_TRACE(spec.name);
  const auto shape = sim::JobShape::of(spec);
  EXPECT_EQ(shape->children, oracle::children(spec));
  EXPECT_EQ(shape->topo, oracle::topo_order(spec));
  EXPECT_EQ(shape->levels, oracle::levelize(spec));
  const auto cp = oracle::critical_path(spec);
  ASSERT_EQ(shape->critical_path.size(), cp.size());
  for (std::size_t v = 0; v < cp.size(); ++v) {
    EXPECT_TRUE(same_bits(shape->critical_path[v], cp[v])) << "stage " << v;
  }
  EXPECT_TRUE(same_bits(shape->critical_path_duration,
                        oracle::critical_path_duration(spec)));
  EXPECT_TRUE(same_bits(shape->total_work, oracle::total_work(spec)));
}

// A valid random DAG whose stage indices are a random permutation of a
// layered order, so parents may sit at higher indices than their children.
sim::JobSpec random_spec(Rng& rng, int id) {
  const int n = rng.uniform_int(1, 40);
  std::vector<int> label(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(label[static_cast<std::size_t>(i)],
              label[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  sim::JobSpec spec;
  spec.name = "random" + std::to_string(id);
  spec.stages.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sim::StageSpec& s = spec.stages[static_cast<std::size_t>(label[
        static_cast<std::size_t>(i)])];
    s.num_tasks = rng.uniform_int(1, 60);
    s.task_duration = rng.uniform(0.05, 20.0);
    const int draws = i > 0 ? rng.uniform_int(0, 3) : 0;
    for (int e = 0; e < draws; ++e) {
      const int p = label[static_cast<std::size_t>(rng.uniform_int(0, i - 1))];
      if (std::find(s.parents.begin(), s.parents.end(), p) ==
          s.parents.end()) {
        s.parents.push_back(p);
      }
    }
  }
  return spec;
}

TEST(JobShape, MatchesOnDemandDerivationsOnRandomDags) {
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    const sim::JobSpec spec = random_spec(rng, i);
    ASSERT_TRUE(spec.validate());
    expect_shape_matches_oracle(spec);
  }
}

TEST(JobShape, MatchesOnDemandDerivationsOnTpch) {
  ASSERT_EQ(workload::tpch_sizes().size(), 6u);
  for (int q = 1; q <= workload::kNumTpchQueries; ++q) {
    for (double size : workload::tpch_sizes()) {
      expect_shape_matches_oracle(workload::make_tpch_job(q, size));
    }
  }
}

// --- Oracle heuristics: the same policies, re-deriving per decision ---------

namespace oracle {

// Full scans of the env's state, so the oracles read none of the indexes
// the simulator keeps.
std::vector<int> runnable_jobs(const sim::ClusterEnv& env) {
  std::vector<int> out;
  for (std::size_t j = 0; j < env.jobs().size(); ++j) {
    const sim::JobState& job = env.jobs()[j];
    if (!job.arrived || job.done()) continue;
    for (const sim::StageState& st : job.stages) {
      if (st.runnable()) {
        out.push_back(static_cast<int>(j));
        break;
      }
    }
  }
  return out;
}

std::vector<sched::NodeRef> runnable_nodes(const sim::ClusterEnv& env) {
  std::vector<sched::NodeRef> out;
  for (int j : runnable_jobs(env)) {
    const sim::JobState& job = env.jobs()[static_cast<std::size_t>(j)];
    for (std::size_t v = 0; v < job.stages.size(); ++v) {
      if (job.stages[v].runnable()) {
        out.push_back(sched::NodeRef{j, static_cast<int>(v)});
      }
    }
  }
  return out;
}

// Free executors of class `cls`, or of every class when `cls` < 0.
int free_executors(const sim::ClusterEnv& env, int cls = -1) {
  int n = 0;
  for (const sim::ExecutorState& e : env.executors()) {
    if (!e.busy && !e.failed && (cls < 0 || e.cls == cls)) ++n;
  }
  return n;
}

int best_fit_class(const sim::ClusterEnv& env, double mem_req) {
  const auto& classes = env.executor_classes();
  if (classes.size() == 1) return -1;
  int best = -1;
  double best_mem = 2.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (!classes[c].fits(mem_req)) continue;
    if (free_executors(env, static_cast<int>(c)) == 0) continue;
    if (classes[c].mem < best_mem) {
      best_mem = classes[c].mem;
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace oracle

sched::NodeRef oracle_critical_path_stage(const sim::ClusterEnv& env,
                                          int job) {
  const sim::JobState& j = env.jobs()[static_cast<std::size_t>(job)];
  const auto cp = oracle::critical_path(j.spec);
  sched::NodeRef best;
  double best_cp = -1.0;
  for (std::size_t v = 0; v < j.stages.size(); ++v) {
    if (!j.stages[v].runnable()) continue;
    if (cp[v] > best_cp) {
      best_cp = cp[v];
      best = sched::NodeRef{job, static_cast<int>(v)};
    }
  }
  return best;
}

double stage_mem(const sim::ClusterEnv& env, sched::NodeRef node) {
  return env.jobs()[static_cast<std::size_t>(node.job)]
      .spec.stages[static_cast<std::size_t>(node.stage)]
      .mem_req;
}

class OracleSjfCp : public sim::Scheduler {
 public:
  sim::Action schedule(const sim::ClusterEnv& env) override {
    int best = -1;
    double best_work = sim::kInfTime;
    for (int j : oracle::runnable_jobs(env)) {
      const double w =
          oracle::total_work(env.jobs()[static_cast<std::size_t>(j)].spec);
      if (w < best_work) {
        best_work = w;
        best = j;
      }
    }
    if (best < 0) return sim::Action::none();
    const sched::NodeRef node = oracle_critical_path_stage(env, best);
    if (!node.valid()) return sim::Action::none();
    sim::Action a;
    a.node = node;
    a.limit = env.total_executors();
    a.exec_class = oracle::best_fit_class(env, stage_mem(env, node));
    return a;
  }
  std::string name() const override { return "oracle SJF-CP"; }
};

class OracleWeightedFair : public sim::Scheduler {
 public:
  explicit OracleWeightedFair(double alpha) : alpha_(alpha) {}
  void reset() override { cursors_.clear(); }
  sim::Action schedule(const sim::ClusterEnv& env) override {
    const auto& jobs = env.jobs();
    cursors_.resize(jobs.size(), 0);
    auto weight = [&](std::size_t j) {
      return std::pow(std::max(oracle::total_work(jobs[j].spec), 1e-9),
                      alpha_);
    };
    bool any_active = false;
    double total_weight = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (!jobs[j].arrived || jobs[j].done()) continue;
      any_active = true;
      total_weight += weight(j);
    }
    if (!any_active || total_weight <= 0.0) return sim::Action::none();
    const auto runnable = oracle::runnable_jobs(env);
    if (runnable.empty()) return sim::Action::none();
    auto target = [&](int j) {
      const double w = weight(static_cast<std::size_t>(j));
      return std::max(1, static_cast<int>(std::floor(
                             env.total_executors() * w / total_weight)));
    };
    int best = -1;
    double best_deficit = 0.0;
    for (int j : runnable) {
      const int t = target(j);
      const int cur = jobs[static_cast<std::size_t>(j)].executors;
      const double deficit =
          static_cast<double>(t - cur) / static_cast<double>(std::max(t, 1));
      if (cur < t && deficit > best_deficit) {
        best_deficit = deficit;
        best = j;
      }
    }
    int limit;
    if (best >= 0) {
      limit = target(best);
    } else {
      best = runnable[0];
      for (int j : runnable) {
        if (jobs[static_cast<std::size_t>(j)].executors <
            jobs[static_cast<std::size_t>(best)].executors) {
          best = j;
        }
      }
      limit = jobs[static_cast<std::size_t>(best)].executors +
              oracle::free_executors(env);
    }
    const sched::NodeRef node = sched::round_robin_stage(
        env, best, cursors_[static_cast<std::size_t>(best)]);
    if (!node.valid()) return sim::Action::none();
    sim::Action a;
    a.node = node;
    a.limit = limit;
    a.exec_class = oracle::best_fit_class(env, stage_mem(env, node));
    return a;
  }
  std::string name() const override { return "oracle weighted fair"; }

 private:
  double alpha_;
  std::vector<int> cursors_;
};

class OracleGraphene : public sim::Scheduler {
 public:
  void reset() override { troublesome_.clear(); }
  sim::Action schedule(const sim::ClusterEnv& env) override {
    const auto& jobs = env.jobs();
    troublesome_.resize(jobs.size());
    auto weight = [&](std::size_t j) {
      return std::pow(std::max(oracle::total_work(jobs[j].spec), 1e-9),
                      config_.alpha);
    };
    bool any_active = false;
    double total_weight = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (!jobs[j].arrived || jobs[j].done()) continue;
      any_active = true;
      total_weight += weight(j);
    }
    if (!any_active) return sim::Action::none();
    auto target = [&](int j) {
      const double w = weight(static_cast<std::size_t>(j));
      return std::max(1, static_cast<int>(std::floor(
                             env.total_executors() * w /
                             std::max(total_weight, 1e-12))));
    };
    const auto runnable = oracle::runnable_nodes(env);
    if (runnable.empty()) return sim::Action::none();
    auto group_ready = [&](int j) {
      const sim::JobSpec& spec = jobs[static_cast<std::size_t>(j)].spec;
      auto& memo = troublesome_[static_cast<std::size_t>(j)];
      if (!memo) {
        const double total = std::max(oracle::total_work(spec), 1e-9);
        memo.emplace();
        for (std::size_t v = 0; v < spec.stages.size(); ++v) {
          if (spec.stages[v].work() / total > config_.work_threshold ||
              spec.stages[v].mem_req > config_.mem_threshold) {
            memo->insert(static_cast<int>(v));
          }
        }
      }
      for (int v : *memo) {
        const auto& st =
            jobs[static_cast<std::size_t>(j)].stages[static_cast<std::size_t>(
                v)];
        if (!st.runnable() && st.waiting != 0) return false;
      }
      return true;
    };
    auto is_troublesome = [&](const sched::NodeRef& n) {
      auto& memo = troublesome_[static_cast<std::size_t>(n.job)];
      return memo && memo->count(n.stage) > 0;
    };
    sched::NodeRef best;
    double best_key = -1e18;
    int best_limit = 0;
    for (const sched::NodeRef node : runnable) {
      const int j = node.job;
      const bool ready = group_ready(j);
      if (is_troublesome(node) && !ready) continue;
      const int tgt = target(j);
      const int cur = jobs[static_cast<std::size_t>(j)].executors;
      const double deficit = static_cast<double>(tgt - cur) /
                             static_cast<double>(std::max(tgt, 1));
      const auto cp =
          oracle::critical_path(jobs[static_cast<std::size_t>(j)].spec);
      double key = deficit * 1e6 + cp[static_cast<std::size_t>(node.stage)];
      if (is_troublesome(node) && ready) key += 1e9;
      if (key > best_key) {
        best_key = key;
        best = node;
        best_limit = cur < tgt ? tgt : cur + oracle::free_executors(env);
      }
    }
    if (!best.valid()) {
      best = runnable[0];
      best_limit = jobs[static_cast<std::size_t>(best.job)].executors +
                   oracle::free_executors(env);
    }
    sim::Action a;
    a.node = best;
    a.limit = best_limit;
    a.exec_class = oracle::best_fit_class(env, stage_mem(env, best));
    return a;
  }
  std::string name() const override { return "oracle Graphene*"; }

 private:
  sched::GrapheneConfig config_;
  std::vector<std::optional<std::set<int>>> troublesome_;
};

// Records every action its inner scheduler returns.
class Recorder : public sim::Scheduler {
 public:
  explicit Recorder(sim::Scheduler& inner) : inner_(inner) {}
  void reset() override { inner_.reset(); }
  sim::Action schedule(const sim::ClusterEnv& env) override {
    const sim::Action a = inner_.schedule(env);
    trace.push_back({a.node.job, a.node.stage, a.limit, a.exec_class});
    return a;
  }
  std::string name() const override { return inner_.name(); }
  std::vector<std::array<int, 4>> trace;

 private:
  sim::Scheduler& inner_;
};

// Seeded TPC-H episode on a faulty, multi-class cluster.
struct Episode {
  sim::EnvConfig env;
  std::vector<workload::ArrivingJob> jobs;
};

Episode faulty_episode(std::uint64_t seed) {
  Episode e;
  Rng rng(seed);
  e.env.num_executors = 20;
  e.env.classes = {{0.25, "s"}, {0.5, "m"}, {0.75, "l"}, {1.0, "xl"}};
  e.env.seed = seed;
  e.env.duration_noise = 0.2;
  e.env.faults.failures = sim::random_failures(rng, 20, 4, 400.0, 60.0);
  e.env.faults.stragglers = {0.1, 4.0};
  e.env.faults.seed = rng.fork();
  auto specs = workload::sample_tpch_batch(rng, 12);
  for (auto& s : specs) workload::assign_memory_requests(s, rng);
  e.jobs = workload::continuous(std::move(specs), rng, 25.0);
  return e;
}

struct EpisodeRun {
  std::vector<std::array<int, 4>> trace;
  std::vector<double> jcts;
  double deadline_hit_rate = 0.0;
  double oracle_deadline_hit_rate = 0.0;
};

EpisodeRun run_episode(const Episode& e, sim::Scheduler& sched) {
  sim::ClusterEnv env(e.env);
  workload::load(env, e.jobs);
  Recorder rec(sched);
  env.run(rec);
  EXPECT_TRUE(env.all_done());
  EpisodeRun r;
  r.trace = std::move(rec.trace);
  r.jcts = env.jcts();
  const rl::DeadlineConfig dc;
  r.deadline_hit_rate = rl::deadline_hit_rate(env, dc);
  int done = 0, hit = 0;
  for (const sim::JobState& j : env.jobs()) {
    if (!j.done()) continue;
    ++done;
    if (j.finish <=
        j.arrival + dc.slack * oracle::critical_path_duration(j.spec)) {
      ++hit;
    }
  }
  r.oracle_deadline_hit_rate =
      done ? static_cast<double>(hit) / done : 0.0;
  return r;
}

TEST(JobShape, HeuristicTracesMatchPerDecisionOracle) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const Episode e = faulty_episode(seed);
    sched::SjfCpScheduler sjf;
    OracleSjfCp sjf_oracle;
    sched::GrapheneScheduler graphene;
    OracleGraphene graphene_oracle;
    sched::WeightedFairScheduler fair(0.0), naive(1.0), tuned(-1.0);
    OracleWeightedFair fair_oracle(0.0), naive_oracle(1.0),
        tuned_oracle(-1.0);
    const std::vector<std::pair<sim::Scheduler*, sim::Scheduler*>> pairs = {
        {&sjf, &sjf_oracle},
        {&graphene, &graphene_oracle},
        {&fair, &fair_oracle},
        {&naive, &naive_oracle},
        {&tuned, &tuned_oracle}};
    for (const auto& [production, reference] : pairs) {
      SCOPED_TRACE(production->name() + " seed " + std::to_string(seed));
      const EpisodeRun got = run_episode(e, *production);
      const EpisodeRun want = run_episode(e, *reference);
      EXPECT_GT(got.trace.size(), 12u);
      EXPECT_EQ(got.trace, want.trace);
      EXPECT_EQ(got.jcts, want.jcts);
      EXPECT_EQ(got.deadline_hit_rate, got.oracle_deadline_hit_rate);
    }
  }
}

// --- Graphs share their job's shape ------------------------------------------

sim::EnvConfig small_env() {
  sim::EnvConfig c;
  c.num_executors = 6;
  c.seed = 3;
  return c;
}

TEST(JobShape, ExtractGraphsSharesTheJobsShape) {
  sim::ClusterEnv env(small_env());
  Rng rng(8);
  workload::load(env, workload::batched(workload::sample_tpch_batch(rng, 5)));
  sched::FifoScheduler fifo;
  env.run(fifo, 5.0);
  const auto graphs = gnn::extract_graphs(env, gnn::FeatureConfig{});
  ASSERT_FALSE(graphs.empty());
  for (const gnn::JobGraph& g : graphs) {
    const auto& job = env.jobs()[static_cast<std::size_t>(g.env_job)];
    ASSERT_NE(job.shape, nullptr);
    EXPECT_EQ(g.shape.get(), job.shape.get());
  }
}

// Extracted graphs keep their job's shape alive: they embed (fully and
// through the cache) exactly as they did while the env existed. A borrowed
// pointer into the env would read freed memory here, which ASan reports.
TEST(JobShape, ExtractedGraphEmbedsAfterEnvIsDestroyed) {
  Rng init(4);
  gnn::GraphEmbedding gnn(gnn::GnnConfig{}, init);
  std::vector<gnn::JobGraph> graphs;
  std::vector<double> before;
  {
    sim::ClusterEnv env(small_env());
    Rng rng(9);
    workload::load(env,
                   workload::batched(workload::sample_tpch_batch(rng, 4)));
    sched::FifoScheduler fifo;
    env.run(fifo, 3.0);
    graphs = gnn::extract_graphs(env, gnn::FeatureConfig{});
    nn::Tape tape(false);
    before = tape.value(gnn.embed(tape, graphs).global_mat).raw();
  }
  ASSERT_FALSE(graphs.empty());
  for (const gnn::JobGraph& g : graphs) {
    EXPECT_EQ(g.shape.use_count(), 1);  // the env's reference is gone
  }
  nn::Tape tape(false);
  EXPECT_EQ(tape.value(gnn.embed(tape, graphs).global_mat).raw(), before);
  gnn::EmbeddingCache cache;
  cache.ensure_param_version(0);
  nn::Tape cached_tape(false);
  const auto cached = gnn.embed_cached(cached_tape, graphs, cache);
  EXPECT_EQ(cached_tape.value(cached.global_mat).raw(), before);
}

}  // namespace
}  // namespace decima
