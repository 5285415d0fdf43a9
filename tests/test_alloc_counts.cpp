// Exact heap-allocation counts on fixed states: one schedule() of each
// packing heuristic, one extract_graphs(), the scheduler's and the
// simulator's shares of one SJF-CP episode (ROADMAP item 3), the learned
// paths per decision and per replayed action on the benches' 50-node-DAG
// workload, and a served TPC-H episode. Counts depend on the seeded state
// and the standard library's container growth, not on host speed, so any
// change to them, up or down, must update the pins below with a line in
// CHANGES.md.
//
// This binary replaces the global operator new to count; the library never
// does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "gnn/features.h"
#include "sched/heuristics.h"
#include "serve/policy_server.h"
#include "workload/arrivals.h"
#include "workload/tpch.h"

namespace {

std::atomic<bool> g_counting{false};  // count on every thread
thread_local bool t_counting = false;  // count on this thread
std::atomic<long> g_allocations{0};
std::atomic<long> g_bytes{0};

}  // namespace

namespace {

void* counted_malloc(std::size_t size) noexcept {
  if (t_counting || g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<long>(size), std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so inlining never shows the compiler a free() of an
// operator new result.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every non-aligned form, nothrow included, so a sanitizer runtime's own
// operator new never pairs with this file's delete.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace decima {
namespace {

// Allocations made while `fn()` runs on this thread: by any thread, or by
// this thread alone.
template <typename Fn>
long count_allocations(Fn&& fn, bool this_thread_only = false) {
  g_allocations.store(0);
  g_bytes.store(0);
  if (this_thread_only) {
    t_counting = true;
  } else {
    g_counting.store(true);
  }
  fn();
  t_counting = false;
  g_counting.store(false);
  return g_allocations.load();
}

// A fixed state: 200 seeded TPC-H jobs arrive at t = 0 on 100 executors
// and SJF-CP runs them until t = 100 s.
struct FixedState {
  sim::ClusterEnv env;
  FixedState() : env(config()) {
    Rng rng(17);
    workload::load(env,
                   workload::batched(workload::sample_tpch_batch(rng, 200)));
    sched::SjfCpScheduler sjf;
    env.run(sjf, 100.0);
  }
  static sim::EnvConfig config() {
    sim::EnvConfig c;
    c.num_executors = 100;
    c.seed = 5;
    return c;
  }
};

TEST(AllocCounts, FixedStateIsTheExpectedOne) {
  const FixedState s;
  EXPECT_EQ(s.env.active_jobs().size(), 126u);
  int runnable = 0;
  for (int j : s.env.active_jobs()) {
    runnable += s.env.jobs()[static_cast<std::size_t>(j)].runnable_stages > 0;
  }
  EXPECT_EQ(runnable, 121);
}

TEST(AllocCounts, OneSjfCpDecision) {
  const FixedState s;
  sched::SjfCpScheduler sjf;
  sim::Action a;
  const long n = count_allocations([&] { a = sjf.schedule(s.env); });
  ASSERT_TRUE(a.valid());
  // SJF-CP walks the env's active-job list and builds nothing.
  EXPECT_EQ(n, 0);
}

// Tetris and Graphene* walk the env's active-job list too. Every executor is
// busy on the fixed state, so Tetris finds no class to fill and answers
// none; Graphene* picks a stage. Graphene*'s first call derives the
// troublesome group of every loaded job; later decisions only read them.
TEST(AllocCounts, PackingHeuristicDecisions) {
  const FixedState s;
  sched::TetrisScheduler tetris;
  sim::Action a;
  EXPECT_EQ(count_allocations([&] { a = tetris.schedule(s.env); }), 0);
  EXPECT_FALSE(a.valid());
  sched::GrapheneScheduler graphene;
  EXPECT_EQ(count_allocations([&] { a = graphene.schedule(s.env); }), 150);
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(count_allocations([&] { a = graphene.schedule(s.env); }), 0);
}

TEST(AllocCounts, OneExtractGraphsCall) {
  const FixedState s;
  std::vector<gnn::JobGraph> graphs;
  const long n = count_allocations([&] {
    graphs = gnn::extract_graphs(s.env, gnn::FeatureConfig{});
  });
  ASSERT_EQ(graphs.size(), 126u);
  // Per graph: its feature matrix and its runnable mask; plus the output
  // vector, reserved once.
  EXPECT_EQ(n, 2 * 126 + 1);
}

// Whole-episode view: every schedule() call `inner` makes in one episode,
// counted as count_allocations counts.
class CountingScheduler : public sim::Scheduler {
 public:
  explicit CountingScheduler(sim::Scheduler& inner,
                             bool this_thread_only = false)
      : inner_(inner), this_thread_only_(this_thread_only) {}
  sim::Action schedule(const sim::ClusterEnv& env) override {
    sim::Action a;
    allocations += count_allocations([&] { a = inner_.schedule(env); },
                                     this_thread_only_);
    ++decisions;
    return a;
  }
  std::string name() const override { return "counting " + inner_.name(); }
  long allocations = 0;
  long decisions = 0;

 private:
  sim::Scheduler& inner_;
  bool this_thread_only_;
};

// The fixed state's 200 jobs in a Poisson stream (mean interarrival 15 s).
void load_poisson_episode(sim::ClusterEnv& env) {
  Rng rng(17);
  auto specs = workload::sample_tpch_batch(rng, 200);
  workload::load(env, workload::continuous(std::move(specs), rng, 15.0));
}

TEST(AllocCounts, SjfCpEpisode) {
  sim::ClusterEnv env(FixedState::config());
  load_poisson_episode(env);
  sched::SjfCpScheduler sjf;
  CountingScheduler sched(sjf);
  env.run(sched);
  ASSERT_TRUE(env.all_done());
  EXPECT_EQ(sched.decisions, 31689);
  EXPECT_EQ(sched.allocations, 0);
}

// Tetris and Graphene* over the same episode: nothing after Graphene*'s
// first call allocates.
TEST(AllocCounts, PackingHeuristicEpisodes) {
  sched::TetrisScheduler tetris;
  sched::GrapheneScheduler graphene;
  struct Arm {
    sim::Scheduler* inner;
    long allocations, decisions;
  };
  for (const Arm& arm : {Arm{&tetris, 0, 33142}, Arm{&graphene, 150, 26964}}) {
    sim::ClusterEnv env(FixedState::config());
    load_poisson_episode(env);
    CountingScheduler sched(*arm.inner);
    env.run(sched);
    ASSERT_TRUE(env.all_done());
    EXPECT_EQ(sched.decisions, arm.decisions) << arm.inner->name();
    EXPECT_EQ(sched.allocations, arm.allocations) << arm.inner->name();
  }
}

// Counts nothing while SJF-CP decides, so a count around env.run() holds
// the simulator's own allocations.
class PausingScheduler : public sim::Scheduler {
 public:
  sim::Action schedule(const sim::ClusterEnv& env) override {
    g_counting.store(false);
    const sim::Action a = inner_.schedule(env);
    g_counting.store(true);
    return a;
  }
  std::string name() const override { return "pausing SJF-CP"; }

 private:
  sched::SjfCpScheduler inner_;
};

// The simulator's share of the same episode: allocations and requested
// bytes inside env.run() but outside schedule(). Dispatch allocates
// nothing, and the trace is reserved for every task up front; what is left
// is the doubling growth of the event queue, the active-job list and the
// per-episode logs (action times, latencies, event intervals).
TEST(AllocCounts, SjfCpEpisodeSimulatorShare) {
  sim::ClusterEnv env(FixedState::config());
  load_poisson_episode(env);
  PausingScheduler sched;
  const long n = count_allocations([&] { env.run(sched); });
  ASSERT_TRUE(env.all_done());
  EXPECT_EQ(n, 55);
  EXPECT_EQ(g_bytes.load(), 3750500);
}

// The benches' 50-node-DAG workload: 5 seeded DAGs arriving at t = 0.
std::vector<workload::ArrivingJob> dag_jobs() {
  return workload::batched(bench::random_dag_jobs(5, 50, 100));
}

sim::EnvConfig executors(int n) {
  sim::EnvConfig c;
  c.num_executors = n;
  return c;
}

// A greedy episode on 25 executors through each inference path: the
// batched scoring core with and without the embedding cache, and the
// per-action reference over the one-node-at-a-time GNN sweep.
TEST(AllocCounts, GreedyEpisodePerInferencePath) {
  struct Arm {
    bool batched, cache;
    long allocations;
  };
  for (const Arm& arm : {Arm{true, true, 31752}, Arm{true, false, 335589},
                         Arm{false, false, 1464572}}) {
    core::AgentConfig config;
    config.batched_inference = arm.batched;
    config.embed_cache = arm.cache;
    core::DecimaAgent agent(config);
    sim::ClusterEnv env(executors(25));
    workload::load(env, dag_jobs());
    CountingScheduler counting(agent);
    env.run(counting);
    ASSERT_TRUE(env.all_done());
    EXPECT_EQ(counting.decisions, 347);
    EXPECT_EQ(counting.allocations, arm.allocations)
        << "batched " << arm.batched << " cache " << arm.cache;
  }
}

// One sampled episode on 10 executors (bench_fig15's training workload),
// replayed through each replay path: the replayed schedule() calls plus
// finish_replay(), which scores the batched path's last chunk.
TEST(AllocCounts, ReplayedEpisodePerReplayPath) {
  struct Arm {
    bool batched;
    long allocations;
  };
  for (const Arm& arm : {Arm{true, 101888}, Arm{false, 618314}}) {
    core::AgentConfig config;
    config.seed = 37;
    config.batched_replay = arm.batched;
    core::DecimaAgent agent(config);
    sim::ClusterEnv rollout(executors(10));
    workload::load(rollout, dag_jobs());
    agent.set_mode(core::Mode::kSample);
    agent.start_recording();
    rollout.run(agent);
    std::vector<core::RecordedAction> actions = agent.take_recorded();
    ASSERT_EQ(actions.size(), 359u);

    sim::ClusterEnv replay(executors(10));
    workload::load(replay, dag_jobs());
    std::vector<double> advantages(actions.size(), 1.0);
    agent.start_replay(std::move(actions), std::move(advantages), 0.01);
    CountingScheduler counting(agent);
    replay.run(counting);
    const long tail = count_allocations([&] { agent.finish_replay(); });
    EXPECT_EQ(counting.allocations + tail, arm.allocations)
        << "batched " << arm.batched;
  }
}

// A one-session served episode of 20 seeded TPC-H jobs on the benchmark's
// serving cluster (50 executors, Poisson arrivals 30 s apart on average).
// Each decision of the session's ServedScheduler is counted on every
// thread, which is the whole served decision, and on the session thread
// alone, which is what it costs outside decide_batch: the shard's
// dispatcher runs that.
TEST(AllocCounts, ServedEpisodePerThread) {
  const auto policy = [] {
    core::AgentConfig config;
    config.seed = 42;
    return std::make_unique<core::DecimaAgent>(config);
  };
  const auto jobs = [](int count) {
    Rng rng(23);
    auto specs = workload::sample_tpch_batch(rng, count);
    return workload::continuous(std::move(specs), rng, 30.0);
  };
  // The serving and cache metrics register on first use, from whichever
  // thread gets there first; a short served episode settles that before
  // anything is counted.
  {
    serve::PolicyServer warm(policy());
    serve::run_session(warm, executors(50), jobs(2));
  }
  struct Arm {
    bool session_thread_only;
    long allocations;
  };
  for (const Arm& arm : {Arm{false, 128016}, Arm{true, 30}}) {
    serve::PolicyServer server(policy());
    sim::ClusterEnv env(executors(50));
    workload::load(env, jobs(20));
    serve::ServedScheduler served(server);
    CountingScheduler counting(served, arm.session_thread_only);
    env.run(counting);
    ASSERT_TRUE(env.all_done());
    EXPECT_EQ(served.degradation().ok, served.decisions());
    EXPECT_EQ(counting.decisions, 1978);
    EXPECT_EQ(counting.allocations, arm.allocations)
        << "session thread only " << arm.session_thread_only;
  }
}

}  // namespace
}  // namespace decima
