// Figure 15 (§7.4): training efficiency and decision latency.
//  (a) learning curves for three parallelism-limit encodings: the paper's
//      scalar-l input, one-output-per-limit ("w/o limit input"), and
//      stage-level granularity — the scalar-input design trains fastest.
//  (b) CDF of Decima's scheduling delay vs the interval between scheduling
//      events (paper: ~15ms decisions vs seconds-scale event intervals).
#include "bench_common.h"

using namespace decima;

int main() {
  bench::print_header(
      "Figure 15 (§7.4)",
      "(a) learning curves per parallelism-limit encoding; (b) scheduling\n"
      "delay vs scheduling-event interval CDFs; (c) training throughput\n"
      "with episode-batched vs per-action replay; (d) parallel rollout\n"
      "scaling vs the sequential reference (writes BENCH_train.json).");

  sim::EnvConfig env;
  env.num_executors = 10;
  const auto sampler = bench::tpch_batch_sampler(8);
  const auto eval_workloads = [&] {
    std::vector<std::vector<workload::ArrivingJob>> w;
    for (int i = 0; i < 4; ++i) {
      w.push_back(sampler(91000 + static_cast<std::uint64_t>(i)));
    }
    return w;
  }();

  // ---------------- (a) learning curves -------------------------------------
  const int iters = bench::train_iters(50);
  const int snapshot_every = std::max(1, iters / 10);
  struct Curve {
    std::string label;
    std::vector<double> jct;
  };
  std::vector<Curve> curves;
  for (auto [label, encoding] :
       std::vector<std::pair<std::string, core::LimitEncoding>>{
           {"job-level, limit input (Decima)",
            core::LimitEncoding::kScalarInput},
           {"w/o limit input (per-limit outputs)",
            core::LimitEncoding::kSeparateOutputs},
           {"stage-level granularity", core::LimitEncoding::kStageLevel}}) {
    core::AgentConfig ac;
    ac.seed = 37;
    ac.limit_encoding = encoding;
    core::DecimaAgent agent(ac);
    rl::TrainConfig train;
    train.episodes_per_iter = 8;
    train.rollout_threads = 8;
    train.curriculum = false;
    train.differential_reward = false;
    train.env = env;
    train.sampler = sampler;
    rl::ReinforceTrainer trainer(agent, train);
    Curve c{label, {}};
    for (int i = 0; i < iters; ++i) {
      trainer.iterate();
      if (i % snapshot_every == 0 || i == iters - 1) {
        agent.set_mode(core::Mode::kGreedy);
        c.jct.push_back(metrics::evaluate_avg_jct(agent, env, eval_workloads));
      }
    }
    std::cout << "[fig15a] " << label << " ("
              << agent.num_parameters() << " params) final JCT "
              << fmt(c.jct.back(), 1) << "s\n";
    curves.push_back(std::move(c));
  }
  Table ta({"snapshot", curves[0].label, curves[1].label, curves[2].label});
  for (std::size_t k = 0; k < curves[0].jct.size(); ++k) {
    ta.add_row({fmt_int(static_cast<long long>(
                    k * static_cast<std::size_t>(snapshot_every))),
                fmt(curves[0].jct[k], 1), fmt(curves[1].jct[k], 1),
                fmt(curves[2].jct[k], 1)});
  }
  std::cout << "\n(a) held-out avg JCT during training (lower = better)\n"
            << ta.to_string();

  // ---------------- (b) scheduling delay -----------------------------------
  core::AgentConfig ac;
  ac.seed = 37;
  core::DecimaAgent agent(ac);
  agent.set_mode(core::Mode::kGreedy);
  sim::ClusterEnv cluster(env);
  workload::load(cluster, bench::tpch_continuous_sampler(30, 40.0)(5));
  cluster.run(agent);
  auto lat = cluster.decision_latencies();
  auto intervals = cluster.event_intervals();
  std::vector<double> lat_ms;
  for (double s : lat) lat_ms.push_back(s * 1e3);
  std::vector<double> iv_ms;
  for (double s : intervals) iv_ms.push_back(s * 1e3);

  Table tb({"percentile", "decision latency [ms]", "event interval [ms]"});
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    tb.add_row({fmt(p, 0), fmt(percentile(lat_ms, p), 3),
                fmt(percentile(iv_ms, p), 1)});
  }
  std::cout << "\n(b) scheduling delay vs event interval ("
            << lat_ms.size() << " decisions)\n"
            << tb.to_string();
  std::cout << "\npaper: decisions <15ms, event intervals ~seconds — the\n"
               "policy's inference latency is negligible. Our simulated\n"
               "event intervals are simulated time; the latency column is\n"
               "real wall-clock inference cost of the C++ model.\n";

  // ---------------- (c) training throughput ---------------------------------
  // The 50-node-DAG workload of the fig. 12 latency profile, now trained:
  // per-phase wall-clock of Algorithm 1 with the episode-batched replay
  // (AgentConfig::batched_replay, one tape + one backward per episode) vs
  // the one-tape-per-action reference loop. Seeds the BENCH_train.json perf
  // trajectory. Both runs are seed-identical, so they replay the same
  // episodes and differ only in how the gradients are computed.
  constexpr int kDagJobs = 5;
  constexpr int kDagNodes = 50;
  const auto profile_jobs = bench::random_dag_jobs(kDagJobs, kDagNodes, 100);
  const rl::WorkloadSampler dag_sampler = [profile_jobs](std::uint64_t) {
    return workload::batched(profile_jobs);
  };
  sim::EnvConfig tenv;
  tenv.num_executors = 10;
  const int titers = std::max(3, bench::train_iters(50) / 10);
  struct Phases {
    double rollout = 0.0, replay = 0.0, step = 0.0, total = 0.0;
    int actions = 0;
  };
  auto time_training = [&](bool batched_replay) {
    core::AgentConfig ac;
    ac.seed = 37;
    ac.batched_replay = batched_replay;
    core::DecimaAgent agent(ac);
    rl::TrainConfig tcfg;
    tcfg.episodes_per_iter = 4;
    tcfg.rollout_threads = 4;
    tcfg.curriculum = false;
    tcfg.differential_reward = false;
    tcfg.env = tenv;
    tcfg.sampler = dag_sampler;
    rl::ReinforceTrainer trainer(agent, tcfg);
    Phases p;
    for (int i = 0; i < titers; ++i) {
      const auto s = trainer.iterate();
      p.rollout += s.rollout_seconds;
      p.replay += s.replay_seconds;
      p.step += s.step_seconds;
      p.actions += s.total_actions;
    }
    p.total = p.rollout + p.replay + p.step;
    return p;
  };
  const Phases ref = time_training(false);
  const Phases bat = time_training(true);
  const double replay_speedup = ref.replay / std::max(bat.replay, 1e-12);
  const double iters_per_sec_ref =
      static_cast<double>(titers) / std::max(ref.total, 1e-12);
  const double iters_per_sec_bat =
      static_cast<double>(titers) / std::max(bat.total, 1e-12);

  Table t_thr({"replay path", "rollout [s]", "replay [s]", "step [s]",
               "iters/sec"});
  t_thr.add_row({"per-action (reference)", fmt(ref.rollout, 2),
                 fmt(ref.replay, 2), fmt(ref.step, 3),
                 fmt(iters_per_sec_ref, 2)});
  t_thr.add_row({"episode-batched", fmt(bat.rollout, 2), fmt(bat.replay, 2),
                 fmt(bat.step, 3), fmt(iters_per_sec_bat, 2)});
  std::cout << "\n(c) training throughput, " << titers << " iterations x 4 "
            << "episodes on " << kDagJobs << "x" << kDagNodes
            << "-node DAGs (" << ref.actions << " actions replayed)\n"
            << t_thr.to_string()
            << "replay-phase speedup: " << fmt(replay_speedup, 2) << "x\n";

  // ---------------- (d) parallel rollout scaling ----------------------------
  // TrainConfig::rollout_threads sweep on the same workload: 8 episodes per
  // iteration over 1/2/8 workers. The determinism contract
  // (docs/training.md) says only wall-clock may change, so alongside the
  // speedups we emit rollout_bitexact = 1.0 iff every run's final parameters
  // are byte-equal to the sequential reference — check_bench.py floors it at
  // 1.0, making any CI drift a hard failure. Speedups are meaningful only on
  // multi-core runners; a 1-core box legitimately reports ~1.0x.
  struct Sweep {
    double rollout = 0.0, cpu = 0.0;
    std::vector<std::vector<double>> params;
  };
  auto time_threads = [&](int threads) {
    core::AgentConfig ac;
    ac.seed = 37;
    core::DecimaAgent agent(ac);
    rl::TrainConfig tcfg;
    tcfg.episodes_per_iter = 8;
    tcfg.rollout_threads = threads;
    tcfg.curriculum = false;
    tcfg.differential_reward = false;
    tcfg.env = tenv;
    tcfg.sampler = dag_sampler;
    rl::ReinforceTrainer trainer(agent, tcfg);
    Sweep s;
    for (int i = 0; i < titers; ++i) {
      const auto st = trainer.iterate();
      s.rollout += st.rollout_seconds;
      s.cpu += st.rollout_cpu_seconds;
    }
    for (const nn::Param* p : agent.params().params()) {
      s.params.push_back(p->value.raw());
    }
    return s;
  };
  const Sweep t1 = time_threads(1);
  const Sweep t2 = time_threads(2);
  const Sweep t8 = time_threads(8);
  const double t2_speedup = t1.rollout / std::max(t2.rollout, 1e-12);
  const double t8_speedup = t1.rollout / std::max(t8.rollout, 1e-12);
  const bool bitexact = t2.params == t1.params && t8.params == t1.params;

  Table t_par({"rollout_threads", "rollout [s]", "busy [s]", "speedup",
               "bit-exact"});
  t_par.add_row({"1 (reference)", fmt(t1.rollout, 2), fmt(t1.cpu, 2), "1.00",
                 "-"});
  t_par.add_row({"2", fmt(t2.rollout, 2), fmt(t2.cpu, 2), fmt(t2_speedup, 2),
                 t2.params == t1.params ? "yes" : "NO"});
  t_par.add_row({"8", fmt(t8.rollout, 2), fmt(t8.cpu, 2), fmt(t8_speedup, 2),
                 t8.params == t1.params ? "yes" : "NO"});
  std::cout << "\n(d) parallel rollout scaling, " << titers
            << " iterations x 8 episodes\n"
            << t_par.to_string()
            << "parameters byte-equal across the sweep: "
            << (bitexact ? "yes" : "NO — determinism contract violated")
            << "\n";

  bench::BenchJson json("train");
  json.set("bench", "fig15_training");
  json.set("dag_nodes", static_cast<double>(kDagNodes));
  json.set("dag_jobs", static_cast<double>(kDagJobs));
  json.set("iterations", static_cast<double>(titers));
  json.set("episodes_per_iter", 4.0);
  json.set("actions_replayed", static_cast<double>(ref.actions));
  json.set("reference_rollout_s", ref.rollout);
  json.set("reference_replay_s", ref.replay);
  json.set("reference_step_s", ref.step);
  json.set("reference_iters_per_sec", iters_per_sec_ref);
  json.set("batched_rollout_s", bat.rollout);
  json.set("batched_replay_s", bat.replay);
  json.set("batched_step_s", bat.step);
  json.set("batched_iters_per_sec", iters_per_sec_bat);
  json.set("replay_speedup", replay_speedup);
  json.set("iters_per_sec_speedup",
           iters_per_sec_bat / std::max(iters_per_sec_ref, 1e-12));
  json.set("rollout_t1_s", t1.rollout);
  json.set("rollout_t2_s", t2.rollout);
  json.set("rollout_t8_s", t8.rollout);
  json.set("rollout_t2_speedup", t2_speedup);
  json.set("rollout_t8_speedup", t8_speedup);
  json.set("rollout_bitexact", bitexact ? 1.0 : 0.0);
  const std::string path = json.write();
  if (!path.empty()) std::cout << "\n[bench] wrote " << path << "\n";
  return 0;
}
