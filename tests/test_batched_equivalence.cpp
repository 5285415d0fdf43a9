// The batched paths (GnnConfig::batched / AgentConfig::batched_inference /
// AgentConfig::batched_replay) must be pure performance changes: embeddings
// and gradients have to match the one-node-at-a-time, one-tape-per-action
// reference implementations to floating-point noise, and REINFORCE training
// must stay deterministic across thread counts.
#include <gtest/gtest.h>

#include <cmath>

#include "gnn/graph_embedding.h"
#include "rl/reinforce.h"
#include "workload/tpch.h"

namespace decima {
namespace {

constexpr double kTol = 1e-10;

gnn::JobGraph random_dag(std::uint64_t seed, int n) {
  return gnn::random_job_graph(seed, n);
}

// Two GraphEmbeddings with identical weights, one per configuration.
struct Pair {
  Rng rng_b{7};
  Rng rng_r{7};
  gnn::GraphEmbedding batched;
  gnn::GraphEmbedding reference;

  explicit Pair(bool two_level = true)
      : batched(config(true, two_level), rng_b),
        reference(config(false, two_level), rng_r) {}

  static gnn::GnnConfig config(bool batched, bool two_level) {
    gnn::GnnConfig c;
    c.batched = batched;
    c.two_level_aggregation = two_level;
    return c;
  }
};

void expect_matrix_near(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.raw().size(); ++i) {
    EXPECT_NEAR(a.raw()[i], b.raw()[i], kTol);
  }
}

// A scalar reduction over every embedding level, built the same way on both
// tapes so gradient flow is comparable.
nn::Var embedding_loss(nn::Tape& tape, const gnn::EpisodeEmbeddings& emb,
                       std::size_t emb_dim) {
  const nn::Var total = tape.sum_rows(
      tape.concat_rows({emb.node_all, emb.job_mat, emb.global_mat}));
  const nn::Var ones = tape.constant(nn::Matrix(emb_dim, 1, 1.0));
  return tape.matmul(total, ones);
}

TEST(BatchedEquivalence, ForwardEmbeddingsMatch) {
  for (bool two_level : {true, false}) {
    Pair gnns(two_level);
    const std::vector<gnn::JobGraph> graphs = {random_dag(1, 50),
                                               random_dag(2, 17),
                                               random_dag(3, 1)};
    nn::Tape tb(false), tr(false);
    const auto eb = gnns.batched.embed(tb, graphs);
    const auto er = gnns.reference.embed(tr, graphs);
    // Both paths return the same stacked layout.
    EXPECT_EQ(eb.node_offset, er.node_offset);
    EXPECT_EQ(tb.value(eb.feat_all).raw(), tr.value(er.feat_all).raw());
    expect_matrix_near(tb.value(eb.node_all), tr.value(er.node_all));
    expect_matrix_near(tb.value(eb.proj_all), tr.value(er.proj_all));
    expect_matrix_near(tb.value(eb.job_mat), tr.value(er.job_mat));
    expect_matrix_near(tb.value(eb.global_mat), tr.value(er.global_mat));
  }
}

TEST(BatchedEquivalence, GradientsMatchReference) {
  Pair gnns;
  const std::vector<gnn::JobGraph> graphs = {random_dag(11, 50),
                                             random_dag(12, 23)};
  const std::size_t d =
      static_cast<std::size_t>(gnns.batched.config().emb_dim);

  auto grads = [&](gnn::GraphEmbedding& gnn) {
    auto params = gnn.param_set();
    params.zero_grads();
    nn::Tape tape;
    const auto emb = gnn.embed(tape, graphs);
    tape.backward(embedding_loss(tape, emb, d));
    return params.flat_grads();
  };
  const auto gb = grads(gnns.batched);
  const auto gr = grads(gnns.reference);
  ASSERT_EQ(gb.size(), gr.size());
  double max_abs = 0.0;
  for (std::size_t i = 0; i < gb.size(); ++i) {
    EXPECT_NEAR(gb[i], gr[i], kTol);
    max_abs = std::max(max_abs, std::abs(gb[i]));
  }
  // The comparison must be over real gradients, not a sea of zeros.
  EXPECT_GT(max_abs, 1e-3);
}

// Episode-batched embedding vs the per-event batched embed: node, job, and
// global levels must agree event by event.
TEST(BatchedEquivalence, EpisodeEmbeddingMatchesPerEventEmbed) {
  for (bool two_level : {true, false}) {
    Pair gnns(two_level);
    const std::vector<std::vector<gnn::JobGraph>> events = {
        {random_dag(21, 50), random_dag(22, 17)},
        {random_dag(23, 9)},
        {random_dag(24, 1), random_dag(25, 3), random_dag(26, 12)}};

    std::vector<const gnn::JobGraph*> flat;
    std::vector<std::size_t> event_of_graph;
    for (std::size_t t = 0; t < events.size(); ++t) {
      for (const auto& g : events[t]) {
        flat.push_back(&g);
        event_of_graph.push_back(t);
      }
    }
    nn::Tape te(false);
    const auto ep =
        gnns.batched.embed_episode(te, flat, event_of_graph, events.size());

    std::size_t graph_idx = 0;
    for (std::size_t t = 0; t < events.size(); ++t) {
      nn::Tape tp(false);
      const auto per_event = gnns.batched.embed(tp, events[t]);
      for (std::size_t g = 0; g < events[t].size(); ++g, ++graph_idx) {
        const nn::Matrix& want = tp.value(per_event.node_all);
        const nn::Matrix& all = te.value(ep.node_all);
        const std::size_t off = ep.node_offset[graph_idx];
        const std::size_t want_off = per_event.node_offset[g];
        for (std::size_t v = 0; v < events[t][g].features.rows(); ++v) {
          for (std::size_t c = 0; c < want.cols(); ++c) {
            EXPECT_NEAR(all(off + v, c), want(want_off + v, c), kTol);
          }
        }
        const nn::Matrix& jobs = te.value(ep.job_mat);
        for (std::size_t c = 0; c < jobs.cols(); ++c) {
          EXPECT_NEAR(jobs(graph_idx, c), tp.value(per_event.job_mat)(g, c),
                      kTol);
        }
      }
      const nn::Matrix& glob = te.value(ep.global_mat);
      for (std::size_t c = 0; c < glob.cols(); ++c) {
        EXPECT_NEAR(glob(t, c), tp.value(per_event.global_mat)(0, c), kTol);
      }
    }
  }
}

// --- Replay-path checks ------------------------------------------------------

// Rolls out one recorded episode and expects the batched replay, which
// scores it in chunks of 8 events, to reproduce the reference loop's
// gradients. `events` receives the episode's event count.
void expect_replay_grads_match(const core::AgentConfig& base,
                               const sim::EnvConfig& env_config,
                               const std::vector<workload::ArrivingJob>& jobs,
                               std::size_t* events = nullptr) {
  core::AgentConfig ab = base;
  ab.batched_replay = true;
  core::AgentConfig ar = base;
  ar.batched_replay = false;
  ar.batched_inference = false;
  core::DecimaAgent batched(ab), reference(ar);  // same seed, same weights

  batched.set_mode(core::Mode::kSample);
  batched.set_sample_seed(31);
  batched.start_recording();
  sim::ClusterEnv env(env_config);
  workload::load(env, jobs);
  env.run(batched);
  const auto recorded = batched.take_recorded();
  ASSERT_FALSE(recorded.empty());
  if (events) *events = recorded.size();

  // The reference agent samples the same choices from the same seed.
  reference.set_mode(core::Mode::kSample);
  reference.set_sample_seed(31);
  reference.start_recording();
  sim::ClusterEnv ref_env(env_config);
  workload::load(ref_env, jobs);
  ref_env.run(reference);
  const auto ref_recorded = reference.take_recorded();
  ASSERT_EQ(ref_recorded.size(), recorded.size());
  for (std::size_t k = 0; k < recorded.size(); ++k) {
    EXPECT_EQ(ref_recorded[k].node_choice, recorded[k].node_choice) << k;
    EXPECT_EQ(ref_recorded[k].limit_choice, recorded[k].limit_choice) << k;
    EXPECT_EQ(ref_recorded[k].class_choice, recorded[k].class_choice) << k;
  }

  std::vector<double> weights(recorded.size());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    weights[k] = (k % 2 ? 1.0 : -1.0) * (0.5 + 0.1 * static_cast<double>(k));
  }
  auto grads = [&](core::DecimaAgent& agent) {
    agent.params().zero_grads();
    agent.start_replay(recorded, weights, /*entropy_weight=*/0.1);
    sim::ClusterEnv replay_env(env_config);
    workload::load(replay_env, jobs);
    replay_env.run(agent);
    agent.finish_replay();
    EXPECT_EQ(agent.replay_cursor(), recorded.size());
    return agent.params().flat_grads();
  };
  const auto gb = grads(batched);
  const auto gr = grads(reference);
  ASSERT_EQ(gb.size(), gr.size());
  double max_abs = 0.0;
  for (std::size_t i = 0; i < gb.size(); ++i) {
    EXPECT_NEAR(gb[i], gr[i], kTol) << "grad " << i;
    max_abs = std::max(max_abs, std::abs(gb[i]));
  }
  EXPECT_GT(max_abs, 1e-4);
}

std::vector<workload::ArrivingJob> tpch_jobs(std::uint64_t seed, int n) {
  Rng rng(seed);
  return workload::batched(workload::sample_tpch_batch(rng, n));
}

TEST(BatchedEquivalence, ReplayGradientsMatchReference) {
  core::AgentConfig ac;
  ac.seed = 21;
  sim::EnvConfig env;
  env.num_executors = 4;
  std::size_t events = 0;
  expect_replay_grads_match(ac, env, tpch_jobs(3, 4), &events);
  // Six full 8-event chunks and a 3-event tail: the chunk boundaries and
  // the finish_replay() tail both count.
  EXPECT_EQ(events, 51u);
}

TEST(BatchedEquivalence, ReplayGradientsMatchAcrossVariants) {
  sim::EnvConfig env;
  env.num_executors = 4;
  const auto jobs = tpch_jobs(5, 3);
  for (core::LimitEncoding enc :
       {core::LimitEncoding::kStageLevel,
        core::LimitEncoding::kSeparateOutputs}) {
    core::AgentConfig ac;
    ac.seed = 23;
    ac.limit_encoding = enc;
    expect_replay_grads_match(ac, env, jobs);
  }
  core::AgentConfig no_gnn;
  no_gnn.seed = 24;
  no_gnn.use_gnn = false;
  expect_replay_grads_match(no_gnn, env, jobs);
  core::AgentConfig no_limits;
  no_limits.seed = 25;
  no_limits.parallelism_control = false;
  expect_replay_grads_match(no_limits, env, jobs);
}

TEST(BatchedEquivalence, ReplayGradientsMatchWithExecutorClasses) {
  sim::EnvConfig env;
  env.num_executors = 6;
  env.classes = {{0.5, "s"}, {1.0, "l"}};
  Rng rng(4);
  std::vector<sim::JobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    auto j = workload::sample_tpch_job(rng);
    workload::assign_memory_requests(j, rng);
    jobs.push_back(std::move(j));
  }
  core::AgentConfig ac;
  ac.seed = 27;
  ac.multi_resource = true;
  expect_replay_grads_match(ac, env, workload::batched(std::move(jobs)));
}

// --- Full-pipeline checks through the trainer -------------------------------

sim::EnvConfig tiny_env() {
  sim::EnvConfig c;
  c.num_executors = 3;
  return c;
}

rl::WorkloadSampler sampler() {
  return [](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<sim::JobSpec> jobs;
    for (int i = 0; i < 3; ++i) {
      sim::JobBuilder b("job" + std::to_string(i));
      const int stages = rng.uniform_int(2, 5);
      for (int s = 0; s < stages; ++s) {
        b.stage(rng.uniform_int(1, 6), rng.uniform(0.5, 2.0),
                s > 0 ? std::vector<int>{s - 1} : std::vector<int>{});
      }
      jobs.push_back(b.build());
    }
    return workload::batched(std::move(jobs));
  };
}

rl::TrainConfig train_config(int threads) {
  rl::TrainConfig c;
  c.num_iterations = 2;
  c.episodes_per_iter = 4;
  c.rollout_threads = threads;
  c.curriculum = false;
  c.differential_reward = false;
  c.env = tiny_env();
  c.sampler = sampler();
  c.seed = 5;
  return c;
}

std::vector<double> flat_params(core::DecimaAgent& agent) {
  std::vector<double> out;
  for (const nn::Param* p : agent.params().params()) {
    out.insert(out.end(), p->value.raw().begin(), p->value.raw().end());
  }
  return out;
}

TEST(BatchedEquivalence, FullTrainingIterationMatchesReference) {
  core::AgentConfig ab;
  ab.seed = 9;
  core::AgentConfig ar = ab;
  ar.batched_inference = false;
  ar.batched_replay = false;
  core::DecimaAgent batched(ab), reference(ar);

  rl::ReinforceTrainer tb(batched, train_config(2));
  rl::ReinforceTrainer tr(reference, train_config(2));
  const auto sb = tb.train();
  const auto sr = tr.train();

  // Same seeds + numerically equivalent policies must take the same actions
  // and land on the same parameters after full sample/replay/Adam iterations.
  ASSERT_EQ(sb.size(), sr.size());
  for (std::size_t i = 0; i < sb.size(); ++i) {
    EXPECT_EQ(sb[i].total_actions, sr[i].total_actions);
    EXPECT_NEAR(sb[i].grad_norm, sr[i].grad_norm, kTol);
  }
  const auto pb = flat_params(batched);
  const auto pr = flat_params(reference);
  ASSERT_EQ(pb.size(), pr.size());
  for (std::size_t i = 0; i < pb.size(); ++i) EXPECT_NEAR(pb[i], pr[i], kTol);
}

TEST(BatchedEquivalence, TrainerDeterministicAcrossThreadCounts) {
  core::AgentConfig ac;
  ac.seed = 13;
  core::DecimaAgent one(ac), eight(ac);

  rl::ReinforceTrainer t1(one, train_config(1));
  rl::ReinforceTrainer t8(eight, train_config(8));
  t1.train();
  t8.train();

  const auto p1 = flat_params(one);
  const auto p8 = flat_params(eight);
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i], p8[i]) << "param " << i;
  }
}

// Thread-count determinism pinned explicitly for the batched replay path:
// training with 1 and 8 worker threads must produce bit-identical parameters.
TEST(BatchedEquivalence, BatchedReplayDeterministicAcrossThreadCounts) {
  core::AgentConfig ac;
  ac.seed = 17;
  ac.batched_inference = true;
  ac.batched_replay = true;
  core::DecimaAgent one(ac), eight(ac);

  rl::ReinforceTrainer t1(one, train_config(1));
  rl::ReinforceTrainer t8(eight, train_config(8));
  t1.train();
  t8.train();

  const auto p1 = flat_params(one);
  const auto p8 = flat_params(eight);
  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i], p8[i]) << "param " << i;
  }
}

}  // namespace
}  // namespace decima
