#include <gtest/gtest.h>

#include "gnn/graph_embedding.h"

namespace decima::gnn {
namespace {

// A hand-built 4-node diamond graph with distinguishable features.
JobGraph diamond_graph(int feat_dim = 5) {
  JobGraph g;
  g.env_job = 0;
  g.features = nn::Matrix(4, static_cast<std::size_t>(feat_dim));
  for (std::size_t v = 0; v < 4; ++v) {
    for (int f = 0; f < feat_dim; ++f) {
      g.features(v, static_cast<std::size_t>(f)) =
          0.1 * static_cast<double>(v + 1);
    }
  }
  // 0 -> {1, 2} -> 3.
  sim::JobBuilder b("diamond");
  const int s0 = b.stage(1, 1.0);
  const int s1 = b.stage(1, 1.0, {s0});
  const int s2 = b.stage(1, 1.0, {s0});
  b.stage(1, 1.0, {s1, s2});
  g.shape = sim::JobShape::of(b.build());
  g.runnable = {true, false, false, false};
  return g;
}

GnnConfig small_config() {
  GnnConfig c;
  c.feat_dim = 5;
  c.emb_dim = 8;
  return c;
}

// Row v of graph g's node embeddings.
nn::Matrix node_row(const nn::Tape& tape, const EpisodeEmbeddings& emb,
                    std::size_t g, std::size_t v) {
  const nn::Matrix& all = tape.value(emb.node_all);
  nn::Matrix out(1, all.cols());
  for (std::size_t c = 0; c < all.cols(); ++c) {
    out(0, c) = all(emb.node_offset[g] + v, c);
  }
  return out;
}

TEST(GraphEmbedding, ShapesAreConsistent) {
  Rng rng(1);
  GraphEmbedding gnn(small_config(), rng);
  nn::Tape tape;
  const auto graphs = std::vector<JobGraph>{diamond_graph(), diamond_graph()};
  const auto emb = gnn.embed(tape, graphs);
  EXPECT_EQ(emb.node_offset, (std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(tape.value(emb.feat_all).rows(), 8u);
  EXPECT_EQ(tape.value(emb.feat_all).cols(), 5u);
  for (const nn::Var v : {emb.node_all, emb.proj_all}) {
    EXPECT_EQ(tape.value(v).rows(), 8u);
    EXPECT_EQ(tape.value(v).cols(), 8u);
  }
  EXPECT_EQ(tape.value(emb.job_mat).rows(), 2u);
  EXPECT_EQ(tape.value(emb.job_mat).cols(), 8u);
  EXPECT_EQ(tape.value(emb.global_mat).rows(), 1u);
  EXPECT_EQ(tape.value(emb.global_mat).cols(), 8u);
}

TEST(GraphEmbedding, DeterministicForFixedSeed) {
  Rng rng1(9), rng2(9);
  GraphEmbedding a(small_config(), rng1), b(small_config(), rng2);
  nn::Tape ta, tb;
  const auto graphs = std::vector<JobGraph>{diamond_graph()};
  const auto ea = a.embed(ta, graphs);
  const auto eb = b.embed(tb, graphs);
  EXPECT_EQ(ta.value(ea.global_mat).raw(), tb.value(eb.global_mat).raw());
}

TEST(GraphEmbedding, InformationFlowsChildToParentOnly) {
  Rng rng(3);
  GraphEmbedding gnn(small_config(), rng);

  auto leaf_change_effect = [&](std::size_t change_node,
                                std::size_t observe_node) {
    JobGraph base = diamond_graph();
    nn::Tape t1;
    const auto e1 = gnn.embed(t1, {base});
    JobGraph mod = diamond_graph();
    mod.features(change_node, 0) += 1.0;
    nn::Tape t2;
    const auto e2 = gnn.embed(t2, {mod});
    const nn::Matrix r1 = node_row(t1, e1, 0, observe_node);
    const nn::Matrix r2 = node_row(t2, e2, 0, observe_node);
    double diff = 0.0;
    for (std::size_t c = 0; c < 8; ++c) diff += std::abs(r1(0, c) - r2(0, c));
    return diff;
  };

  // Perturbing the sink (node 3) changes the root (node 0) embedding...
  EXPECT_GT(leaf_change_effect(3, 0), 1e-9);
  // ...but perturbing the root does not change the sink's embedding.
  EXPECT_LT(leaf_change_effect(0, 3), 1e-12);
}

TEST(GraphEmbedding, LeafEmbeddingEqualsProjection) {
  Rng rng(5);
  GraphEmbedding gnn(small_config(), rng);
  nn::Tape tape;
  const auto emb = gnn.embed(tape, {diamond_graph()});
  const nn::Matrix& e = tape.value(emb.node_all);
  const nn::Matrix& proj = tape.value(emb.proj_all);
  // Node 3 has no children: e_3 == proj(x_3).
  double diff3 = 0.0, diff0 = 0.0;
  for (std::size_t c = 0; c < 8; ++c) {
    diff3 += std::abs(e(3, c) - proj(3, c));
    diff0 += std::abs(e(0, c) - proj(0, c));
  }
  EXPECT_EQ(diff3, 0.0);
  // Node 0 has children: embeddings differ from the projection.
  EXPECT_GT(diff0, 1e-9);
}

TEST(GraphEmbedding, SingleLevelAblationDiffers) {
  Rng rng1(7), rng2(7);
  GnnConfig two = small_config();
  GnnConfig one = small_config();
  one.two_level_aggregation = false;
  GraphEmbedding g2(two, rng1), g1(one, rng2);
  nn::Tape t1, t2;
  const auto e2 = g2.embed(t1, {diamond_graph()});
  const auto e1 = g1.embed(t2, {diamond_graph()});
  const nn::Matrix r2 = node_row(t1, e2, 0, 0);
  const nn::Matrix r1 = node_row(t2, e1, 0, 0);
  double diff = 0.0;
  for (std::size_t c = 0; c < 8; ++c) diff += std::abs(r2(0, c) - r1(0, c));
  EXPECT_GT(diff, 1e-9);
}

TEST(GraphEmbedding, GradientsReachAllTransforms) {
  Rng rng(11);
  GraphEmbedding gnn(small_config(), rng);
  auto params = gnn.param_set();
  params.zero_grads();
  nn::Tape tape;
  const auto emb = gnn.embed(tape, {diamond_graph()});
  // Scalar loss touching node, job, and global embeddings.
  nn::Var loss = tape.element(
      tape.concat_cols({tape.row(emb.node_all, 0), tape.row(emb.job_mat, 0),
                        emb.global_mat}),
      0, 0);
  nn::Var loss2 = tape.element(emb.global_mat, 0, 3);
  tape.backward(tape.add(loss, loss2));
  int with_grad = 0;
  for (const auto* p : params.params()) {
    if (p->grad.squared_norm() > 0.0) ++with_grad;
  }
  // Every transform (proj, f/g node, f/g job, f/g global) has weight params
  // receiving gradient; biases of late layers may be zero-grad by chance,
  // so just require a solid majority of parameter tensors to be touched.
  EXPECT_GT(with_grad, static_cast<int>(params.params().size()) / 2);
}

TEST(GraphEmbedding, ParamCountIsSmall) {
  // The paper's model is ~12.7k parameters; ours is the same order.
  Rng rng(1);
  GraphEmbedding gnn(small_config(), rng);
  auto params = gnn.param_set();
  EXPECT_GT(params.num_parameters(), 1000u);
  EXPECT_LT(params.num_parameters(), 30000u);
}

// embed()'s tape on five seeded 50-node DAGs (the profiling graphs of the
// 50-node-DAG benches): the level-batched sweep records a fixed set of nodes
// per message-passing level, the one-node-at-a-time reference a set per
// node. The counts follow from the DAG structure alone.
TEST(GraphEmbedding, BatchedSweepTapeNodesArePinned) {
  std::vector<JobGraph> graphs;
  for (std::uint64_t g = 0; g < 5; ++g) {
    graphs.push_back(random_job_graph(100 + g, 50));
  }
  GnnConfig reference_config;
  reference_config.batched = false;
  Rng rng_b(7), rng_r(7);
  const GraphEmbedding batched(GnnConfig{}, rng_b);
  const GraphEmbedding reference(reference_config, rng_r);
  nn::Tape tb(/*track_gradients=*/false), tr(/*track_gradients=*/false);
  batched.embed(tb, graphs);
  reference.embed(tr, graphs);
  EXPECT_EQ(tb.num_nodes(), 452u);
  EXPECT_EQ(tr.num_nodes(), 10466u);
}

// Property sweep: embeddings are finite for random DAG shapes.
class RandomDagEmbed : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagEmbed, ProducesFiniteEmbeddings) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = rng.uniform_int(1, 12);
  JobGraph g;
  g.env_job = 0;
  g.features = nn::Matrix(static_cast<std::size_t>(n), 5);
  for (double& v : g.features.raw()) v = rng.uniform(-1, 1);
  sim::JobBuilder b("random");
  b.stage(1, 1.0);
  for (int v = 1; v < n; ++v) b.stage(1, 1.0, {rng.uniform_int(0, v - 1)});
  g.shape = sim::JobShape::of(b.build());
  g.runnable.assign(static_cast<std::size_t>(n), true);

  Rng init(99);
  GraphEmbedding gnn(small_config(), init);
  nn::Tape tape;
  const auto emb = gnn.embed(tape, {g});
  for (double v : tape.value(emb.global_mat).raw()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  for (double v : tape.value(emb.node_all).raw()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RandomDagEmbed, ::testing::Range(0, 15));

}  // namespace
}  // namespace decima::gnn
