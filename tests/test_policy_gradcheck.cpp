// End-to-end gradient check: finite differences through the *entire*
// pipeline — graph embedding (three levels), score function, masked softmax
// log-probability — against the tape's analytic gradients. This is the
// strongest guarantee that ∇_θ log π_θ(s, a), the quantity REINFORCE relies
// on, is computed correctly.
#include <gtest/gtest.h>

#include <cmath>

#include "gnn/graph_embedding.h"
#include "nn/mlp.h"

namespace decima {
namespace {

gnn::JobGraph make_graph(Rng& rng, int n) {
  gnn::JobGraph g;
  g.env_job = 0;
  g.features = nn::Matrix(static_cast<std::size_t>(n), 5);
  for (double& v : g.features.raw()) v = rng.uniform(-0.5, 0.5);
  sim::JobBuilder b("random");
  b.stage(1, 1.0);
  for (int v = 1; v < n; ++v) b.stage(1, 1.0, {rng.uniform_int(0, v - 1)});
  g.shape = sim::JobShape::of(b.build());
  g.runnable.assign(static_cast<std::size_t>(n), true);
  return g;
}

// log pi(node = pick) over all nodes of two DAGs, through the full GNN and
// the chain the production scorer uses: one gather_concat_cols of every
// node's [x_v, e_v, y_i, z] row, one q pass, one softmax segment.
nn::Var logp(gnn::GraphEmbedding& gnn, nn::Mlp& q,
             const std::vector<gnn::JobGraph>& graphs, std::size_t pick,
             nn::Tape& tape) {
  const auto emb = gnn.embed(tape, graphs);
  std::vector<std::size_t> node_rows, graph_rows;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t v = 0; v < graphs[g].runnable.size(); ++v) {
      node_rows.push_back(emb.node_offset[g] + v);
      graph_rows.push_back(g);
    }
  }
  std::vector<std::size_t> event_rows(node_rows.size(), 0);
  const nn::Var in = tape.gather_concat_cols(
      {emb.feat_all, emb.node_all, emb.job_mat, emb.global_mat},
      {node_rows, node_rows, std::move(graph_rows), std::move(event_rows)});
  return tape.log_prob_pick_segments(q.apply(tape, in), {0}, {pick});
}

class PolicyGradcheck : public ::testing::TestWithParam<int> {};

TEST_P(PolicyGradcheck, FullPipelineMatchesFiniteDifferences) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  gnn::GnnConfig cfg;
  Rng init(99);
  gnn::GraphEmbedding gnn(cfg, init);
  nn::Mlp q("q", 5 + 3 * 8, 1);
  q.init(init);
  nn::ParamSet params = gnn.param_set();
  params.add(q.params());

  std::vector<gnn::JobGraph> graphs = {make_graph(rng, rng.uniform_int(2, 6)),
                                       make_graph(rng, rng.uniform_int(2, 6))};
  const std::size_t total_nodes =
      graphs[0].runnable.size() + graphs[1].runnable.size();
  const std::size_t pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(total_nodes) - 1));

  // Analytic gradient.
  params.zero_grads();
  {
    nn::Tape tape;
    tape.backward(logp(gnn, q, graphs, pick, tape));
  }
  const std::vector<double> analytic = params.flat_grads();

  // Finite differences on a random sample of parameters (the full set is
  // ~9k entries; a spread-out sample keeps the test fast but thorough).
  std::vector<double> flat_values;
  for (nn::Param* p : params.params()) {
    flat_values.insert(flat_values.end(), p->value.raw().begin(),
                       p->value.raw().end());
  }
  auto set_flat = [&](std::size_t idx, double value) {
    std::size_t offset = 0;
    for (nn::Param* p : params.params()) {
      if (idx < offset + p->value.raw().size()) {
        p->value.raw()[idx - offset] = value;
        return;
      }
      offset += p->value.raw().size();
    }
  };

  const double eps = 1e-6;
  int checked = 0;
  for (int s = 0; s < 60; ++s) {
    const std::size_t idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(flat_values.size()) - 1));
    const double orig = flat_values[idx];
    set_flat(idx, orig + eps);
    nn::Tape t1(false);
    const double f_plus = t1.value(logp(gnn, q, graphs, pick, t1))(0, 0);
    set_flat(idx, orig - eps);
    nn::Tape t2(false);
    const double f_minus = t2.value(logp(gnn, q, graphs, pick, t2))(0, 0);
    set_flat(idx, orig);
    const double numeric = (f_plus - f_minus) / (2 * eps);
    const double scale =
        std::max({std::abs(numeric), std::abs(analytic[idx]), 1e-3});
    EXPECT_NEAR(analytic[idx], numeric, scale * 1e-4)
        << "param index " << idx << " seed " << GetParam();
    ++checked;
  }
  EXPECT_EQ(checked, 60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyGradcheck, ::testing::Range(0, 5));

}  // namespace
}  // namespace decima
