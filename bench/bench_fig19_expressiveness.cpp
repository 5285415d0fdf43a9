// Figure 19 (Appendix E): expressiveness of the two-level aggregation.
//
// Supervised study: train the graph neural network to predict each node's
// critical-path value on random DAGs, then test whether it identifies the
// node with the maximum critical path on unseen DAGs. The two-level
// non-linear aggregation (f and g, Eq. 1) can express the needed max
// operation and approaches high accuracy; the single-level variant plateaus
// (paper: near-perfect vs unstable/low).
#include "bench_common.h"

#include "gnn/graph_embedding.h"
#include "nn/adam.h"

using namespace decima;

namespace {

struct LabeledDag {
  gnn::JobGraph graph;
  std::vector<double> cp;  // critical-path value per node
  std::size_t argmax = 0;  // index of the branch head with the larger cp
  std::size_t branch_a = 0, branch_b = 0;  // the two branch-head nodes
};

// Adversarial DAGs where total descendant work anti-correlates with the
// critical path, while every node draws its features from the *same*
// distribution — only the graph structure distinguishes the branches.
// Branch A is a single deep chain (large cp, few nodes); branch B fans out
// into several short chains (small cp, many nodes, more total work). A sum
// aggregation tracks subtree size/work and misranks them; computing cp
// needs the max operation the second non-linear transform provides
// (Appendix E).
LabeledDag random_dag(Rng& rng) {
  sim::JobBuilder b("dag");
  auto dur = [&] { return rng.uniform(1.0, 2.0); };
  const int root = b.stage(1, dur());

  // Branch A: deep chain (depth 6-7).
  const int depth_a = rng.uniform_int(6, 7);
  const int chain_head_idx = b.stage(1, dur(), {root});
  int chain = chain_head_idx;
  for (int i = 1; i < depth_a; ++i) chain = b.stage(1, dur(), {chain});

  // Branch B: 5-8 parallel chains of depth 2 under one head — more nodes
  // and more total work than branch A, but a much shorter critical path.
  const int fan_head = b.stage(1, dur(), {root});
  const int width = rng.uniform_int(5, 8);
  for (int i = 0; i < width; ++i) {
    const int mid = b.stage(1, dur(), {fan_head});
    b.stage(1, dur(), {mid});
  }

  const sim::JobSpec spec = b.build();
  LabeledDag out;
  out.graph.shape = sim::JobShape::of(spec);
  out.cp = out.graph.shape->critical_path;
  out.branch_a = static_cast<std::size_t>(chain_head_idx);
  out.branch_b = static_cast<std::size_t>(fan_head);
  out.argmax = out.cp[out.branch_a] >= out.cp[out.branch_b] ? out.branch_a
                                                            : out.branch_b;
  out.graph.env_job = 0;
  out.graph.features = nn::Matrix(spec.stages.size(), 5);
  for (std::size_t v = 0; v < spec.stages.size(); ++v) {
    out.graph.features(v, 0) = spec.stages[v].num_tasks / 10.0;
    out.graph.features(v, 1) = spec.stages[v].task_duration / 3.0;
    out.graph.features(v, 2) = spec.stages[v].work() / 30.0;
  }
  out.graph.runnable.assign(spec.stages.size(), true);
  return out;
}

// One readout MLP maps node embeddings to predicted critical-path values.
double train_and_test(bool two_level, int iterations, int batch,
                      std::vector<double>* curve) {
  Rng init(5);
  gnn::GnnConfig cfg;
  cfg.two_level_aggregation = two_level;
  gnn::GraphEmbedding gnn(cfg, init);
  nn::Mlp readout("readout", 8, 1, {16});
  readout.init(init);
  nn::ParamSet params = gnn.param_set();
  params.add(readout.params());
  nn::Adam adam(&params, {.lr = 1e-3});

  Rng data(11);
  Rng test_data(777);
  std::vector<LabeledDag> test_set;
  for (int i = 0; i < 100; ++i) test_set.push_back(random_dag(test_data));

  // Accuracy: does the predicted cp rank the two branch heads correctly?
  auto accuracy = [&] {
    int correct = 0;
    for (const auto& d : test_set) {
      nn::Tape tape(false);
      const auto emb = gnn.embed(tape, {d.graph});
      const double pred_a = tape.value(readout.apply(
          tape, tape.row(emb.node_all, d.branch_a)))(0, 0);
      const double pred_b = tape.value(readout.apply(
          tape, tape.row(emb.node_all, d.branch_b)))(0, 0);
      const std::size_t picked = pred_a >= pred_b ? d.branch_a : d.branch_b;
      correct += picked == d.argmax ? 1 : 0;
    }
    return static_cast<double>(correct) / static_cast<double>(test_set.size());
  };

  for (int it = 0; it < iterations; ++it) {
    params.zero_grads();
    for (int bi = 0; bi < batch; ++bi) {
      const LabeledDag d = random_dag(data);
      nn::Tape tape;
      const auto emb = gnn.embed(tape, {d.graph});
      const std::size_t n = d.graph.features.rows();
      std::vector<nn::Var> rows(n);
      for (std::size_t v = 0; v < n; ++v) rows[v] = tape.row(emb.node_all, v);
      // Squared-error gradient: each node's prediction scaled by its
      // d(loss)/d(pred), summed, then ONE backward pass per DAG (backward
      // never clears interior grads, so a pass per node would re-propagate
      // every earlier node's seed).
      std::vector<nn::Var> terms;
      terms.reserve(n);
      for (std::size_t v = 0; v < n; ++v) {
        nn::Var pred = readout.apply(tape, rows[v]);
        const double err = tape.value(pred)(0, 0) - d.cp[v] / 10.0;
        terms.push_back(tape.scale(
            pred, 2.0 * err / (batch * static_cast<double>(n))));
      }
      tape.backward(tape.addn(terms));
    }
    params.clip_grad_norm(10.0);
    adam.step();
    if (curve && it % std::max(1, iterations / 12) == 0) {
      curve->push_back(accuracy());
    }
  }
  return accuracy();
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 19 (Appendix E)",
      "Supervised critical-path identification on unseen random DAGs:\n"
      "two-level non-linear aggregation (Eq. 1) vs a single-level\n"
      "aggregation that cannot express the max operation.");

  const int iterations = std::max(60, bench::train_iters(150));
  std::vector<double> curve_two, curve_one;
  const double acc_two = train_and_test(true, iterations, 8, &curve_two);
  const double acc_one = train_and_test(false, iterations, 8, &curve_one);

  Table t({"snapshot", "two-level accuracy", "single-level accuracy"});
  for (std::size_t k = 0; k < std::min(curve_two.size(), curve_one.size());
       ++k) {
    t.add_row({fmt_int(static_cast<long long>(k)), fmt_pct(curve_two[k]),
               fmt_pct(curve_one[k])});
  }
  std::cout << t.to_string();
  std::cout << "\nfinal test accuracy: two-level " << fmt_pct(acc_two)
            << ", single-level " << fmt_pct(acc_one)
            << "\n(paper: two-level approaches ~100%; single-level never\n"
               " reaches stable high accuracy)\n";
  return 0;
}
