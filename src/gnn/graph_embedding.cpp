#include "gnn/graph_embedding.h"

#include <algorithm>
#include <cassert>

namespace decima::gnn {

EpisodeEmbeddings stack_features(nn::Tape& tape,
                                 const std::vector<const JobGraph*>& graphs) {
  assert(!graphs.empty());
  EpisodeEmbeddings out;
  out.node_offset.resize(graphs.size());
  std::size_t total = 0;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    assert(graphs[g]->shape &&
           graphs[g]->shape->children.size() == graphs[g]->features.rows());
    out.node_offset[g] = total;
    total += graphs[g]->features.rows();
  }
  const std::size_t fd = graphs[0]->features.cols();
  nn::Matrix X(total, fd);
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    std::copy(graphs[g]->features.raw().begin(),
              graphs[g]->features.raw().end(),
              X.raw().begin() +
                  static_cast<std::ptrdiff_t>(out.node_offset[g] * fd));
  }
  out.feat_all = tape.constant(std::move(X));
  return out;
}

// The six transforms are Mlp's default §6.1 {32, 16} perceptrons.
GraphEmbedding::GraphEmbedding(const GnnConfig& config, decima::Rng& rng)
    : config_(config),
      proj_("gnn/proj", static_cast<std::size_t>(config.feat_dim),
            static_cast<std::size_t>(config.emb_dim), {16}),
      f_node_("gnn/f_node", static_cast<std::size_t>(config.emb_dim),
              static_cast<std::size_t>(config.emb_dim)),
      g_node_("gnn/g_node", static_cast<std::size_t>(config.emb_dim),
              static_cast<std::size_t>(config.emb_dim)),
      f_job_("gnn/f_job", static_cast<std::size_t>(2 * config.emb_dim),
             static_cast<std::size_t>(config.emb_dim)),
      g_job_("gnn/g_job", static_cast<std::size_t>(config.emb_dim),
             static_cast<std::size_t>(config.emb_dim)),
      f_glob_("gnn/f_glob", static_cast<std::size_t>(config.emb_dim),
              static_cast<std::size_t>(config.emb_dim)),
      g_glob_("gnn/g_glob", static_cast<std::size_t>(config.emb_dim),
              static_cast<std::size_t>(config.emb_dim)) {
  proj_.init(rng);
  f_node_.init(rng);
  g_node_.init(rng);
  f_job_.init(rng);
  g_job_.init(rng);
  f_glob_.init(rng);
  g_glob_.init(rng);
}

std::vector<nn::Var> GraphEmbedding::node_sweep_reference(
    nn::Tape& tape, const JobGraph& graph,
    std::vector<nn::Var>& proj_out) const {
  const std::size_t n = graph.features.rows();
  const nn::Var x = tape.constant(graph.features);
  std::vector<nn::Var> proj(n), emb(n);
  for (std::size_t v = 0; v < n; ++v) {
    proj[v] = proj_.apply(tape, tape.row(x, v));
  }
  // Reverse topological sweep: every node's children are embedded before the
  // node itself, which realizes the leaves-to-roots message passing of
  // Fig. 5a in a single pass.
  const sim::JobShape& shape = *graph.shape;
  for (auto it = shape.topo.rbegin(); it != shape.topo.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    const auto& kids = shape.children[v];
    if (kids.empty()) {
      emb[v] = proj[v];
      continue;
    }
    std::vector<nn::Var> messages;
    messages.reserve(kids.size());
    for (int u : kids) {
      messages.push_back(f_node_.apply(tape, emb[static_cast<std::size_t>(u)]));
    }
    nn::Var agg = tape.addn(messages);
    if (config_.two_level_aggregation) agg = g_node_.apply(tape, agg);
    emb[v] = tape.add(agg, proj[v]);
  }
  proj_out = std::move(proj);
  return emb;
}

EpisodeEmbeddings GraphEmbedding::embed(
    nn::Tape& tape, const std::vector<JobGraph>& graphs) const {
  assert(!graphs.empty());
  std::vector<const JobGraph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const JobGraph& g : graphs) ptrs.push_back(&g);
  if (config_.batched) {
    return embed_episode(tape, ptrs,
                         std::vector<std::size_t>(graphs.size(), 0), 1);
  }

  // Reference path: the original one-node-at-a-time implementation at every
  // level (the "before" of the latency benchmarks), its rows stacked into
  // embed_episode's layout afterwards.
  EpisodeEmbeddings out = stack_features(tape, ptrs);
  std::vector<nn::Var> node_rows, proj_rows, job_rows;
  for (const JobGraph& g : graphs) {
    std::vector<nn::Var> proj;
    const std::vector<nn::Var> emb = node_sweep_reference(tape, g, proj);
    std::vector<nn::Var> messages;
    messages.reserve(emb.size());
    for (std::size_t v = 0; v < emb.size(); ++v) {
      messages.push_back(
          f_job_.apply(tape, tape.concat_cols({proj[v], emb[v]})));
    }
    nn::Var agg = tape.addn(messages);
    if (config_.two_level_aggregation) agg = g_job_.apply(tape, agg);
    job_rows.push_back(agg);
    node_rows.insert(node_rows.end(), emb.begin(), emb.end());
    proj_rows.insert(proj_rows.end(), proj.begin(), proj.end());
  }
  std::vector<nn::Var> messages;
  messages.reserve(job_rows.size());
  for (const nn::Var& y : job_rows) {
    messages.push_back(f_glob_.apply(tape, y));
  }
  nn::Var agg = tape.addn(messages);
  if (config_.two_level_aggregation) agg = g_glob_.apply(tape, agg);
  out.node_all = tape.concat_rows(node_rows);
  out.proj_all = tape.concat_rows(proj_rows);
  out.job_mat = tape.concat_rows(job_rows);
  out.global_mat = agg;
  return out;
}

EpisodeEmbeddings GraphEmbedding::embed_episode(
    nn::Tape& tape, const std::vector<const JobGraph*>& graphs,
    const std::vector<std::size_t>& event_of_graph,
    std::size_t num_events) const {
  assert(event_of_graph.size() == graphs.size());
  const std::size_t G = graphs.size();
  EpisodeEmbeddings out = stack_features(tape, graphs);
  const std::size_t total = tape.value(out.feat_all).rows();
  std::vector<std::size_t> graph_of(total);  // node row -> graph index
  for (std::size_t g = 0; g < G; ++g) {
    const auto first = graph_of.begin() +
                       static_cast<std::ptrdiff_t>(out.node_offset[g]);
    std::fill(first,
              first + static_cast<std::ptrdiff_t>(graphs[g]->features.rows()),
              g);
  }

  // One feature lift for every node of every event.
  const nn::Var P = proj_.apply(tape, out.feat_all);
  out.proj_all = P;

  // Cross-graph levelization: depth is a per-graph property (the job
  // shape's levels), so nodes of one depth are independent across every
  // graph and every event — each level of the leaves-to-roots sweep runs as
  // ONE f/g application for the whole episode.
  std::vector<std::vector<std::size_t>> glevels;  // level -> global node ids
  std::vector<std::size_t> level_of(total), row_in_level(total);
  for (std::size_t g = 0; g < G; ++g) {
    const auto& levels = graphs[g]->shape->levels;
    if (glevels.size() < levels.size()) glevels.resize(levels.size());
    for (std::size_t L = 0; L < levels.size(); ++L) {
      for (std::size_t v : levels[L]) {
        const std::size_t gid = out.node_offset[g] + v;
        level_of[gid] = L;
        row_in_level[gid] = glevels[L].size();
        glevels[L].push_back(gid);
      }
    }
  }

  std::vector<nn::Var> level_mat(glevels.size());
  // f(e_u) depends only on the child u, so it is computed ONCE per node (one
  // f_node pass over each level's rows, built lazily) and its rows are
  // gathered per edge, amortized across every graph of every event. The
  // gathered rows are bit-identical to per-edge evaluation.
  std::vector<nn::Var> f_mat(glevels.size());
  auto f_of_level = [&](std::size_t S) {
    if (!f_mat[S].valid()) f_mat[S] = f_node_.apply(tape, level_mat[S]);
    return f_mat[S];
  };
  level_mat[0] = tape.rows(P, glevels[0]);
  for (std::size_t L = 1; L < glevels.size(); ++L) {
    const auto& level = glevels[L];
    // Messages in (destination, child) order. Children live in earlier
    // level matrices; gather per source level and scatter into place (each
    // position is written exactly once, so the segment-sum is a pure
    // interleave and the values match a direct row gather bit for bit).
    std::vector<std::size_t> seg_dst;
    std::vector<std::vector<std::size_t>> src_rows(L), src_pos(L);
    std::size_t n_children = 0;
    for (std::size_t i = 0; i < level.size(); ++i) {
      const std::size_t gid = level[i];
      const std::size_t g = graph_of[gid];
      const std::size_t v = gid - out.node_offset[g];
      for (int u : graphs[g]->shape->children[v]) {
        const std::size_t ugid =
            out.node_offset[g] + static_cast<std::size_t>(u);
        const std::size_t S = level_of[ugid];
        src_rows[S].push_back(row_in_level[ugid]);
        src_pos[S].push_back(n_children);
        seg_dst.push_back(i);
        ++n_children;
      }
    }
    std::vector<nn::Var> parts;
    for (std::size_t S = 0; S < L; ++S) {
      if (src_rows[S].empty()) continue;
      const nn::Var got = tape.rows(f_of_level(S), std::move(src_rows[S]));
      parts.push_back(
          tape.segment_sum_rows(got, std::move(src_pos[S]), n_children));
    }
    const nn::Var F = parts.size() == 1 ? parts[0] : tape.addn(parts);
    nn::Var agg = tape.segment_sum_rows(F, std::move(seg_dst), level.size());
    if (config_.two_level_aggregation) agg = g_node_.apply(tape, agg);
    level_mat[L] = tape.add(agg, tape.rows(P, level));
  }

  // Restore (graph, node) row order for consumers: one gather through the
  // level-major stack.
  if (glevels.size() == 1) {
    out.node_all = level_mat[0];
  } else {
    std::vector<std::size_t> level_base(glevels.size(), 0);
    for (std::size_t L = 1; L < glevels.size(); ++L) {
      level_base[L] = level_base[L - 1] + glevels[L - 1].size();
    }
    std::vector<std::size_t> lm_row(total);
    for (std::size_t gid = 0; gid < total; ++gid) {
      lm_row[gid] = level_base[level_of[gid]] + row_in_level[gid];
    }
    out.node_all = tape.rows(tape.concat_rows(level_mat), std::move(lm_row));
  }

  // Job level: f' over [proj(x_v), e_v] of every node of the episode at once,
  // segment-summed per graph (same node order per graph as embed()).
  const nn::Var joined = tape.concat_cols({P, out.node_all});
  nn::Var job_stack =
      tape.segment_sum_rows(f_job_.apply(tape, joined), std::move(graph_of), G);
  if (config_.two_level_aggregation) job_stack = g_job_.apply(tape, job_stack);
  out.job_mat = job_stack;

  // Global level: f'' over every job row, segment-summed per event — one z
  // row per scheduling event.
  nn::Var agg = tape.segment_sum_rows(f_glob_.apply(tape, out.job_mat),
                                      event_of_graph, num_events);
  if (config_.two_level_aggregation) agg = g_glob_.apply(tape, agg);
  out.global_mat = agg;
  return out;
}

nn::ParamSet GraphEmbedding::param_set() {
  nn::ParamSet set;
  set.add(proj_.params());
  set.add(f_node_.params());
  set.add(g_node_.params());
  set.add(f_job_.params());
  set.add(g_job_.params());
  set.add(f_glob_.params());
  set.add(g_glob_.params());
  return set;
}

}  // namespace decima::gnn
