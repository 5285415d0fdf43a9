// The graph neural network of §5.1.
//
// Three levels of summarization, each with its own pair of non-linear
// transforms f and g (six MLPs total, exactly as the paper):
//   per-node:  e_v = g(Σ_{u ∈ ξ(v)} f(e_u)) + proj(x_v)   (Eq. 1)
//   per-job:   y_i = g'(Σ_{v ∈ G_i} f'([proj(x_v), e_v]))
//   global:    z   = g''(Σ_i f''(y_i))
// Raw features are first lifted to the embedding dimension by a learned
// projection so the "+ x_v" residual of Eq. 1 is well-typed.
//
// The second non-linearity g is what lets the network express max-like
// aggregations such as a DAG's critical path (Appendix E); the single-level
// ablation (two_level_aggregation = false, used for Fig. 19) removes it:
//   e_v = Σ_{u ∈ ξ(v)} f(e_u) + proj(x_v).
#pragma once

#include <memory>
#include <vector>

#include "gnn/embedding_cache.h"
#include "gnn/features.h"
#include "nn/mlp.h"

namespace decima::gnn {

struct GnnConfig {
  int feat_dim = 5;
  int emb_dim = 8;
  bool two_level_aggregation = true;  // false = Fig. 19 ablation
  std::vector<std::size_t> hidden = {32, 16};  // §6.1's layer sizes
  // true (default) runs embed() as a one-event embed_episode, which
  // evaluates each message-passing level as one row-batched matrix per MLP;
  // false keeps the original one-node-at-a-time reference implementation
  // (used by equivalence tests and latency benchmarks).
  bool batched = true;
};

// The embedding of a batch of scheduling events on one tape: one event from
// embed(), every event of an episode chunk from embed_episode (the batched
// REINFORCE replay). All events' graphs are flattened into one list;
// `node_offset[g]` locates graph g's rows inside the stacked matrices.
struct EpisodeEmbeddings {
  nn::Var feat_all;    // total_nodes x feat_dim constant (stacked raw x_v)
  nn::Var proj_all;    // total_nodes x emb_dim proj(x_v), same rows; the
                       // cached form leaves it unset
  nn::Var node_all;    // total_nodes x emb_dim; row node_offset[g] + v = e_v
  nn::Var job_mat;     // num_graphs x emb_dim (row g = y of graph g)
  nn::Var global_mat;  // num_events x emb_dim (row t = z of event t)
  std::vector<std::size_t> node_offset;  // first row of graph g
};

// Stacks every graph's raw feature rows into one total_nodes x feat_dim tape
// constant: returns an EpisodeEmbeddings with only feat_all and node_offset
// set. The batched sweep, its cached form and the no-GNN stand-ins share it.
EpisodeEmbeddings stack_features(nn::Tape& tape,
                                 const std::vector<const JobGraph*>& graphs);

class GraphEmbedding {
 public:
  explicit GraphEmbedding(const GnnConfig& config, decima::Rng& rng);

  // Builds the full three-level embedding of one event's `graphs` on
  // `tape`. With config().batched it is exactly embed_episode(tape, graphs,
  // {0, ..., 0}, 1); otherwise the one-node-at-a-time reference sweep,
  // stacked into the same layout.
  EpisodeEmbeddings embed(nn::Tape& tape,
                          const std::vector<JobGraph>& graphs) const;

  // Episode-batched embedding: `graphs` holds every graph of every scheduling
  // event of an episode (or chunk), `event_of_graph[g]` names graph g's event
  // (non-decreasing, < num_events). Node and job levels are event-independent
  // and run fully batched — each of the six MLPs is applied once per
  // message-passing depth (not once per graph per event); the global level
  // segment-sums per event, so global_mat row t is exactly the z the
  // inference path computes for event t. The one batched sweep: always
  // batched regardless of config().batched, and embed() with
  // config().batched is one event of it.
  EpisodeEmbeddings embed_episode(
      nn::Tape& tape, const std::vector<const JobGraph*>& graphs,
      const std::vector<std::size_t>& event_of_graph,
      std::size_t num_events) const;

  // Cached embedding of a batch of events (schedule() with one event, the
  // serving path with one event per session): graphs of event t are those
  // with event_of_graph[g] == t and refresh caches[t] (one per-session
  // cache, nullptr = compute without caching) — re-embedding only dirty
  // nodes and their ancestors in message flow (src/gnn/embedding_cache.h).
  // Produces the same stacked layout as embed_episode, as forward-only tape
  // constants, numerically identical to it (the cache evaluates the same
  // kernels in the same order on the dirty rows and re-reduces summaries
  // over mixed cached/fresh rows); proj_all is left unset. Callers must
  // ensure_param_version() each cache first; not usable for training
  // (constants carry no gradient).
  EpisodeEmbeddings embed_episode_cached(
      nn::Tape& tape, const std::vector<const JobGraph*>& graphs,
      const std::vector<std::size_t>& event_of_graph, std::size_t num_events,
      const std::vector<EmbeddingCache*>& caches) const;

  // embed_episode_cached for one event refreshing `cache`, for tests and
  // benches (the agent batches its events itself). An empty `graphs` list
  // returns an empty result and leaves the cache untouched.
  EpisodeEmbeddings embed_cached(nn::Tape& tape,
                                 const std::vector<JobGraph>& graphs,
                                 EmbeddingCache& cache) const;

  nn::ParamSet param_set();
  const GnnConfig& config() const { return config_; }

 private:
  // Original one-node-at-a-time sweep of one graph (config_.batched =
  // false): returns e_v per node; `proj_out` receives proj(x_v) per node.
  std::vector<nn::Var> node_sweep_reference(
      nn::Tape& tape, const JobGraph& graph,
      std::vector<nn::Var>& proj_out) const;

  // Brings `cache`'s entry for `graph` up to date (embedding_cache.cpp):
  // validates structure, diffs feature rows against the entry's copy, and
  // re-embeds dirty subgraphs.
  const EmbeddingCache::Entry& refresh_cache_entry(const JobGraph& graph,
                                                   EmbeddingCache& cache) const;
  // Recomputes `entry` for the nodes in `feat_dirty` (feature rows changed)
  // and everything downstream of them in message flow.
  void update_cache_entry(const JobGraph& graph,
                          const std::vector<std::size_t>& feat_dirty,
                          EmbeddingCache::Entry& entry,
                          EmbeddingCacheStats& stats) const;

  GnnConfig config_;
  nn::Mlp proj_;    // feat_dim -> emb_dim feature lift
  nn::Mlp f_node_, g_node_;
  nn::Mlp f_job_, g_job_;
  nn::Mlp f_glob_, g_glob_;
};

}  // namespace decima::gnn
