// Incremental embedding cache (docs/incremental_embedding.md).
//
// Between two consecutive scheduling events only a handful of node features
// change (task counts, executor counts), yet the agent re-embeds every job
// DAG from scratch. This cache keeps the numeric forward activations of the
// last embedding per (env, job) — proj(x_v), e_v, f(e_v), f'([proj, e_v]),
// the job summary y and f''(y) — and lets
// GraphEmbedding::embed_episode_cached re-evaluate only nodes whose feature
// rows changed, plus their ancestors in message flow. Clean rows are
// gathered from the cache; job and global summaries are re-reduced by
// segment-sum over the mixed cached/fresh rows in the same order as the full
// batched pass, so the result is numerically identical to
// GraphEmbedding::embed.
//
// Dirty tracking has two layers, and the cache owns both:
//   1. parameter version — a ParamSet::version() mismatch (Adam step,
//      checkpoint load, snapshot swap) clears the whole cache;
//   2. per-row feature diff — every refresh compares the graph's feature
//      rows against the entry's copy. The rows are everything the
//      activations were computed from, so the diff is exact whatever
//      changed them (the simulator, a fault, set_observed_iat) and needs
//      no help from the code that produced the graph.
//
// Inference-only: training replay differentiates through the embedding, so
// it must rebuild the tape every time (embed_episode); a numeric cache has
// no gradient to offer. One cache serves one stream of events — the agent
// owns one for schedule(), each served session owns one for decide() — and
// must never be shared across threads without external ordering.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "nn/matrix.h"

namespace decima::gnn {

class GraphEmbedding;

struct EmbeddingCacheStats {
  std::uint64_t events = 0;            // events embedded through the cache
  std::uint64_t graphs_seen = 0;       // per-event per-graph refreshes
  std::uint64_t graphs_reused = 0;     // fully clean: no MLP work at all
  std::uint64_t graphs_rebuilt = 0;    // new job / structure change: full
  std::uint64_t diff_refreshes = 0;    // diff path that re-embedded rows
  std::uint64_t nodes_total = 0;       // nodes presented for embedding
  std::uint64_t nodes_recomputed = 0;  // nodes actually re-embedded
  std::uint64_t invalidations = 0;     // full clears (parameter changes)
};

class EmbeddingCache {
 public:
  // Drops every entry (keeps the stats). Called automatically on parameter
  // version changes; call it manually after mutating Param values directly.
  void invalidate();

  // Clears the cache when `version` differs from the version the cached
  // activations were computed under (new Adam step, freshly loaded
  // checkpoint, different policy snapshot behind the same session).
  void ensure_param_version(std::uint64_t version);

  // Drops entries untouched for several events once the map outgrows the
  // live graph set (finished/removed jobs in a long session).
  void sweep(std::size_t live_graphs);

  const EmbeddingCacheStats& stats() const { return stats_; }
  std::size_t size() const { return entries_.size(); }

 private:
  friend class GraphEmbedding;

  // Cached activations of one job DAG. Matrices are n x emb_dim in node
  // order unless noted; `feats` / `children` pin the inputs they were
  // computed from.
  struct Entry {
    nn::Matrix feats;                        // features last embedded
    std::vector<std::vector<int>> children;  // structure pin
    std::vector<int> topo;                   // parents before children
    // Levelization (computed once per structure): level 0 = leaves, each
    // node's children at strictly lower levels — identical to the grouping
    // GraphEmbedding::embed_episode sweeps by.
    std::vector<std::vector<std::size_t>> levels;

    nn::Matrix P;   // proj(x_v)
    nn::Matrix E;   // e_v  (Eq. 1)
    nn::Matrix F;   // f(e_v); row v meaningful only while f_valid[v]
    std::vector<char> f_valid;
    nn::Matrix FJ;  // f'([proj(x_v), e_v])
    nn::Matrix y;   // 1 x d job summary g'(Σ_v FJ_v)
    nn::Matrix fg;  // 1 x d f''(y)

    std::uint64_t last_used = 0;  // event clock, for garbage collection
  };

  std::map<std::pair<std::int64_t, int>, Entry> entries_;  // (env_uid, job)
  std::uint64_t param_version_ = 0;
  bool has_param_version_ = false;
  std::uint64_t event_clock_ = 0;
  EmbeddingCacheStats stats_;
};

}  // namespace decima::gnn
