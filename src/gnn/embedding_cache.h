// Incremental embedding cache (docs/incremental_embedding.md).
//
// Between two consecutive scheduling events only a handful of node features
// change (task counts, executor counts), yet the agent re-embeds every job
// DAG from scratch. This cache keeps the numeric forward activations of the
// last embedding of each job — proj(x_v), e_v, f(e_v), f'([proj, e_v]),
// the job summary y and f''(y) — and lets
// GraphEmbedding::embed_episode_cached re-evaluate only nodes whose feature
// rows changed, plus their ancestors in message flow. One call refreshes
// every graph of every event (every session of a served batch) together:
// each MLP runs once per message-passing level over the dirty rows of all of
// them. Clean rows are gathered from the cache; job and global summaries are
// re-reduced by segment-sum over the mixed cached/fresh rows in the same
// order as the full batched pass, so the result is numerically identical to
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
#include <memory>
#include <vector>

#include "nn/matrix.h"
#include "sim/job.h"

namespace decima::gnn {

class GraphEmbedding;

struct EmbeddingCacheStats {
  std::uint64_t events = 0;            // events embedded through the cache
  std::uint64_t graphs_seen = 0;       // per-event per-graph refreshes
  std::uint64_t graphs_reused = 0;     // fully clean: no MLP work at all
  std::uint64_t graphs_rebuilt = 0;    // new job: a full build
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
  // order unless noted; `feats` / `shape` pin the inputs they were computed
  // from.
  struct Entry {
    nn::Matrix feats;  // features last embedded
    // The job's shape, null until the entry is first built. It is the
    // entry's key, held so that no other shape can take its address while
    // the entry lives; its children, topological order and levels drive the
    // dirty closure and the level sweep, the same levels
    // GraphEmbedding::embed_episode sweeps by.
    std::shared_ptr<const sim::JobShape> shape;

    nn::Matrix P;   // proj(x_v)
    nn::Matrix E;   // e_v  (Eq. 1)
    nn::Matrix F;   // f(e_v); row v meaningful only while f_valid[v]
    std::vector<char> f_valid;
    nn::Matrix FJ;  // f'([proj(x_v), e_v])
    nn::Matrix y;   // 1 x d job summary g'(Σ_v FJ_v)
    nn::Matrix fg;  // 1 x d f''(y)

    std::uint64_t last_used = 0;  // event clock, for garbage collection
    std::uint64_t round = 0;      // the refresh round that last claimed it
  };

  // The batched refresh's per-thread working set (embedding_cache.cpp).
  struct Refresh;

  // Keyed by JobGraph::shape: each env job has a shape object of its own.
  std::map<const sim::JobShape*, Entry> entries_;
  std::uint64_t param_version_ = 0;
  bool has_param_version_ = false;
  std::uint64_t event_clock_ = 0;
  EmbeddingCacheStats stats_;
};

}  // namespace decima::gnn
