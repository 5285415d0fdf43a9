// The incremental refresh behind GraphEmbedding::embed_episode_cached (see
// embedding_cache.h for the dirty-tracking contract). Everything here is
// tape-free numeric evaluation through Mlp::forward, whose per-row
// arithmetic is bit-identical to the Tape::linear forward the full batched
// pass runs — so a cached event and a full re-embedding agree exactly, not
// just within tolerance.
#include "gnn/embedding_cache.h"

#include <algorithm>
#include <cassert>

#include "gnn/graph_embedding.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace decima::gnn {

namespace {

// Process-wide cache counters (docs/observability.md): the per-cache
// EmbeddingCacheStats stay the exact per-session/per-agent ledger; these
// aggregate across every cache in the process so a serve run's global hit
// rate is one registry read. Registered once, recording is a relaxed
// atomic, and a no-op while metrics are disabled.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& diff_refreshes;
  obs::Counter& dirty_rows;
  obs::Counter& invalidations;

  static CacheMetrics& get() {
    static CacheMetrics* m = new CacheMetrics{
        obs::Registry::instance().counter(obs::names::kCacheGraphHits),
        obs::Registry::instance().counter(obs::names::kCacheGraphMisses),
        obs::Registry::instance().counter(obs::names::kCacheDiffRefreshes),
        obs::Registry::instance().counter(obs::names::kCacheDirtyRows),
        obs::Registry::instance().counter(obs::names::kCacheInvalidations)};
    return *m;
  }
};

// out row i = src row rows[i].
nn::Matrix gather_rows(const nn::Matrix& src,
                       const std::vector<std::size_t>& rows) {
  nn::Matrix out(rows.size(), src.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(src.data() + rows[i] * src.cols(),
              src.data() + (rows[i] + 1) * src.cols(),
              out.data() + i * src.cols());
  }
  return out;
}

// dst row rows[i] = src row i.
void scatter_rows(const nn::Matrix& src, const std::vector<std::size_t>& rows,
                  nn::Matrix& dst) {
  assert(src.rows() == rows.size() && src.cols() == dst.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(src.data() + i * src.cols(),
              src.data() + (i + 1) * src.cols(),
              dst.data() + rows[i] * dst.cols());
  }
}

}  // namespace

void EmbeddingCache::invalidate() {
  entries_.clear();
  ++stats_.invalidations;
  CacheMetrics::get().invalidations.inc();
}

void EmbeddingCache::ensure_param_version(std::uint64_t version) {
  if (has_param_version_ && param_version_ == version) return;
  if (has_param_version_) invalidate();
  has_param_version_ = true;
  param_version_ = version;
}

void EmbeddingCache::sweep(std::size_t live_graphs) {
  // Entries of finished/stale jobs are simply no longer refreshed; drop
  // anything untouched for a while once the map outgrows the live set, so a
  // long-lived serving session cannot accumulate unbounded state.
  if (entries_.size() <= 2 * live_graphs + 8) return;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.last_used + 8 < event_clock_) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void GraphEmbedding::update_cache_entry(
    const JobGraph& graph, const std::vector<std::size_t>& feat_dirty,
    EmbeddingCache::Entry& e, EmbeddingCacheStats& stats) const {
  const std::size_t n = graph.features.rows();
  const std::size_t d = static_cast<std::size_t>(config_.emb_dim);
  const sim::JobShape& shape = *e.shape;

  // Dirty closure over message flow: Eq. 1 feeds every node its children's
  // embeddings, so dirtiness propagates leaves -> roots. Reverse topological
  // order visits each node after all of its children.
  std::vector<char> dirty(n, 0);
  for (std::size_t v : feat_dirty) dirty[v] = 1;
  for (auto it = shape.topo.rbegin(); it != shape.topo.rend(); ++it) {
    const std::size_t v = static_cast<std::size_t>(*it);
    if (dirty[v]) continue;
    for (int u : shape.children[v]) {
      if (dirty[static_cast<std::size_t>(u)]) {
        dirty[v] = 1;
        break;
      }
    }
  }

  // proj(x_v) depends only on the node's own features: one lift over the
  // feature-dirty rows, which also become the new diff baseline.
  {
    nn::Matrix xs = gather_rows(graph.features, feat_dirty);
    scatter_rows(xs, feat_dirty, e.feats);
    scatter_rows(proj_.forward(xs), feat_dirty, e.P);
  }

  // Leaves-to-roots sweep over the dirty rows of each level. Clean children
  // contribute their cached f(e_u) row; children re-embedded at a lower
  // level had f_valid cleared there and are recomputed in one f pass per
  // level. Message order per node is children order — the same order the
  // full pass's segment-sum adds them in.
  std::size_t recomputed = 0;
  for (std::size_t L = 0; L < shape.levels.size(); ++L) {
    std::vector<std::size_t> dirty_level;
    for (std::size_t v : shape.levels[L]) {
      if (dirty[v]) dirty_level.push_back(v);
    }
    if (dirty_level.empty()) continue;
    recomputed += dirty_level.size();
    if (L == 0) {
      // Leaves have no messages: e_v = proj(x_v).
      scatter_rows(gather_rows(e.P, dirty_level), dirty_level, e.E);
    } else {
      std::vector<std::size_t> need;  // children whose f row is stale
      for (std::size_t v : dirty_level) {
        for (int u : shape.children[v]) {
          const std::size_t uu = static_cast<std::size_t>(u);
          if (!e.f_valid[uu]) {
            e.f_valid[uu] = 1;  // marks queued: dedups shared children
            need.push_back(uu);
          }
        }
      }
      if (!need.empty()) {
        scatter_rows(f_node_.forward(gather_rows(e.E, need)), need, e.F);
      }
      nn::Matrix agg(dirty_level.size(), d);
      for (std::size_t i = 0; i < dirty_level.size(); ++i) {
        for (int u : shape.children[dirty_level[i]]) {
          const std::size_t uu = static_cast<std::size_t>(u);
          for (std::size_t c = 0; c < d; ++c) agg(i, c) += e.F(uu, c);
        }
      }
      if (config_.two_level_aggregation) agg = g_node_.forward(agg);
      for (std::size_t i = 0; i < dirty_level.size(); ++i) {
        const std::size_t v = dirty_level[i];
        for (std::size_t c = 0; c < d; ++c) e.E(v, c) = agg(i, c) + e.P(v, c);
      }
    }
    // These nodes' embeddings changed; their cached f rows are now stale.
    for (std::size_t v : dirty_level) e.f_valid[v] = 0;
  }
  stats.nodes_recomputed += recomputed;
  CacheMetrics::get().dirty_rows.inc(recomputed);

  // Job level: f'([proj(x_v), e_v]) for every changed node, then the summary
  // re-reduced over ALL rows in node order — the same summation order as the
  // full pass's sum_rows, so mixing cached and fresh rows is exact.
  std::vector<std::size_t> dirty_nodes;
  for (std::size_t v = 0; v < n; ++v) {
    if (dirty[v]) dirty_nodes.push_back(v);
  }
  {
    nn::Matrix joined(dirty_nodes.size(), 2 * d);
    for (std::size_t i = 0; i < dirty_nodes.size(); ++i) {
      const std::size_t v = dirty_nodes[i];
      for (std::size_t c = 0; c < d; ++c) {
        joined(i, c) = e.P(v, c);
        joined(i, d + c) = e.E(v, c);
      }
    }
    scatter_rows(f_job_.forward(joined), dirty_nodes, e.FJ);
  }
  nn::Matrix agg(1, d);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t c = 0; c < d; ++c) agg(0, c) += e.FJ(v, c);
  }
  e.y = config_.two_level_aggregation ? g_job_.forward(agg) : std::move(agg);
  e.fg = f_glob_.forward(e.y);
}

const EmbeddingCache::Entry& GraphEmbedding::refresh_cache_entry(
    const JobGraph& graph, EmbeddingCache& cache) const {
  EmbeddingCache::Entry& e =
      cache.entries_[{graph.env_uid, graph.env_job}];
  e.last_used = cache.event_clock_;
  ++cache.stats_.graphs_seen;
  const std::size_t n = graph.features.rows();
  const std::size_t d = static_cast<std::size_t>(config_.emb_dim);
  cache.stats_.nodes_total += n;

  // An env's job keeps one shape for life, so identity settles the check
  // for every graph it produces. Synthetic graphs (env_uid -1) may reuse a
  // key with a shape of their own: equal children then mean an equal
  // structure, since topo and levels derive from them.
  const bool structure_matches =
      !e.feats.empty() && e.feats.rows() == n &&
      e.feats.cols() == graph.features.cols() &&
      (e.shape == graph.shape || e.shape->children == graph.shape->children);
  if (!structure_matches) {
    // New job behind this key (or a different graph recycling it): rebuild
    // from scratch — the shared update path with every node feature-dirty.
    ++cache.stats_.graphs_rebuilt;
    CacheMetrics::get().misses.inc();
    e = EmbeddingCache::Entry{};
    e.last_used = cache.event_clock_;
    e.shape = graph.shape;
    e.feats = nn::Matrix(n, graph.features.cols());
    e.P = nn::Matrix(n, d);
    e.E = nn::Matrix(n, d);
    e.F = nn::Matrix(n, d);
    e.f_valid.assign(n, 0);
    e.FJ = nn::Matrix(n, d);
    std::vector<std::size_t> all(n);
    for (std::size_t v = 0; v < n; ++v) all[v] = v;
    update_cache_entry(graph, all, e, cache.stats_);
  } else {
    std::vector<std::size_t> feat_dirty;
    for (std::size_t v = 0; v < n; ++v) {
      const double* fresh = graph.features.data() + v * graph.features.cols();
      const double* base = e.feats.data() + v * e.feats.cols();
      if (!std::equal(fresh, fresh + graph.features.cols(), base)) {
        feat_dirty.push_back(v);
      }
    }
    if (feat_dirty.empty()) {
      ++cache.stats_.graphs_reused;
      CacheMetrics::get().hits.inc();
    } else {
      ++cache.stats_.diff_refreshes;
      CacheMetrics::get().misses.inc();
      CacheMetrics::get().diff_refreshes.inc();
      update_cache_entry(graph, feat_dirty, e, cache.stats_);
    }
  }
  return e;
}

EpisodeEmbeddings GraphEmbedding::embed_cached(
    nn::Tape& tape, const std::vector<JobGraph>& graphs,
    EmbeddingCache& cache) const {
  if (graphs.empty()) return {};
  std::vector<const JobGraph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const JobGraph& g : graphs) ptrs.push_back(&g);
  return embed_episode_cached(tape, ptrs,
                              std::vector<std::size_t>(graphs.size(), 0), 1,
                              {&cache});
}

EpisodeEmbeddings GraphEmbedding::embed_episode_cached(
    nn::Tape& tape, const std::vector<const JobGraph*>& graphs,
    const std::vector<std::size_t>& event_of_graph, std::size_t num_events,
    const std::vector<EmbeddingCache*>& caches) const {
  assert(event_of_graph.size() == graphs.size());
  assert(caches.size() == num_events);
  const std::size_t G = graphs.size();
  const std::size_t d = static_cast<std::size_t>(config_.emb_dim);

  // Sessions without a caller-provided cache run through a scratch cache:
  // a full compute whose entries die with this call.
  EmbeddingCache scratch;
  std::vector<EmbeddingCache*> per_event(num_events);
  std::vector<std::size_t> live(num_events, 0);
  for (std::size_t t = 0; t < num_events; ++t) {
    per_event[t] = caches[t] ? caches[t] : &scratch;
    ++per_event[t]->event_clock_;
    ++per_event[t]->stats_.events;
  }

  EpisodeEmbeddings out = stack_features(tape, graphs);
  nn::Matrix node_all(tape.value(out.feat_all).rows(), d);
  nn::Matrix job_mat(G, d);
  nn::Matrix glob_sum(num_events, d);
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t t = event_of_graph[g];
    ++live[t];
    const EmbeddingCache::Entry& e =
        refresh_cache_entry(*graphs[g], *per_event[t]);
    std::copy(e.E.raw().begin(), e.E.raw().end(),
              node_all.raw().begin() +
                  static_cast<std::ptrdiff_t>(out.node_offset[g] * d));
    for (std::size_t c = 0; c < d; ++c) {
      job_mat(g, c) = e.y(0, c);
      // Graphs of one event are contiguous and ascending, so this adds the
      // event's f''(y_i) rows in the same order embed_episode's per-event
      // segment-sum does.
      glob_sum(t, c) += e.fg(0, c);
    }
  }
  out.node_all = tape.constant(std::move(node_all));
  out.job_mat = tape.constant(std::move(job_mat));
  out.global_mat = tape.constant(config_.two_level_aggregation
                                     ? g_glob_.forward(glob_sum)
                                     : std::move(glob_sum));
  for (std::size_t t = 0; t < num_events; ++t) {
    if (caches[t]) caches[t]->sweep(live[t]);
  }
  return out;
}

}  // namespace decima::gnn
