// The incremental refresh behind GraphEmbedding::embed_episode_cached (see
// embedding_cache.h for the dirty-tracking contract). One call refreshes
// every graph of every event in two steps: a diff of each graph's feature
// rows against its entry, then one leaves-to-roots sweep that runs each MLP
// once per message-passing level over the dirty rows of every refreshed
// entry. Everything is tape-free numeric evaluation through Mlp::forward,
// whose rows are independent and bit-identical to the Tape::linear forward
// the full batched pass runs, and every sum adds its terms in the full
// pass's order — so a cached event and a full re-embedding agree exactly,
// not just within tolerance.
#include "gnn/embedding_cache.h"

#include <algorithm>
#include <atomic>
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

// Refresh rounds are numbered process-wide, so an entry's stamp names the one
// round that holds it whichever thread ran the rounds before.
std::uint64_t next_round() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
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

// The batched refresh's working set. Every buffer keeps its capacity across
// calls, and there is one per thread: one agent is shared const by the
// serving dispatchers and the rollout workers, so it cannot own them.
struct EmbeddingCache::Refresh {
  // An entry this round re-embeds rows of.
  struct Graph {
    Entry* e;
    EmbeddingCacheStats* stats;
    const JobGraph* graph;
    std::size_t dirty_base;  // its node flags start at dirty[dirty_base]
  };
  // Row v of graphs[g]'s entry: what an MLP pass gathers and scatters.
  struct Row {
    std::size_t g;
    std::size_t v;
  };

  // Per call.
  std::vector<EmbeddingCache*> cache_of_event;
  std::vector<std::size_t> live;  // graphs per event
  nn::Matrix glob_sum;            // row t: sum of event t's f''(y) rows
  // Per round.
  std::vector<const Entry*> entry_of;  // the entry of each claimed graph
  std::vector<Graph> graphs;
  std::vector<char> dirty;
  std::vector<Row> feat_rows, rows, need;
  nn::Matrix in, out;
  nn::Mlp::Scratch mlp;

  // The diff step for `graph`'s entry `e` in `cache`: diffs the feature
  // rows, counts the outcome, and queues `e` with its changed rows unless it
  // is clean. A new entry is built (emb_dim `d`) with every row changed.
  void diff(const JobGraph& graph, EmbeddingCache& cache, Entry& e,
            std::size_t d);
  // in row i = `field` row of rows[i].
  void gather(const std::vector<Row>& rows, nn::Matrix Entry::*field);
  // `field` row of rows[i] = src row i.
  void scatter(const nn::Matrix& src, const std::vector<Row>& rows,
               nn::Matrix Entry::*field);
};

void EmbeddingCache::Refresh::diff(const JobGraph& graph,
                                   EmbeddingCache& cache, Entry& e,
                                   std::size_t d) {
  e.last_used = cache.event_clock_;
  ++cache.stats_.graphs_seen;
  const std::size_t n = graph.features.rows();
  const std::size_t fd = graph.features.cols();
  cache.stats_.nodes_total += n;
  const std::size_t g = graphs.size();
  const std::size_t first_row = feat_rows.size();

  // The entry is keyed by the graph's shape, so an existing entry already
  // has the graph's structure.
  if (!e.shape) {
    // A job this cache has not seen: every row is written below, so the
    // buffers are only sized.
    ++cache.stats_.graphs_rebuilt;
    CacheMetrics::get().misses.inc();
    e.shape = graph.shape;
    e.feats.resize(n, fd);
    e.P.resize(n, d);
    e.E.resize(n, d);
    e.F.resize(n, d);
    e.f_valid.assign(n, 0);
    e.FJ.resize(n, d);
    for (std::size_t v = 0; v < n; ++v) feat_rows.push_back({g, v});
  } else {
    assert(e.feats.rows() == n && e.feats.cols() == fd);
    for (std::size_t v = 0; v < n; ++v) {
      const double* fresh = graph.features.data() + v * fd;
      if (!std::equal(fresh, fresh + fd, e.feats.data() + v * fd)) {
        feat_rows.push_back({g, v});
      }
    }
    if (feat_rows.size() == first_row) {
      ++cache.stats_.graphs_reused;
      CacheMetrics::get().hits.inc();
      return;
    }
    ++cache.stats_.diff_refreshes;
    CacheMetrics::get().misses.inc();
    CacheMetrics::get().diff_refreshes.inc();
  }
  graphs.push_back(Graph{&e, &cache.stats_, &graph, dirty.size()});
  dirty.resize(dirty.size() + n, 0);
  for (std::size_t i = first_row; i < feat_rows.size(); ++i) {
    dirty[graphs.back().dirty_base + feat_rows[i].v] = 1;
  }
}

void EmbeddingCache::Refresh::gather(const std::vector<Row>& rows,
                                     nn::Matrix Entry::*field) {
  const std::size_t w = (graphs[rows[0].g].e->*field).cols();
  in.resize(rows.size(), w);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* src = (graphs[rows[i].g].e->*field).data() + rows[i].v * w;
    std::copy(src, src + w, in.data() + i * w);
  }
}

void EmbeddingCache::Refresh::scatter(const nn::Matrix& src,
                                      const std::vector<Row>& rows,
                                      nn::Matrix Entry::*field) {
  assert(src.rows() == rows.size());
  const std::size_t w = src.cols();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    nn::Matrix& dst = graphs[rows[i].g].e->*field;
    assert(dst.cols() == w);
    std::copy(src.data() + i * w, src.data() + (i + 1) * w,
              dst.data() + rows[i].v * w);
  }
}

void GraphEmbedding::refresh_entries(EmbeddingCache::Refresh& r) const {
  using Entry = EmbeddingCache::Entry;
  const std::size_t d = static_cast<std::size_t>(config_.emb_dim);

  // Dirty closure over message flow: Eq. 1 feeds every node its children's
  // embeddings, so dirtiness propagates leaves -> roots. Reverse topological
  // order visits each node after all of its children.
  std::size_t num_levels = 0;
  std::uint64_t recomputed = 0;
  for (const auto& pg : r.graphs) {
    const sim::JobShape& shape = *pg.e->shape;
    char* dirty = r.dirty.data() + pg.dirty_base;
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
    const auto n_dirty = static_cast<std::uint64_t>(
        std::count(dirty, dirty + shape.children.size(), 1));
    pg.stats->nodes_recomputed += n_dirty;
    recomputed += n_dirty;
    num_levels = std::max(num_levels, shape.levels.size());
  }
  CacheMetrics::get().dirty_rows.inc(recomputed);

  // proj(x_v) depends only on the node's own features: one lift over every
  // feature-dirty row, which also becomes the new diff baseline.
  {
    const std::size_t fd = r.graphs[0].graph->features.cols();
    r.in.resize(r.feat_rows.size(), fd);
    for (std::size_t i = 0; i < r.feat_rows.size(); ++i) {
      const auto& pg = r.graphs[r.feat_rows[i].g];
      const std::size_t v = r.feat_rows[i].v;
      const double* src = pg.graph->features.data() + v * fd;
      std::copy(src, src + fd, r.in.data() + i * fd);
      std::copy(src, src + fd, pg.e->feats.data() + v * fd);
    }
    proj_.forward(r.in, r.out, r.mlp);
    r.scatter(r.out, r.feat_rows, &Entry::P);
  }

  // Leaves-to-roots sweep over the dirty rows of each level, across every
  // entry at once. Clean children contribute their cached f(e_u) row;
  // children re-embedded at a lower level had f_valid cleared there and are
  // recomputed in one f pass per level. Message order per node is children
  // order — the same order the full pass's segment-sum adds them in.
  for (std::size_t L = 0; L < num_levels; ++L) {
    r.rows.clear();
    for (std::size_t g = 0; g < r.graphs.size(); ++g) {
      const auto& levels = r.graphs[g].e->shape->levels;
      if (L >= levels.size()) continue;
      const char* dirty = r.dirty.data() + r.graphs[g].dirty_base;
      for (std::size_t v : levels[L]) {
        if (dirty[v]) r.rows.push_back({g, v});
      }
    }
    if (r.rows.empty()) continue;
    if (L == 0) {
      // Leaves have no messages: e_v = proj(x_v).
      for (const auto& row : r.rows) {
        Entry& e = *r.graphs[row.g].e;
        std::copy(e.P.data() + row.v * d, e.P.data() + (row.v + 1) * d,
                  e.E.data() + row.v * d);
      }
    } else {
      r.need.clear();  // children whose f row is stale
      for (const auto& row : r.rows) {
        Entry& e = *r.graphs[row.g].e;
        for (int u : e.shape->children[row.v]) {
          const std::size_t uu = static_cast<std::size_t>(u);
          if (!e.f_valid[uu]) {
            e.f_valid[uu] = 1;  // marks queued: dedups shared children
            r.need.push_back({row.g, uu});
          }
        }
      }
      if (!r.need.empty()) {
        r.gather(r.need, &Entry::E);
        f_node_.forward(r.in, r.out, r.mlp);
        r.scatter(r.out, r.need, &Entry::F);
      }
      r.in.resize(r.rows.size(), d);
      for (std::size_t i = 0; i < r.rows.size(); ++i) {
        const Entry& e = *r.graphs[r.rows[i].g].e;
        double* agg = r.in.data() + i * d;
        std::fill(agg, agg + d, 0.0);
        for (int u : e.shape->children[r.rows[i].v]) {
          const double* f = e.F.data() + static_cast<std::size_t>(u) * d;
          for (std::size_t c = 0; c < d; ++c) agg[c] += f[c];
        }
      }
      const nn::Matrix* agg = &r.in;
      if (config_.two_level_aggregation) {
        g_node_.forward(r.in, r.out, r.mlp);
        agg = &r.out;
      }
      for (std::size_t i = 0; i < r.rows.size(); ++i) {
        Entry& e = *r.graphs[r.rows[i].g].e;
        const std::size_t v = r.rows[i].v;
        for (std::size_t c = 0; c < d; ++c) {
          e.E(v, c) = (*agg)(i, c) + e.P(v, c);
        }
      }
    }
    // These nodes' embeddings changed; their cached f rows are now stale.
    for (const auto& row : r.rows) r.graphs[row.g].e->f_valid[row.v] = 0;
  }

  // Job level: f'([proj(x_v), e_v]) for every changed node of every entry.
  r.rows.clear();
  for (std::size_t g = 0; g < r.graphs.size(); ++g) {
    const char* dirty = r.dirty.data() + r.graphs[g].dirty_base;
    const std::size_t n = r.graphs[g].e->shape->children.size();
    for (std::size_t v = 0; v < n; ++v) {
      if (dirty[v]) r.rows.push_back({g, v});
    }
  }
  r.in.resize(r.rows.size(), 2 * d);
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const Entry& e = *r.graphs[r.rows[i].g].e;
    const std::size_t v = r.rows[i].v;
    double* joined = r.in.data() + i * 2 * d;
    std::copy(e.P.data() + v * d, e.P.data() + (v + 1) * d, joined);
    std::copy(e.E.data() + v * d, e.E.data() + (v + 1) * d, joined + d);
  }
  f_job_.forward(r.in, r.out, r.mlp);
  r.scatter(r.out, r.rows, &Entry::FJ);

  // Each entry's summary re-reduced over ALL its rows in node order — the
  // same summation order as the full pass's segment-sum, so mixing cached
  // and fresh rows is exact — then g' and f'' over every entry at once.
  r.in.resize(r.graphs.size(), d);
  r.in.zero();
  for (std::size_t g = 0; g < r.graphs.size(); ++g) {
    const nn::Matrix& FJ = r.graphs[g].e->FJ;
    double* agg = r.in.data() + g * d;
    for (std::size_t v = 0; v < FJ.rows(); ++v) {
      for (std::size_t c = 0; c < d; ++c) agg[c] += FJ(v, c);
    }
  }
  const nn::Matrix* y = &r.in;
  if (config_.two_level_aggregation) {
    g_job_.forward(r.in, r.out, r.mlp);
    y = &r.out;
  }
  nn::Matrix& fg = y == &r.in ? r.out : r.in;
  f_glob_.forward(*y, fg, r.mlp);
  for (std::size_t g = 0; g < r.graphs.size(); ++g) {
    Entry& e = *r.graphs[g].e;
    e.y.resize(1, d);
    e.fg.resize(1, d);
    std::copy(y->data() + g * d, y->data() + (g + 1) * d, e.y.data());
    std::copy(fg.data() + g * d, fg.data() + (g + 1) * d, e.fg.data());
  }
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
  thread_local EmbeddingCache::Refresh r;

  // Sessions without a caller-provided cache run through a scratch cache:
  // a full compute whose entries die with this call.
  EmbeddingCache scratch;
  r.cache_of_event.resize(num_events);
  r.live.assign(num_events, 0);
  for (std::size_t t = 0; t < num_events; ++t) {
    r.cache_of_event[t] = caches[t] ? caches[t] : &scratch;
    ++r.cache_of_event[t]->event_clock_;
    ++r.cache_of_event[t]->stats_.events;
  }

  EpisodeEmbeddings out = stack_features(tape, graphs);
  nn::Matrix node_all(tape.value(out.feat_all).rows(), d);
  nn::Matrix job_mat(G, d);
  r.glob_sum.resize(num_events, d);
  r.glob_sum.zero();

  // A round claims graphs in order until one keys an entry that an earlier
  // graph of the round holds (one cache passed for two events, or copies of
  // one graph sharing its shape). The next round starts there and diffs
  // against the entry as this one left it — what refreshing one graph at a
  // time in graph order would see.
  for (std::size_t first = 0; first < G;) {
    const std::uint64_t round = next_round();
    r.entry_of.clear();
    r.graphs.clear();
    r.dirty.clear();
    r.feat_rows.clear();
    std::size_t end = first;
    for (; end < G; ++end) {
      EmbeddingCache& cache = *r.cache_of_event[event_of_graph[end]];
      EmbeddingCache::Entry& e = cache.entries_[graphs[end]->shape.get()];
      if (e.round == round) break;
      e.round = round;
      r.entry_of.push_back(&e);
      r.diff(*graphs[end], cache, e, d);
    }
    if (!r.graphs.empty()) refresh_entries(r);
    // Copied out before the next round may refresh the same entries. Graphs
    // of one event are contiguous and ascending, so this adds the event's
    // f''(y_i) rows in the same order embed_episode's per-event segment-sum
    // does.
    for (std::size_t g = first; g < end; ++g) {
      const EmbeddingCache::Entry& e = *r.entry_of[g - first];
      const std::size_t t = event_of_graph[g];
      ++r.live[t];
      std::copy(e.E.raw().begin(), e.E.raw().end(),
                node_all.data() + out.node_offset[g] * d);
      std::copy(e.y.raw().begin(), e.y.raw().end(), job_mat.data() + g * d);
      for (std::size_t c = 0; c < d; ++c) r.glob_sum(t, c) += e.fg(0, c);
    }
    first = end;
  }
  nn::Matrix global;
  if (config_.two_level_aggregation) {
    g_glob_.forward(r.glob_sum, global, r.mlp);
  } else {
    global = r.glob_sum;
  }
  out.node_all = tape.constant(std::move(node_all));
  out.job_mat = tape.constant(std::move(job_mat));
  out.global_mat = tape.constant(std::move(global));
  for (std::size_t t = 0; t < num_events; ++t) {
    if (caches[t]) caches[t]->sweep(r.live[t]);
  }
  return out;
}

}  // namespace decima::gnn
