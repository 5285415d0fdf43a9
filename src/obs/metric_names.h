// The metric and span name inventory (docs/observability.md).
//
// Every name the runtime observability layer registers lives here as a
// constant, one per line, so instrumentation sites across the planes agree
// on spelling and the whole surface is enumerable: scripts/
// check_invariants.py (rule obs-docs-inventory) cross-checks this file
// against the inventory table in docs/observability.md in both directions —
// a constant added here without a documented row (or a documented row whose
// constant is gone) fails the lint.
//
// Naming convention: `<plane>.<what>[_<unit>]`, with `_us` marking
// microsecond latency histograms. Span names share the namespace (they show
// up in chrome://tracing next to the metrics they explain).
#pragma once

namespace decima::obs::names {

// --- Serving plane (src/serve/policy_server.cpp) ----------------------------
// End-to-end decide_with_status latency as the session thread sees it:
// enqueue, queue wait, batch inference, wake-up.
inline constexpr char kServeDecideLatencyUs[] = "serve.decide_latency_us";
// Time a request sat queued before the dispatcher claimed its batch.
inline constexpr char kServeQueueWaitUs[] = "serve.queue_wait_us";
// The dispatcher's unlocked inference section, per batch.
inline constexpr char kServeBatchInferUs[] = "serve.batch_infer_us";
// Requests coalesced per dispatch (histogram; p50/p95 of batch shape).
inline constexpr char kServeBatchSize[] = "serve.batch_size";
// Requests answered by the policy snapshot (ok path).
inline constexpr char kServeRequestsOk[] = "serve.requests_ok";
// Degradation ladder counters — mirror ServeStats (docs/robustness.md).
inline constexpr char kServeRequestsRejected[] = "serve.requests_rejected";
inline constexpr char kServeRequestsTimedOut[] = "serve.requests_timed_out";
inline constexpr char kServeRequestsStopped[] = "serve.requests_stopped";
inline constexpr char kServeFallbacks[] = "serve.fallbacks";
inline constexpr char kServeSnapshotSwaps[] = "serve.snapshot_swaps";
// Dispatcher wake-ups that did work.
inline constexpr char kServeBatches[] = "serve.batches";
// Span: one dispatcher batch (claim → inference → hand back answers).
inline constexpr char kSpanServeBatch[] = "serve.dispatch_batch";

// --- Sharded serving plane (docs/serving.md) --------------------------------
// Per-shard load instruments: one instance per dispatcher shard, registered
// at PolicyServer construction as "<name>.<shard-index>" (e.g.
// serve.shard.decisions.0). Shard imbalance shows up as skew across the
// indexed instances of one name.
// Requests answered by this shard's dispatcher.
inline constexpr char kServeShardDecisions[] = "serve.shard.decisions";
// Requests left in the shard's queue (its mutex-guarded deque) after each
// dispatch claims its batch (gauge; the per-shard load signal).
inline constexpr char kServeShardQueueDepth[] = "serve.shard.queue_depth";
// Requests coalesced per dispatch on this shard.
inline constexpr char kServeShardBatchSize[] = "serve.shard.batch_size";
// Time the adaptive bounded wait actually held a shallow batch open
// (ServeConfig::batch_wait_us; 0 observations while the knob is off).
inline constexpr char kServeShardBatchWaitUs[] = "serve.shard.batch_wait_us";

// --- Training plane (src/rl/reinforce.cpp) ----------------------------------
inline constexpr char kTrainIterations[] = "train.iterations";
inline constexpr char kTrainEpisodes[] = "train.episodes";
// Worker-pool busy fraction per phase: <phase>_cpu_seconds /
// (rollout_threads × <phase> wall seconds), from the IterationStats
// accounting PR 8 introduced. 1.0 = every worker busy the whole phase.
inline constexpr char kTrainRolloutUtilization[] =
    "train.rollout_pool_utilization";
inline constexpr char kTrainReplayUtilization[] =
    "train.replay_pool_utilization";
// Wall-clock of one full Algorithm-1 iteration.
inline constexpr char kTrainIterationUs[] = "train.iteration_us";
// Spans: the Algorithm-1 phases of one iteration (docs/training.md).
inline constexpr char kSpanTrainIteration[] = "train.iteration";
inline constexpr char kSpanTrainRollout[] = "train.rollout";
inline constexpr char kSpanTrainReplay[] = "train.replay";
inline constexpr char kSpanTrainStep[] = "train.step";

// --- Embedding-cache plane (src/gnn/embedding_cache.cpp) --------------------
// Per-graph refresh outcomes (docs/incremental_embedding.md): a hit found
// no feature row changed and reused the entry without MLP work; a miss did
// MLP work, either a rebuild from scratch (new job or structure change) or
// a diff refresh, counted also in diff_refreshes, that re-embedded the
// changed rows and their ancestors.
inline constexpr char kCacheGraphHits[] = "cache.graph_hits";
inline constexpr char kCacheGraphMisses[] = "cache.graph_misses";
inline constexpr char kCacheDiffRefreshes[] = "cache.diff_refreshes";
// Node rows actually re-embedded (the dirty closure over message flow).
inline constexpr char kCacheDirtyRows[] = "cache.dirty_rows";
// Full clears on parameter-version changes (Adam step, snapshot swap).
inline constexpr char kCacheInvalidations[] = "cache.invalidations";

}  // namespace decima::obs::names
