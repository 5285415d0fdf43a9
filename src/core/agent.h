// The Decima scheduling agent (§5.2): graph neural network + policy network.
//
// On every invocation the agent embeds the current cluster state, scores all
// schedulable nodes with q(e_v, y_i, z), softmax-samples a stage, then scores
// parallelism limits with w(y_i, z, l) and softmax-samples a limit for the
// chosen stage's job (plus an executor class in multi-resource mode). All of
// it is differentiable, so ∇_θ log π_θ(s, a) is available for REINFORCE.
//
// Ablation switches reproduce the variants of Fig. 14 / Fig. 15a / App. J:
//   use_gnn = false            -> raw features only ("w/o graph embedding")
//   parallelism_control = false-> always grab every executor
//   limit_encoding             -> scalar-l input (paper), one-output-per-limit
//                                 ("w/o limit input"), or stage-level limits
//   features.use_task_duration -> incomplete-information study
#pragma once

#include <memory>

#include "gnn/graph_embedding.h"
#include "nn/adam.h"
#include "sim/scheduler.h"

namespace decima::core {

enum class LimitEncoding {
  kScalarInput,      // w(y, z, l) with l as an input — the paper's design
  kSeparateOutputs,  // one output head per limit value (Fig. 15a yellow)
  kStageLevel,       // limit conditioned on e_v too (Fig. 15a green)
};

struct AgentConfig {
  gnn::FeatureConfig features;
  int emb_dim = 8;
  bool use_gnn = true;
  bool two_level_aggregation = true;
  bool parallelism_control = true;
  LimitEncoding limit_encoding = LimitEncoding::kScalarInput;
  bool multi_resource = false;  // adds the executor-class head (§7.3)
  // true scores greedy and sampled decisions through the episode-batched
  // scoring core that serving and the batched replay share; false falls back
  // to the per-action reference path over the one-node-at-a-time GNN sweep
  // (used by equivalence tests and latency benchmarks).
  bool batched_inference = true;
  // Incremental embedding cache (docs/incremental_embedding.md): inference
  // keeps the previous event's per-job GNN activations and re-embeds only
  // nodes whose features changed, plus their ancestors in message flow;
  // numerically identical to the full recompute. Inference-only — the
  // replay paths differentiate through the embedding and never use it.
  // false = re-embed everything every event (the reference behaviour).
  bool embed_cache = true;
  // Episode-batched REINFORCE replay (docs/training.md): while the recorded
  // actions re-drive the simulator, each scheduling event is snapshotted
  // instead of scored; the snapshots are then scored by the inference core
  // in chunks of kReplayChunk events (agent.cpp), each chunk one tape with
  // one loss and one backward pass. false falls back to the
  // one-tape-per-action reference loop (equivalence tests).
  bool batched_replay = true;
  std::uint64_t seed = 42;
};

enum class Mode { kGreedy, kSample, kReplay };

// The sampled indices of one action — enough to replay it deterministically.
struct RecordedAction {
  int node_choice = 0;
  int limit_choice = -1;  // -1 when parallelism control is off
  int class_choice = -1;  // -1 in single-resource mode
  sim::Action action;     // the concrete action handed to the environment
};

class DecimaAgent : public sim::Scheduler {
 public:
  explicit DecimaAgent(const AgentConfig& config);

  sim::Action schedule(const sim::ClusterEnv& env) override;
  std::string name() const override { return "Decima"; }

  // --- Read-only inference (the serving path, src/serve) -------------------
  // One greedy decision for `env` on a forward-only tape, touching no agent
  // state: safe to call concurrently from many threads sharing one agent, as
  // long as nothing mutates the parameters meanwhile. An optional
  // caller-owned `cache` makes consecutive decisions for the same session
  // incremental (config().embed_cache); each cache must only ever be touched
  // by one thread at a time.
  sim::Action decide(const sim::ClusterEnv& env,
                     gnn::EmbeddingCache* cache = nullptr) const;
  // Greedy decisions for many *independent sessions'* scheduling events,
  // scored by the same core as schedule() and the batched replay, with each
  // session one event of the batch. Entry i is the decision for envs[i],
  // bit-identical to decide(*envs[i]). `caches`, when non-empty, must be
  // envs-aligned per-session caches (entries may be null: that session
  // computes without caching).
  std::vector<sim::Action> decide_batch(
      const std::vector<const sim::ClusterEnv*>& envs,
      const std::vector<gnn::EmbeddingCache*>& caches = {}) const;

  // --- Modes ----------------------------------------------------------------
  void set_mode(Mode m) { mode_ = m; }
  Mode mode() const { return mode_; }
  void set_sample_seed(std::uint64_t seed) { sample_rng_ = Rng(seed); }

  // Rollout recording (kSample): collects the action sequence of an episode.
  void start_recording();
  std::vector<RecordedAction> take_recorded();

  // Replay (kReplay): re-executes `actions` while accumulating
  // −Σ_k weight_k · ∇ log π(s_k, a_k) − β · ∇ H(π(s_k)) into the parameter
  // gradients (a *descent* direction for Adam; weights are the advantages).
  // With config().batched_replay the gradients land in finish_replay();
  // the reference path accumulates them action by action during the run.
  // Throws std::logic_error in every build when the previous batched replay
  // was never finished (its pending tail would lose its gradients) or when
  // weights and actions differ in length. During the run, a recorded choice
  // outside its event's candidate, limit or class count throws
  // std::out_of_range and abandons the replay.
  void start_replay(std::vector<RecordedAction> actions,
                    std::vector<double> weights, double entropy_weight);
  // Scores the pending batched-replay snapshots on one tape and accumulates
  // their gradients with one backward pass (schedule() calls it whenever a
  // full chunk of snapshots is pending). Call after the replayed episode's
  // env.run() for the tail; a no-op on the reference path.
  void finish_replay();
  // Number of replay actions consumed so far.
  std::size_t replay_cursor() const { return replay_cursor_; }

  // --- Parameters -----------------------------------------------------------
  nn::ParamSet& params() { return params_; }
  const nn::ParamSet& params() const { return params_; }
  const AgentConfig& config() const { return config_; }
  std::size_t num_parameters() const { return params_.num_parameters(); }
  std::unique_ptr<DecimaAgent> clone() const;
  // Re-snapshots this worker copy's parameter values from `master` (which
  // must be the agent this one was clone()d from: identical structure). The
  // training rollout pool calls this once per iteration so persistent
  // workers track the master's Adam updates without reallocating; the
  // version bump makes the worker's embedding cache re-validate against the
  // new snapshot (gnn/embedding_cache.h layer 1). Everything else — sample
  // RNG, recording/replay state, caches — is left untouched, and `master`
  // is only read.
  void snapshot_params_from(const DecimaAgent& master);

  // Table 2: the observed mean interarrival time, fed as a feature when
  // features.iat_hint is on.
  void set_observed_iat(double iat) { observed_iat_ = iat; }

  // The schedule()-path embedding cache's accounting.
  const gnn::EmbeddingCacheStats& embed_cache_stats() const {
    return embed_cache_.stats();
  }

 private:
  struct Candidate {
    int graph = 0;  // index into the extracted graphs
    int node = 0;   // stage index within the graph/job
    sim::NodeRef ref;
  };

  // One scheduling event as the scoring core sees it: the state's graphs and
  // action set A_t, the limit and class head inputs of its chosen node, and
  // the choices. A decision-time event carries `env`, from which the core
  // fills the head inputs once it has picked the node. A replay snapshot
  // fills them at snapshot time from the recorded node and carries no env
  // (the simulator has moved on), plus the recorded choices and advantage.
  struct Event {
    const sim::ClusterEnv* env = nullptr;
    std::vector<gnn::JobGraph> graphs;
    std::vector<Candidate> candidates;
    int node_choice = 0;
    int limit_choice = -1;
    int class_choice = -1;
    std::vector<int> limit_values;  // candidate limits (empty: control off)
    nn::Matrix limit_feat;          // |limit_values| x 1 scaled limit inputs
    std::vector<int> class_values;  // valid classes (empty: single class)
    nn::Matrix class_feat;          // |class_values| x 2 [mem, free fraction]
    double weight = 0.0;            // advantage A_k of a replayed action
  };

  // Each head's logits over a batch of events, stacked event by event
  // (segment t of a head starts at its *_starts[t]); the replay loss reads
  // them.
  struct Scores {
    nn::Var node;  // candidates x 1 q logits
    std::vector<std::size_t> node_starts;
    nn::Var limit;  // limits x 1 w (or w_sep) logits
    std::vector<std::size_t> limit_starts;
    nn::Var cls;  // classes x 1, multi-class events only
    std::vector<std::size_t> class_starts;
    std::vector<std::size_t> class_events;  // event of each class segment
  };

  // The scoring core behind schedule(), decide_batch() and the batched
  // replay. Embeds every event's graphs on `tape` (through the per-event
  // `caches` when given and config().embed_cache is on), scores every
  // candidate of every event in one q pass, then every event's limits in one
  // w/w_sep pass and its classes in one class-head pass. Each head's choice
  // is resolved per event before the next head reads it: greedy argmax
  // (kGreedy), a draw from `rng` (kSample), or the recorded choice
  // (kReplay).
  Scores score_batch(nn::Tape& tape, std::vector<Event>& events,
                     const std::vector<gnn::EmbeddingCache*>& caches,
                     Mode how, Rng* rng) const;
  // The per-action reference path (batched_inference = false, or
  // batched_replay = false in kReplay): one tape per action, heads built
  // inline over embed()'s stacked rows. The equivalence suites compare
  // score_batch() against it.
  sim::Action schedule_reference(const sim::ClusterEnv& env,
                                 const std::vector<gnn::JobGraph>& graphs,
                                 const std::vector<Candidate>& candidates,
                                 const RecordedAction* replayed);

  // --- Shared, state-free scoring inputs ------------------------------------
  // Extracts `env`'s graphs and action set into `ev`; false when there is
  // nothing to schedule.
  bool make_event(const sim::ClusterEnv& env, Event& ev) const;
  // Fills ev's limit and class head inputs for its chosen node.
  void fill_head_inputs(const sim::ClusterEnv& env, Event& ev) const;
  // The concrete action of a scored decision-time event.
  static sim::Action action_of(const Event& ev);
  bool multi_class(const sim::ClusterEnv& env) const;
  // Executor classes with enough memory for `mem_req` and free capacity.
  std::vector<int> valid_classes(const sim::ClusterEnv& env,
                                 double mem_req) const;
  // Candidate parallelism limits for `job` (> its current allocation).
  static std::vector<int> limit_values_for(const sim::JobState& job,
                                           int total_execs);
  static nn::Matrix limit_feature_col(const std::vector<int>& values,
                                      int total_execs);
  nn::Matrix class_feature_mat(const sim::ClusterEnv& env,
                               const std::vector<int>& values) const;
  // The action set A_t: runnable nodes of jobs that can still take executors
  // and (multi-resource) have a fitting class with free capacity.
  std::vector<Candidate> build_candidates(
      const sim::ClusterEnv& env,
      const std::vector<gnn::JobGraph>& graphs) const;

  AgentConfig config_;
  Rng init_rng_;
  Rng sample_rng_;
  gnn::GraphEmbedding gnn_;
  nn::Mlp q_;          // node score
  nn::Mlp w_;          // parallelism score (scalar-l input / stage-level)
  nn::Mlp w_sep_;      // per-limit outputs variant
  nn::Mlp class_head_; // executor-class score
  nn::ParamSet params_;

  // schedule()'s own per-episode-stream cache (serving sessions bring their
  // own through decide()/decide_batch()).
  gnn::EmbeddingCache embed_cache_;

  Mode mode_ = Mode::kGreedy;
  bool recording_ = false;
  std::vector<RecordedAction> recorded_;
  std::vector<RecordedAction> replay_actions_;
  std::vector<double> replay_weights_;
  std::vector<Event> replay_events_;  // pending batched-replay snapshots
  double entropy_weight_ = 0.0;
  std::size_t replay_cursor_ = 0;
  double observed_iat_ = 0.0;
};

}  // namespace decima::core
