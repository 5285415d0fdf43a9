#include "core/agent.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace decima::core {

namespace {
// Sizing hint for the per-limit-output ablation head (Fig. 15a): one output
// per possible limit value up to this many executors.
constexpr std::size_t kMaxSeparateLimitOutputs = 128;

// The w_sep output that scores parallelism limit l; limits past the last
// output share it.
std::size_t separate_limit_output(int l) {
  return std::min<std::size_t>(static_cast<std::size_t>(l - 1),
                               kMaxSeparateLimitOutputs - 1);
}

// Events per batched-replay tape: an episode is scored in chunks of this
// many scheduling events (one backward per chunk), so the tape's working set
// stays cache-resident. 8 was the throughput sweet spot on the 50-node-DAG
// training bench: larger chunks pay DRAM traffic, smaller ones re-pay
// per-tape overhead.
constexpr std::size_t kReplayChunk = 8;

// The no-GNN ablation's embedding stand-ins: zero rows in the stacked
// layout of `num_events` events' `graphs`, beside the raw features that q
// still sees.
gnn::EpisodeEmbeddings zero_embeddings(
    nn::Tape& tape, const std::vector<const gnn::JobGraph*>& graphs,
    std::size_t num_events, std::size_t d) {
  gnn::EpisodeEmbeddings emb = gnn::stack_features(tape, graphs);
  emb.node_all = tape.constant(nn::Matrix(tape.value(emb.feat_all).rows(), d));
  emb.job_mat = tape.constant(nn::Matrix(graphs.size(), d));
  emb.global_mat = tape.constant(nn::Matrix(num_events, d));
  return emb;
}

// A recorded choice indexes its replayed event's candidate, limit or class
// list; one recorded on another workload or configuration can index past it.
int checked_choice(int choice, std::size_t count, const char* head) {
  if (choice < 0 || static_cast<std::size_t>(choice) >= count) {
    throw std::out_of_range("replayed " + std::string(head) + " choice " +
                            std::to_string(choice) + " is outside the " +
                            std::to_string(count) + " options of its event");
  }
  return choice;
}

// Resolves one head's choice over logits[0, n): the first maximum of the
// softmax probabilities (kGreedy), a draw from them (kSample), or the
// recorded choice (kReplay). Greedy argmaxes the probabilities, not the raw
// logits: distinct logits can round to equal probabilities, and every path
// must break that tie the same way.
int choose(Mode how, const double* logits, std::size_t n, int recorded,
           Rng* rng, const char* head) {
  if (how == Mode::kReplay) return checked_choice(recorded, n, head);
  const std::vector<double> probs = nn::softmax(logits, n);
  if (how == Mode::kSample) return static_cast<int>(rng->weighted_index(probs));
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (probs[i] > probs[best]) best = i;
  }
  return static_cast<int>(best);
}
}  // namespace

DecimaAgent::DecimaAgent(const AgentConfig& config)
    : config_(config),
      init_rng_(config.seed),
      sample_rng_(config.seed ^ 0x9e3779b9ULL),
      gnn_(
          [&] {
            gnn::GnnConfig g;
            g.feat_dim = config.features.dim();
            g.emb_dim = config.emb_dim;
            g.two_level_aggregation = config.two_level_aggregation;
            g.batched = config.batched_inference;
            return g;
          }(),
          init_rng_),
      q_("policy/q",
         static_cast<std::size_t>(config.features.dim() + 3 * config.emb_dim),
         1),
      w_("policy/w",
         config.limit_encoding == LimitEncoding::kStageLevel
             ? static_cast<std::size_t>(3 * config.emb_dim + 1)
             : static_cast<std::size_t>(2 * config.emb_dim + 1),
         1),
      w_sep_("policy/w_sep", static_cast<std::size_t>(2 * config.emb_dim),
             kMaxSeparateLimitOutputs),
      class_head_("policy/class",
                  static_cast<std::size_t>(2 * config.emb_dim + 2), 1) {
  q_.init(init_rng_);
  w_.init(init_rng_);
  w_sep_.init(init_rng_);
  class_head_.init(init_rng_);
  params_ = gnn_.param_set();
  params_.add(q_.params());
  if (config_.parallelism_control) {
    if (config_.limit_encoding == LimitEncoding::kSeparateOutputs) {
      params_.add(w_sep_.params());
    } else {
      params_.add(w_.params());
    }
  }
  if (config_.multi_resource) params_.add(class_head_.params());
}

void DecimaAgent::start_recording() {
  recording_ = true;
  recorded_.clear();
}

std::vector<RecordedAction> DecimaAgent::take_recorded() {
  recording_ = false;
  return std::move(recorded_);
}

void DecimaAgent::start_replay(std::vector<RecordedAction> actions,
                               std::vector<double> weights,
                               double entropy_weight) {
  // Leftover snapshots mean the previous batched replay was never finished —
  // its tail chunk (< kReplayChunk events) contributed no gradients. Fail
  // loudly instead of silently training on partial gradients.
  if (!replay_events_.empty()) {
    throw std::logic_error(
        "batched replay not finished: call finish_replay() after env.run()");
  }
  if (weights.size() != actions.size()) {
    throw std::invalid_argument(
        "start_replay: " + std::to_string(weights.size()) + " weights for " +
        std::to_string(actions.size()) + " actions");
  }
  replay_actions_ = std::move(actions);
  replay_weights_ = std::move(weights);
  entropy_weight_ = entropy_weight;
  replay_cursor_ = 0;
  mode_ = Mode::kReplay;
}

sim::Action DecimaAgent::schedule(const sim::ClusterEnv& env) {
  const RecordedAction* replayed = nullptr;
  if (mode_ == Mode::kReplay) {
    if (replay_cursor_ >= replay_actions_.size()) return sim::Action::none();
    replayed = &replay_actions_[replay_cursor_];
  }

  Event ev;
  if (!make_event(env, ev)) return sim::Action::none();
  const bool batched = mode_ == Mode::kReplay ? config_.batched_replay
                                              : config_.batched_inference;
  if (!batched) {
    return schedule_reference(env, ev.graphs, ev.candidates, replayed);
  }

  if (mode_ == Mode::kReplay) {
    // Batched replay, phase 1: the action is already recorded, so no scoring
    // is needed to drive the environment — snapshot the event (graphs,
    // candidate set, head inputs, advantage) and move on. finish_replay()
    // scores a chunk of snapshots on one tape with a single backward pass.
    try {
      ev.node_choice = checked_choice(replayed->node_choice,
                                      ev.candidates.size(), "node");
      fill_head_inputs(env, ev);
      ev.limit_choice =
          config_.parallelism_control
              ? checked_choice(replayed->limit_choice, ev.limit_values.size(),
                               "limit")
              : replayed->limit_choice;
      ev.class_choice = ev.class_values.empty()
                            ? replayed->class_choice
                            : checked_choice(replayed->class_choice,
                                             ev.class_values.size(), "class");
    } catch (const std::out_of_range&) {
      replay_events_.clear();  // the replay is abandoned, not left pending
      throw;
    }
    ev.weight = replay_weights_[replay_cursor_];
    replay_events_.push_back(std::move(ev));
    ++replay_cursor_;
    if (replay_events_.size() >= kReplayChunk) finish_replay();
    return replayed->action;
  }

  ev.env = &env;
  std::vector<Event> events;
  events.push_back(std::move(ev));
  nn::Tape tape(/*track_gradients=*/false);
  score_batch(tape, events, {&embed_cache_}, mode_, &sample_rng_);
  const Event& scored = events[0];
  const sim::Action action = action_of(scored);
  if (recording_ && mode_ == Mode::kSample) {
    recorded_.push_back(RecordedAction{scored.node_choice, scored.limit_choice,
                                       scored.class_choice, action});
  }
  return action;
}

DecimaAgent::Scores DecimaAgent::score_batch(
    nn::Tape& tape, std::vector<Event>& events,
    const std::vector<gnn::EmbeddingCache*>& caches, Mode how,
    Rng* rng) const {
  const std::size_t K = events.size();

  // Flatten every event's graphs into one list; event t is embed_episode's
  // event t, so global_mat row t is its z.
  std::vector<const gnn::JobGraph*> graphs;
  std::vector<std::size_t> event_of_graph;
  std::vector<std::size_t> graph_base(K);  // first flat graph of event t
  for (std::size_t t = 0; t < K; ++t) {
    graph_base[t] = graphs.size();
    for (const auto& g : events[t].graphs) {
      graphs.push_back(&g);
      event_of_graph.push_back(t);
    }
  }
  const bool cached =
      config_.use_gnn && config_.embed_cache && !caches.empty();
  if (cached) {
    for (gnn::EmbeddingCache* c : caches) {
      if (c) c->ensure_param_version(params_.version());
    }
  }
  gnn::EpisodeEmbeddings emb;
  if (!config_.use_gnn) {
    emb = zero_embeddings(tape, graphs, K,
                          static_cast<std::size_t>(config_.emb_dim));
  } else if (cached) {
    emb = gnn_.embed_episode_cached(tape, graphs, event_of_graph, K, caches);
  } else {
    emb = gnn_.embed_episode(tape, graphs, event_of_graph, K);
  }
  Scores s;

  // --- Stage head: every candidate of every event through one q pass -------
  std::vector<std::size_t> cand_rows, cand_graphs, cand_events;
  s.node_starts.resize(K);
  for (std::size_t t = 0; t < K; ++t) {
    s.node_starts[t] = cand_rows.size();
    for (const Candidate& c : events[t].candidates) {
      const std::size_t gg = graph_base[t] + static_cast<std::size_t>(c.graph);
      cand_rows.push_back(emb.node_offset[gg] +
                          static_cast<std::size_t>(c.node));
      cand_graphs.push_back(gg);
      cand_events.push_back(t);
    }
  }
  std::vector<std::vector<std::size_t>> q_picks;
  q_picks.push_back(cand_rows);             // x_v
  q_picks.push_back(std::move(cand_rows));  // e_v (same rows)
  q_picks.push_back(std::move(cand_graphs));
  q_picks.push_back(std::move(cand_events));
  s.node = q_.apply(
      tape, tape.gather_concat_cols(
                {emb.feat_all, emb.node_all, emb.job_mat, emb.global_mat},
                std::move(q_picks)));
  std::vector<std::size_t> chosen_graph(K);  // job_mat row of the choice
  for (std::size_t t = 0; t < K; ++t) {
    Event& ev = events[t];
    ev.node_choice = choose(how, tape.value(s.node).raw().data() +
                                     s.node_starts[t],
                            ev.candidates.size(), ev.node_choice, rng, "node");
    const Candidate& chosen =
        ev.candidates[static_cast<std::size_t>(ev.node_choice)];
    chosen_graph[t] = graph_base[t] + static_cast<std::size_t>(chosen.graph);
    if (ev.env) fill_head_inputs(*ev.env, ev);
  }

  // --- Parallelism head: every event's candidate limits in one pass ---------
  if (config_.parallelism_control) {
    s.limit_starts.resize(K);
    std::size_t total_l = 0;
    for (std::size_t t = 0; t < K; ++t) {
      s.limit_starts[t] = total_l;
      total_l += events[t].limit_values.size();
    }
    if (config_.limit_encoding == LimitEncoding::kSeparateOutputs) {
      // One w_sep pass over the per-event [y_i, z] rows; each event's logits
      // are gathered out of its output row into the limit column.
      std::vector<std::size_t> ev_events(K), outputs;
      outputs.reserve(total_l);
      for (std::size_t t = 0; t < K; ++t) {
        ev_events[t] = t;
        for (int l : events[t].limit_values) {
          outputs.push_back(t * kMaxSeparateLimitOutputs +
                            separate_limit_output(l));
        }
      }
      const nn::Var all = w_sep_.apply(
          tape, tape.gather_concat_cols({emb.job_mat, emb.global_mat},
                                        {chosen_graph, std::move(ev_events)}));
      s.limit =
          tape.rows(tape.reshape(all, K * kMaxSeparateLimitOutputs, 1),
                    std::move(outputs));
    } else {
      const bool stage_level =
          config_.limit_encoding == LimitEncoding::kStageLevel;
      std::vector<std::size_t> l_graphs, l_events, l_nodes;
      nn::Matrix l_all(total_l, 1);
      std::size_t r = 0;
      for (std::size_t t = 0; t < K; ++t) {
        const Event& ev = events[t];
        const std::size_t node_row =
            emb.node_offset[chosen_graph[t]] +
            static_cast<std::size_t>(
                ev.candidates[static_cast<std::size_t>(ev.node_choice)].node);
        for (std::size_t i = 0; i < ev.limit_values.size(); ++i, ++r) {
          l_all(r, 0) = ev.limit_feat(i, 0);
          l_graphs.push_back(chosen_graph[t]);
          l_events.push_back(t);
          if (stage_level) l_nodes.push_back(node_row);
        }
      }
      std::vector<nn::Var> srcs;
      std::vector<std::vector<std::size_t>> w_picks;
      if (stage_level) {
        srcs.push_back(emb.node_all);
        w_picks.push_back(std::move(l_nodes));
      }
      srcs.push_back(emb.job_mat);
      w_picks.push_back(std::move(l_graphs));
      srcs.push_back(emb.global_mat);
      w_picks.push_back(std::move(l_events));
      srcs.push_back(tape.constant(std::move(l_all)));
      std::vector<std::size_t> ident(total_l);
      for (std::size_t i = 0; i < total_l; ++i) ident[i] = i;
      w_picks.push_back(std::move(ident));
      s.limit =
          w_.apply(tape, tape.gather_concat_cols(srcs, std::move(w_picks)));
    }
    for (std::size_t t = 0; t < K; ++t) {
      Event& ev = events[t];
      ev.limit_choice = choose(how, tape.value(s.limit).raw().data() +
                                        s.limit_starts[t],
                               ev.limit_values.size(), ev.limit_choice, rng,
                               "limit");
    }
  }

  // --- Executor-class head: every multi-class event's classes in one pass ---
  std::size_t total_c = 0;
  for (const Event& ev : events) total_c += ev.class_values.size();
  if (total_c > 0) {
    std::vector<std::size_t> c_graphs, c_events;
    nn::Matrix c_all(total_c, 2);
    std::size_t r = 0;
    for (std::size_t t = 0; t < K; ++t) {
      const Event& ev = events[t];
      if (ev.class_values.empty()) continue;
      s.class_starts.push_back(r);
      s.class_events.push_back(t);
      for (std::size_t i = 0; i < ev.class_values.size(); ++i, ++r) {
        c_all(r, 0) = ev.class_feat(i, 0);
        c_all(r, 1) = ev.class_feat(i, 1);
        c_graphs.push_back(chosen_graph[t]);
        c_events.push_back(t);
      }
    }
    std::vector<std::size_t> c_ident(total_c);
    for (std::size_t i = 0; i < total_c; ++i) c_ident[i] = i;
    s.cls = class_head_.apply(
        tape,
        tape.gather_concat_cols(
            {emb.job_mat, emb.global_mat, tape.constant(std::move(c_all))},
            {std::move(c_graphs), std::move(c_events), std::move(c_ident)}));
    for (std::size_t i = 0; i < s.class_events.size(); ++i) {
      Event& ev = events[s.class_events[i]];
      ev.class_choice = choose(how, tape.value(s.cls).raw().data() +
                                        s.class_starts[i],
                               ev.class_values.size(), ev.class_choice, rng,
                               "class");
    }
  }
  return s;
}

void DecimaAgent::finish_replay() {
  if (replay_events_.empty()) return;
  std::vector<Event>& events = replay_events_;
  const std::size_t K = events.size();
  nn::Tape tape(/*track_gradients=*/true);
  const Scores s = score_batch(tape, events, {}, Mode::kReplay, nullptr);

  // Advantage column shared by the head losses: d(loss)/d(logp_t) = -A_t.
  nn::Matrix neg_w(K, 1);
  for (std::size_t t = 0; t < K; ++t) neg_w(t, 0) = -events[t].weight;
  const nn::Var neg_w_col = tape.constant(std::move(neg_w));
  std::vector<nn::Var> loss_parts;

  std::vector<std::size_t> node_picks(K);
  for (std::size_t t = 0; t < K; ++t) {
    node_picks[t] = static_cast<std::size_t>(events[t].node_choice);
  }
  loss_parts.push_back(tape.matmul(
      tape.log_prob_pick_segments(s.node, s.node_starts, std::move(node_picks)),
      neg_w_col));
  if (entropy_weight_ > 0.0) {
    // Single-candidate events contribute exactly zero entropy and gradient,
    // matching the reference path's candidates-size guard.
    loss_parts.push_back(
        tape.matmul(tape.entropy_segments(s.node, s.node_starts),
                    tape.constant(nn::Matrix(K, 1, -entropy_weight_))));
  }

  if (config_.parallelism_control) {
    std::vector<std::size_t> l_picks(K);
    for (std::size_t t = 0; t < K; ++t) {
      l_picks[t] = static_cast<std::size_t>(events[t].limit_choice);
    }
    loss_parts.push_back(tape.matmul(
        tape.log_prob_pick_segments(s.limit, s.limit_starts,
                                    std::move(l_picks)),
        neg_w_col));
  }

  if (s.cls.valid()) {
    std::vector<std::size_t> c_picks;
    nn::Matrix neg_cw(s.class_events.size(), 1);
    for (std::size_t i = 0; i < s.class_events.size(); ++i) {
      const Event& ev = events[s.class_events[i]];
      c_picks.push_back(static_cast<std::size_t>(ev.class_choice));
      neg_cw(i, 0) = -ev.weight;
    }
    loss_parts.push_back(tape.matmul(
        tape.log_prob_pick_segments(s.cls, s.class_starts, std::move(c_picks)),
        tape.constant(std::move(neg_cw))));
  }

  // --- One backward for the whole batch -------------------------------------
  const nn::Var loss =
      loss_parts.size() == 1 ? loss_parts[0] : tape.addn(loss_parts);
  tape.backward(loss);
  replay_events_.clear();
}

sim::Action DecimaAgent::schedule_reference(
    const sim::ClusterEnv& env, const std::vector<gnn::JobGraph>& graphs,
    const std::vector<Candidate>& candidates, const RecordedAction* replayed) {
  const int total_execs = env.total_executors();
  const bool multi = multi_class(env);

  const bool train = mode_ == Mode::kReplay;
  nn::Tape tape(/*track_gradients=*/train);

  // The embedding (or the no-GNN stand-ins) in the stacked layout: node row
  // node_offset[g] + v, one job_mat row per graph, one global row.
  gnn::EpisodeEmbeddings emb;
  if (config_.use_gnn) {
    emb = gnn_.embed(tape, graphs);
  } else {
    std::vector<const gnn::JobGraph*> ptrs;
    for (const gnn::JobGraph& g : graphs) ptrs.push_back(&g);
    emb = zero_embeddings(tape, ptrs, 1,
                          static_cast<std::size_t>(config_.emb_dim));
  }
  const nn::Var job_mat = emb.job_mat;
  const nn::Var glob = emb.global_mat;
  // n copies of row r of a, beside n rows of per-option inputs.
  const auto tile = [&tape](nn::Var a, std::size_t r, std::size_t n) {
    return tape.rows(a, std::vector<std::size_t>(n, r));
  };

  // --- Stage selection: softmax over q(x_v, e_v, y_i, z) -------------------
  // Candidates are generated in graph order, so each graph's candidates form
  // a contiguous run; gather them into per-graph blocks and score all
  // candidates with a single q pass over one candidates x (feat + 3d) matrix.
  // The q function sees x_v alongside the embeddings, so the no-GNN ablation
  // still has the raw signal. Each head's logits are one column, a single
  // segment of the replay losses.
  std::vector<nn::Var> blocks;
  for (std::size_t start = 0; start < candidates.size();) {
    const std::size_t g = static_cast<std::size_t>(candidates[start].graph);
    std::vector<std::size_t> picks;
    std::size_t i = start;
    for (; i < candidates.size() &&
           static_cast<std::size_t>(candidates[i].graph) == g;
         ++i) {
      picks.push_back(emb.node_offset[g] +
                      static_cast<std::size_t>(candidates[i].node));
    }
    const std::size_t m = picks.size();
    const nn::Var x = tape.rows(emb.feat_all, picks);
    const nn::Var e = tape.rows(emb.node_all, std::move(picks));
    blocks.push_back(
        tape.concat_cols({x, e, tile(job_mat, g, m), tile(glob, 0, m)}));
    start = i;
  }
  const nn::Var q_in =
      blocks.size() == 1 ? blocks[0] : tape.concat_rows(blocks);
  const nn::Var node_logits = q_.apply(tape, q_in);
  const int node_choice =
      choose(mode_, tape.value(node_logits).raw().data(), candidates.size(),
             replayed ? replayed->node_choice : 0, &sample_rng_, "node");
  const Candidate& chosen = candidates[static_cast<std::size_t>(node_choice)];
  const auto& chosen_job =
      env.jobs()[static_cast<std::size_t>(chosen.ref.job)];

  // --- Parallelism limit: softmax over w(y_i, z, l), l > current allocation
  int limit = total_execs;
  int limit_choice = -1;
  std::vector<int> limit_values;
  nn::Var limit_logits;
  if (config_.parallelism_control) {
    limit_values = limit_values_for(chosen_job, total_execs);
    assert(!limit_values.empty());
    const std::size_t cg = static_cast<std::size_t>(chosen.graph);
    if (config_.limit_encoding == LimitEncoding::kSeparateOutputs) {
      const nn::Var all = w_sep_.apply(
          tape, tape.concat_cols({tape.rows(job_mat, {cg}), glob}));
      std::vector<std::size_t> outputs;
      outputs.reserve(limit_values.size());
      for (int l : limit_values) outputs.push_back(separate_limit_output(l));
      limit_logits =
          tape.rows(tape.reshape(all, kMaxSeparateLimitOutputs, 1),
                    std::move(outputs));
    } else {
      // All candidate limits scored in one w pass: the rows differ only in
      // the scalar limit feature, so tile the embedding rows.
      const std::size_t nl = limit_values.size();
      const nn::Var lvar =
          tape.constant(limit_feature_col(limit_values, total_execs));
      std::vector<nn::Var> parts;
      if (config_.limit_encoding == LimitEncoding::kStageLevel) {
        parts = {tile(emb.node_all,
                      emb.node_offset[cg] +
                          static_cast<std::size_t>(chosen.node),
                      nl),
                 tile(job_mat, cg, nl), tile(glob, 0, nl), lvar};
      } else {
        parts = {tile(job_mat, cg, nl), tile(glob, 0, nl), lvar};
      }
      limit_logits = w_.apply(tape, tape.concat_cols(parts));
    }
    limit_choice =
        choose(mode_, tape.value(limit_logits).raw().data(),
               limit_values.size(), replayed ? replayed->limit_choice : 0,
               &sample_rng_, "limit");
    limit = limit_values[static_cast<std::size_t>(limit_choice)];
  }

  // --- Executor class (multi-resource, §7.3) --------------------------------
  int exec_class = -1;
  int class_choice = -1;
  std::vector<int> class_values;
  nn::Var class_logits;
  if (multi) {
    const auto stage = static_cast<std::size_t>(chosen.ref.stage);
    class_values = valid_classes(env, chosen_job.spec.stages[stage].mem_req);
    // One class_head pass over all valid classes.
    const std::size_t nc = class_values.size();
    const std::size_t cg = static_cast<std::size_t>(chosen.graph);
    const nn::Var cvar = tape.constant(class_feature_mat(env, class_values));
    class_logits = class_head_.apply(
        tape,
        tape.concat_cols({tile(job_mat, cg, nc), tile(glob, 0, nc), cvar}));
    class_choice =
        choose(mode_, tape.value(class_logits).raw().data(),
               class_values.size(), replayed ? replayed->class_choice : 0,
               &sample_rng_, "class");
    exec_class = class_values[static_cast<std::size_t>(class_choice)];
  }

  sim::Action action;
  action.node = chosen.ref;
  action.limit = limit;
  action.exec_class = exec_class;

  if (train) {
    // Accumulate −A_k ∇log π − β ∇H into the parameter gradients, each term
    // weighted by a 1 x 1 matmul as finish_replay weights its columns.
    const double weight = replay_weights_[replay_cursor_];
    const auto log_prob = [&tape](nn::Var logits, int choice) {
      return tape.log_prob_pick_segments(
          logits, {0}, {static_cast<std::size_t>(choice)});
    };
    std::vector<nn::Var> logps;
    logps.push_back(log_prob(node_logits, node_choice));
    if (config_.parallelism_control && limit_choice >= 0 &&
        limit_values.size() > 1) {
      logps.push_back(log_prob(limit_logits, limit_choice));
    }
    if (multi && class_values.size() > 1) {
      logps.push_back(log_prob(class_logits, class_choice));
    }
    nn::Var loss = tape.matmul(tape.addn(logps),
                               tape.constant(nn::Matrix(1, 1, -weight)));
    if (entropy_weight_ > 0.0 && candidates.size() > 1) {
      loss = tape.add(
          loss, tape.matmul(tape.entropy_segments(node_logits, {0}),
                            tape.constant(nn::Matrix(1, 1, -entropy_weight_))));
    }
    tape.backward(loss);
    ++replay_cursor_;
    // Return the recorded action verbatim so the replayed episode evolves
    // exactly like the rollout.
    return replayed->action;
  }

  if (recording_ && mode_ == Mode::kSample) {
    RecordedAction rec;
    rec.node_choice = node_choice;
    rec.limit_choice = limit_choice;
    rec.class_choice = class_choice;
    rec.action = action;
    recorded_.push_back(rec);
  }
  return action;
}

bool DecimaAgent::make_event(const sim::ClusterEnv& env, Event& ev) const {
  ev.graphs = gnn::extract_graphs(env, config_.features, observed_iat_);
  if (ev.graphs.empty()) return false;
  ev.candidates = build_candidates(env, ev.graphs);
  return !ev.candidates.empty();
}

void DecimaAgent::fill_head_inputs(const sim::ClusterEnv& env,
                                   Event& ev) const {
  const Candidate& chosen =
      ev.candidates[static_cast<std::size_t>(ev.node_choice)];
  const auto& job = env.jobs()[static_cast<std::size_t>(chosen.ref.job)];
  const int total_execs = env.total_executors();
  if (config_.parallelism_control) {
    ev.limit_values = limit_values_for(job, total_execs);
    assert(!ev.limit_values.empty());
    ev.limit_feat = limit_feature_col(ev.limit_values, total_execs);
  }
  if (multi_class(env)) {
    ev.class_values = valid_classes(
        env,
        job.spec.stages[static_cast<std::size_t>(chosen.ref.stage)].mem_req);
    assert(!ev.class_values.empty());
    ev.class_feat = class_feature_mat(env, ev.class_values);
  }
}

sim::Action DecimaAgent::action_of(const Event& ev) {
  sim::Action action;
  action.node = ev.candidates[static_cast<std::size_t>(ev.node_choice)].ref;
  action.limit =
      ev.limit_values.empty()
          ? ev.env->total_executors()
          : ev.limit_values[static_cast<std::size_t>(ev.limit_choice)];
  if (!ev.class_values.empty()) {
    action.exec_class =
        ev.class_values[static_cast<std::size_t>(ev.class_choice)];
  }
  return action;
}

bool DecimaAgent::multi_class(const sim::ClusterEnv& env) const {
  return config_.multi_resource && env.executor_classes().size() > 1;
}

std::vector<int> DecimaAgent::valid_classes(const sim::ClusterEnv& env,
                                            double mem_req) const {
  const auto& classes = env.executor_classes();
  std::vector<int> out;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (!classes[c].fits(mem_req)) continue;
    if (env.free_executor_count_of_class(static_cast<int>(c)) == 0) continue;
    out.push_back(static_cast<int>(c));
  }
  return out;
}

std::vector<int> DecimaAgent::limit_values_for(const sim::JobState& job,
                                               int total_execs) {
  std::vector<int> out;
  for (int l = job.executors + 1; l <= total_execs; ++l) out.push_back(l);
  return out;
}

nn::Matrix DecimaAgent::limit_feature_col(const std::vector<int>& values,
                                          int total_execs) {
  nn::Matrix lfeat(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    lfeat(i, 0) =
        static_cast<double>(values[i]) / static_cast<double>(total_execs);
  }
  return lfeat;
}

nn::Matrix DecimaAgent::class_feature_mat(
    const sim::ClusterEnv& env, const std::vector<int>& values) const {
  const auto& classes = env.executor_classes();
  const int total_execs = env.total_executors();
  nn::Matrix cfeat(values.size(), 2);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int c = values[i];
    cfeat(i, 0) = classes[static_cast<std::size_t>(c)].mem;
    cfeat(i, 1) = static_cast<double>(env.free_executor_count_of_class(c)) /
                  static_cast<double>(total_execs);
  }
  return cfeat;
}

std::vector<DecimaAgent::Candidate> DecimaAgent::build_candidates(
    const sim::ClusterEnv& env,
    const std::vector<gnn::JobGraph>& graphs) const {
  const int total_execs = env.total_executors();
  const auto& classes = env.executor_classes();
  const bool multi = multi_class(env);
  std::vector<Candidate> candidates;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const auto& job = env.jobs()[static_cast<std::size_t>(graphs[g].env_job)];
    if (job.executors >= total_execs) continue;
    for (std::size_t v = 0; v < graphs[g].runnable.size(); ++v) {
      if (!graphs[g].runnable[v]) continue;
      const double req = job.spec.stages[v].mem_req;
      if (multi && valid_classes(env, req).empty()) continue;
      if (!multi && classes.size() == 1 && !classes[0].fits(req)) continue;
      candidates.push_back(Candidate{
          static_cast<int>(g), static_cast<int>(v),
          sim::NodeRef{graphs[g].env_job, static_cast<int>(v)}});
    }
  }
  return candidates;
}

sim::Action DecimaAgent::decide(const sim::ClusterEnv& env,
                                gnn::EmbeddingCache* cache) const {
  return decide_batch({&env}, {cache})[0];
}

std::vector<sim::Action> DecimaAgent::decide_batch(
    const std::vector<const sim::ClusterEnv*>& envs,
    const std::vector<gnn::EmbeddingCache*>& caches) const {
  assert(caches.empty() || caches.size() == envs.size());
  std::vector<sim::Action> out(envs.size(), sim::Action::none());
  // The size check repeats the precondition assert so a mismatched caches
  // vector degrades to uncached inference in release builds instead of
  // indexing out of bounds.
  const bool cached = caches.size() == envs.size();

  // One event per session; sessions with nothing to schedule answer none()
  // and drop out of the batch.
  std::vector<Event> events;
  std::vector<std::size_t> session_of;
  std::vector<gnn::EmbeddingCache*> event_caches;
  for (std::size_t s = 0; s < envs.size(); ++s) {
    Event ev;
    if (!make_event(*envs[s], ev)) continue;
    ev.env = envs[s];
    events.push_back(std::move(ev));
    session_of.push_back(s);
    if (cached) event_caches.push_back(caches[s]);
  }
  if (events.empty()) return out;

  nn::Tape tape(/*track_gradients=*/false);
  score_batch(tape, events, event_caches, Mode::kGreedy, nullptr);
  for (std::size_t t = 0; t < events.size(); ++t) {
    out[session_of[t]] = action_of(events[t]);
  }
  return out;
}

std::unique_ptr<DecimaAgent> DecimaAgent::clone() const {
  auto copy = std::make_unique<DecimaAgent>(config_);
  copy->params_.copy_values_from(params_);
  copy->observed_iat_ = observed_iat_;
  return copy;
}

void DecimaAgent::snapshot_params_from(const DecimaAgent& master) {
  params_.copy_values_from(master.params_);
  observed_iat_ = master.observed_iat_;
}

}  // namespace decima::core
