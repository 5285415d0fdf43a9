// Tape-based reverse-mode automatic differentiation.
//
// All of Decima's operations — the graph neural network (Eq. 1), the summary
// levels, and the policy score functions — are expressed as tape ops, so that
// ∇_θ log π_θ(s, a) (needed by REINFORCE, Eq. 3) is computed exactly.
//
// Usage: build a fresh Tape per forward pass, obtain Vars from inputs/params,
// compose ops, call backward() on a scalar Var. Gradients of parameters are
// accumulated into their Param::grad storage.
#pragma once

#include <functional>
#include <vector>

#include "nn/matrix.h"

namespace decima::nn {

// A learnable parameter: value plus gradient accumulator.
struct Param {
  Matrix value;
  Matrix grad;
  std::string name;

  Param() = default;
  Param(std::string n, std::size_t rows, std::size_t cols)
      : value(rows, cols), grad(rows, cols), name(std::move(n)) {}

  void zero_grad() { grad.zero(); }
};

class Tape;

// Softmax probabilities of logits[0, n): max-shifted exponentials over their
// sum. Tape::entropy and every policy head's greedy and sampled picks read
// this one sequence, so the probabilities they compare agree bit for bit.
std::vector<double> softmax(const double* logits, std::size_t n);

// Lightweight handle to a node on the tape.
struct Var {
  int idx = -1;
  bool valid() const { return idx >= 0; }
};

class Tape {
 public:
  // track_gradients = false builds a forward-only graph (inference mode):
  // parameters behave like constants, no gradient buffers or backward
  // closures are allocated, and backward() must not be called.
  explicit Tape(bool track_gradients = true)
      : track_gradients_(track_gradients) {}
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- Leaves -------------------------------------------------------------
  Var constant(Matrix value);          // no gradient tracked
  Var param(Param& p);                 // gradient accumulated into p.grad

  // --- Elementwise / linear ops -------------------------------------------
  Var matmul(Var a, Var b);
  Var add(Var a, Var b);               // same shape
  Var addn(const std::vector<Var>& xs);// elementwise sum, same shapes
  Var scale(Var a, double c);

  // Affine layer x @ W + bias (bias 1 x cols, broadcast over rows) with an
  // optional leaky-ReLU, as one tape node (one materialized matrix + grad).
  // Backward weight gradients accumulate row by row straight into the
  // parents' gradients. Every MLP layer runs through this, so it dominates
  // both the per-event inference cost and the episode-batched replay cost.
  Var linear(Var x, Var w, Var bias, bool leaky, double slope = 0.2);

  // --- Shape ops ------------------------------------------------------------
  Var concat_cols(const std::vector<Var>& xs);  // all same row count
  Var row(Var a, std::size_t r);                // 1 x cols slice
  Var concat_scalars(const std::vector<Var>& xs);  // n scalars -> 1 x n
  Var sum_rows(Var a);                          // n x m -> 1 x m
  Var element(Var a, std::size_t r, std::size_t c);  // 1 x 1 slice

  // --- Row-batched shape ops -------------------------------------------------
  // These let callers assemble one large n x m operand (a single matmul per
  // MLP layer) instead of n separate 1 x m tape nodes — the batched GNN and
  // policy-scoring hot paths are built on them.
  Var concat_rows(const std::vector<Var>& xs);  // all same col count; vstack
  // Gather: out row i = a row picks[i] (repeats allowed).
  Var rows(Var a, std::vector<std::size_t> picks);
  // out(seg[r], :) += a(r, :) for every row r; out has num_segments rows.
  Var segment_sum_rows(Var a, std::vector<std::size_t> seg,
                       std::size_t num_segments);
  Var broadcast_row(Var a, std::size_t r, std::size_t n);  // tile row r, n rows
  Var as_row(Var a);  // row-major reshape to 1 x size (e.g. n x 1 -> logits)
  // Fused gather + column concat: out row r = [xs[0] row picks[0][r],
  // xs[1] row picks[1][r], ...]. One materialized node instead of one rows()
  // per source plus a concat_cols — the policy heads of the episode-batched
  // replay assemble their inputs with this. Gradients scatter straight into
  // the sources, bit-identical to the unfused chain.
  Var gather_concat_cols(const std::vector<Var>& xs,
                         std::vector<std::vector<std::size_t>> picks);

  // --- Losses ---------------------------------------------------------------
  // log softmax(logits)[pick]; logits is 1 x n. Returns a 1 x 1 scalar.
  Var log_prob_pick(Var logits, std::size_t pick);

  // Entropy of softmax(logits) for a 1 x n logits row. Returns 1 x 1.
  // Used as an exploration bonus during policy-gradient training.
  Var entropy(Var logits);

  // --- Segment-batched losses -----------------------------------------------
  // The episode-batched REINFORCE replay stacks every scheduling event's
  // logits into one n x 1 column (the natural output shape of a row-batched
  // scoring MLP) and evaluates all per-event softmax losses in a single tape
  // node. Segment s spans rows [seg_start[s], seg_start[s+1]) (the last one
  // ends at n); per segment the math is identical to log_prob_pick / entropy,
  // so the results match the per-event ops bit for bit.
  //
  // Returns 1 x S with entry s = log softmax(segment s)[picks[s]] (picks are
  // segment-local indices).
  Var log_prob_pick_segments(Var logits, std::vector<std::size_t> seg_start,
                             std::vector<std::size_t> picks);
  // Returns 1 x S with entry s = H(softmax(segment s)).
  Var entropy_segments(Var logits, std::vector<std::size_t> seg_start);

  // --- Access / backward ----------------------------------------------------
  const Matrix& value(Var v) const { return nodes_[v.idx].value; }
  const Matrix& grad(Var v) const { return nodes_[v.idx].grad; }
  std::size_t num_nodes() const { return nodes_.size(); }

  // Runs reverse-mode accumulation from `output` (must be 1x1) with seed
  // d(output)/d(output) = `seed`. Parameter grads accumulate into Param::grad.
  void backward(Var output, double seed = 1.0);

 private:
  struct Node {
    Matrix value;
    Matrix grad;
    Param* bound_param = nullptr;  // non-null for param leaves
    bool needs_grad = false;
    // Backward: given this node's grad, scatter into parents' grads.
    std::function<void(Tape&, Node&)> backward_fn;
  };

  int push(Matrix value, bool needs_grad, std::function<void(Tape&, Node&)> fn);
  Node& node(Var v) { return nodes_[v.idx]; }

  bool track_gradients_ = true;
  std::vector<Node> nodes_;
};

}  // namespace decima::nn
