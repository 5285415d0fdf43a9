// Two-hidden-layer perceptron, the reusable building block of Decima.
//
// Per §6.1 of the paper: every non-linear transformation (the six GNN
// transforms f/g at the three summarization levels, and the two policy score
// functions q and w) is a two-hidden-layer network with 32 and 16 hidden
// units; the total model is ~12.7k parameters.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tape.h"
#include "util/rng.h"

namespace decima::nn {

class Mlp {
 public:
  // hidden defaults to the paper's {32, 16}.
  Mlp(std::string name, std::size_t in_dim, std::size_t out_dim,
      std::vector<std::size_t> hidden = {32, 16});

  // Applies the network to `x` (n x in_dim) -> (n x out_dim) on `tape`.
  // Hidden activations are leaky ReLU; the output layer is linear.
  Var apply(Tape& tape, Var x) const;

  // Tape-free numeric forward pass: each layer is nn::linear_forward, the
  // function Tape::linear's forward calls, so the result matches apply()'s
  // value bit for bit. Row r of the output depends only on
  // row r of `x`. This is what the incremental embedding cache
  // (src/gnn/embedding_cache.h) evaluates dirty rows with.
  Matrix forward(const Matrix& x) const;

  // Initializes weights (He-style scaled uniform) from `rng`. Biases zero.
  void init(Rng& rng);

  std::vector<Param*> params();
  std::vector<const Param*> params() const;
  std::size_t num_parameters() const;
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  // Owned by unique_ptr so Param addresses stay stable if the Mlp moves.
  std::vector<std::unique_ptr<Param>> weights_;
  std::vector<std::unique_ptr<Param>> biases_;
};

// A named collection of parameters; the unit Adam and the checkpoint files
// (src/io/checkpoint.h) operate on. Does not own the parameters.
class ParamSet {
 public:
  void add(Param* p) { params_.push_back(p); }
  void add(const std::vector<Param*>& ps) {
    params_.insert(params_.end(), ps.begin(), ps.end());
  }
  const std::vector<Param*>& params() const { return params_; }
  std::size_t num_parameters() const;
  void zero_grads();
  // Copies values from another set with identical structure.
  void copy_values_from(const ParamSet& other);
  // Flattens all gradients into a single vector (for storage per action).
  std::vector<double> flat_grads() const;
  // Adds `scale * flat` into the grads.
  void add_flat_to_grads(const std::vector<double>& flat, double scale);
  double grad_norm() const;
  void clip_grad_norm(double max_norm);

  // Monotone fingerprint of the parameter VALUES, globally unique across
  // ParamSet instances (so two different policy snapshots never share one).
  // Every value-mutating entry point bumps it: Adam::step, copy_values_from
  // and the checkpoint loaders. The incremental embedding cache compares it
  // to detect that cached activations were computed under stale parameters.
  // Direct writes to Param::value bypass the counter — call bump_version()
  // after such writes.
  std::uint64_t version() const { return version_; }
  void bump_version();

 private:
  static std::uint64_t next_version();

  std::vector<Param*> params_;
  std::uint64_t version_ = next_version();
};

}  // namespace decima::nn
