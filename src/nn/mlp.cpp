#include "nn/mlp.h"

#include <atomic>
#include <cmath>

namespace decima::nn {

Mlp::Mlp(std::string name, std::size_t in_dim, std::size_t out_dim,
         std::vector<std::size_t> hidden)
    : name_(std::move(name)) {
  std::vector<std::size_t> dims;
  dims.push_back(in_dim);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out_dim);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    weights_.push_back(std::make_unique<Param>(
        name_ + "/W" + std::to_string(l), dims[l], dims[l + 1]));
    biases_.push_back(std::make_unique<Param>(
        name_ + "/b" + std::to_string(l), 1, dims[l + 1]));
  }
}

Var Mlp::apply(Tape& tape, Var x) const {
  Var h = x;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    // One fused node per layer (hidden layers leaky-ReLU, output linear).
    h = tape.linear(h, tape.param(*weights_[l]), tape.param(*biases_[l]),
                    /*leaky=*/l + 1 < weights_.size());
  }
  return h;
}

void Mlp::forward(const Matrix& x, Matrix& out, Scratch& scratch) const {
  const Matrix* h = &x;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const bool last = l + 1 == weights_.size();
    Matrix& dst = last ? out : scratch.hidden[l % 2];
    linear_forward(*h, weights_[l]->value, biases_[l]->value,
                   /*leaky=*/!last, dst);
    h = &dst;
  }
}

void Mlp::init(Rng& rng) {
  for (auto& w : weights_) {
    const double bound = std::sqrt(6.0 / static_cast<double>(w->value.rows()));
    for (double& v : w->value.raw()) v = rng.uniform(-bound, bound);
    w->grad.zero();
  }
  for (auto& b : biases_) {
    b->value.zero();
    b->grad.zero();
  }
}

std::vector<Param*> Mlp::params() {
  std::vector<Param*> out;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    out.push_back(weights_[l].get());
    out.push_back(biases_[l].get());
  }
  return out;
}

std::vector<const Param*> Mlp::params() const {
  std::vector<const Param*> out;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    out.push_back(weights_[l].get());
    out.push_back(biases_[l].get());
  }
  return out;
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const auto& w : weights_) n += w->value.size();
  for (const auto& b : biases_) n += b->value.size();
  return n;
}

std::size_t ParamSet::num_parameters() const {
  std::size_t n = 0;
  for (const Param* p : params_) n += p->value.size();
  return n;
}

void ParamSet::zero_grads() {
  for (Param* p : params_) p->zero_grad();
}

void ParamSet::copy_values_from(const ParamSet& other) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i]->value = other.params_[i]->value;
  }
  bump_version();
}

std::uint64_t ParamSet::next_version() {
  // Process-wide and callable from any thread (parallel replay workers bump
  // versions concurrently); relaxed is enough because only uniqueness
  // matters — version values are compared for equality, never ordered
  // across threads (docs/concurrency.md).
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void ParamSet::bump_version() { version_ = next_version(); }

std::vector<double> ParamSet::flat_grads() const {
  std::vector<double> out;
  out.reserve(num_parameters());
  for (const Param* p : params_) {
    out.insert(out.end(), p->grad.raw().begin(), p->grad.raw().end());
  }
  return out;
}

void ParamSet::add_flat_to_grads(const std::vector<double>& flat,
                                 double scale) {
  std::size_t offset = 0;
  for (Param* p : params_) {
    for (double& g : p->grad.raw()) g += scale * flat[offset++];
  }
}

double ParamSet::grad_norm() const {
  double s = 0.0;
  for (const Param* p : params_) s += p->grad.squared_norm();
  return std::sqrt(s);
}

void ParamSet::clip_grad_norm(double max_norm) {
  const double norm = grad_norm();
  if (norm <= max_norm || norm == 0.0) return;
  const double scale = max_norm / norm;
  for (Param* p : params_) {
    for (double& g : p->grad.raw()) g *= scale;
  }
}

}  // namespace decima::nn
