// Adam optimizer (Kingma & Ba, ICLR'15) — the optimizer the paper uses for
// policy-gradient descent (Appendix C; learning rate 1e-3).
#pragma once

#include "nn/mlp.h"

namespace decima::nn {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

class Adam {
 public:
  explicit Adam(ParamSet* params, AdamConfig config = {});

  // Applies one update from the gradients currently accumulated in the
  // ParamSet, then leaves the gradients untouched (caller zeroes them).
  void step();

  long long steps_taken() const { return t_; }

  // Checkpoint access (src/io): the per-parameter first/second moment
  // accumulators, index-aligned with the bound ParamSet.
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }
  // Restores optimizer state saved from another Adam bound to a ParamSet of
  // identical structure; returns false on shape mismatch (state unchanged).
  bool restore_state(long long steps_taken, std::vector<Matrix> m,
                     std::vector<Matrix> v);

 private:
  ParamSet* params_;
  AdamConfig config_;
  long long t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace decima::nn
