#include "nn/adam.h"

#include <cmath>

namespace decima::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(ParamSet* params, AdamConfig config)
    : params_(params), config_(config) {
  for (const Param* p : params_->params()) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

bool Adam::restore_state(long long steps_taken, std::vector<Matrix> m,
                         std::vector<Matrix> v) {
  if (m.size() != m_.size() || v.size() != v_.size()) return false;
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (!m[i].same_shape(m_[i]) || !v[i].same_shape(v_[i])) return false;
  }
  t_ = steps_taken;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  const auto& ps = params_->params();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    auto& value = ps[i]->value.raw();
    const auto& grad = ps[i]->grad.raw();
    auto& m = m_[i].raw();
    auto& v = v_[i].raw();
    for (std::size_t j = 0; j < value.size(); ++j) {
      m[j] = kBeta1 * m[j] + (1.0 - kBeta1) * grad[j];
      v[j] = kBeta2 * v[j] + (1.0 - kBeta2) * grad[j] * grad[j];
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      value[j] -= config_.lr * mhat / (std::sqrt(vhat) + kEps);
    }
  }
  params_->bump_version();
}

}  // namespace decima::nn
