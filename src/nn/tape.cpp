#include "nn/tape.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace decima::nn {

template <typename Backward>
int Tape::push(Matrix value, bool needs_grad, Backward&& fn) {
  needs_grad = needs_grad && track_gradients_;
  Node n;
  if (needs_grad) {
    n.grad = Matrix(value.rows(), value.cols());
    n.backward_fn = std::forward<Backward>(fn);
  }
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

Var Tape::constant(Matrix value) {
  return Var{push(std::move(value), false, nullptr)};
}

Var Tape::param(Param& p) {
  if (!track_gradients_) {
    const int idx = push(Matrix(), false, nullptr);
    nodes_[static_cast<std::size_t>(idx)].borrowed = &p.value;
    return Var{idx};
  }
  const int idx = push(p.value, true, nullptr);
  nodes_[static_cast<std::size_t>(idx)].bound_param = &p;
  return Var{idx};
}

Var Tape::matmul(Var a, Var b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  Matrix out = A.matmul(B);
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  const int ai = a.idx, bi = b.idx;
  return Var{push(std::move(out), ng, [ai, bi](Tape& t, Node& self) {
    Node& na = t.nodes_[ai];
    Node& nb = t.nodes_[bi];
    if (na.needs_grad) self.grad.matmul_transposed_acc(nb.value, na.grad);
    if (nb.needs_grad) {
      // Through a zeroed temporary: the product is summed on its own before
      // it meets the accumulated gradient.
      Matrix db(nb.grad.rows(), nb.grad.cols());
      na.value.transposed_matmul_acc(self.grad, db);
      nb.grad.add_in_place(db);
    }
  })};
}

Var Tape::add(Var a, Var b) {
  Matrix out = value(a);
  out.add_in_place(value(b));
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  const int ai = a.idx, bi = b.idx;
  return Var{push(std::move(out), ng, [ai, bi](Tape& t, Node& self) {
    if (t.nodes_[ai].needs_grad) t.nodes_[ai].grad.add_in_place(self.grad);
    if (t.nodes_[bi].needs_grad) t.nodes_[bi].grad.add_in_place(self.grad);
  })};
}

Var Tape::addn(const std::vector<Var>& xs) {
  assert(!xs.empty());
  Matrix out = value(xs[0]);
  bool ng = node(xs[0]).needs_grad;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    out.add_in_place(value(xs[i]));
    ng = ng || node(xs[i]).needs_grad;
  }
  std::vector<int> idxs;
  idxs.reserve(xs.size());
  for (Var v : xs) idxs.push_back(v.idx);
  return Var{push(std::move(out), ng,
                  [idxs = std::move(idxs)](Tape& t, Node& self) {
    for (int i : idxs) {
      if (t.nodes_[i].needs_grad) t.nodes_[i].grad.add_in_place(self.grad);
    }
  })};
}

Var Tape::linear(Var x, Var w, Var bias, bool leaky, double slope) {
  Matrix out;
  linear_forward(value(x), value(w), value(bias), leaky, out, slope);
  const bool ng =
      node(x).needs_grad || node(w).needs_grad || node(bias).needs_grad;
  const int xi = x.idx, wi = w.idx, bi = bias.idx;
  return Var{push(std::move(out), ng,
                  [xi, wi, bi, leaky, slope](Tape& t, Node& self) {
    Node& nx = t.nodes_[xi];
    Node& nw = t.nodes_[wi];
    Node& nb = t.nodes_[bi];
    // leaky-ReLU preserves sign (slope > 0), so the activation mask is
    // recoverable from the output; self.grad is masked in place (this node's
    // gradient has no readers after its backward_fn runs) and the two
    // products accumulate straight into the parents' gradients.
    Matrix& dpre = self.grad;
    if (leaky) {
      for (std::size_t i = 0; i < dpre.raw().size(); ++i) {
        if (self.value.raw()[i] <= 0.0) dpre.raw()[i] *= slope;
      }
    }
    if (nx.needs_grad) dpre.matmul_transposed_acc(nw.value, nx.grad);
    if (nw.needs_grad) nx.value.transposed_matmul_acc(dpre, nw.grad);
    if (nb.needs_grad) {
      for (std::size_t r = 0; r < dpre.rows(); ++r) {
        for (std::size_t c = 0; c < dpre.cols(); ++c) {
          nb.grad(0, c) += dpre(r, c);
        }
      }
    }
  })};
}

Var Tape::concat_cols(const std::vector<Var>& xs) {
  assert(!xs.empty());
  const std::size_t rows = value(xs[0]).rows();
  std::size_t cols = 0;
  bool ng = false;
  for (Var v : xs) {
    assert(value(v).rows() == rows);
    cols += value(v).cols();
    ng = ng || node(v).needs_grad;
  }
  Matrix out(rows, cols);
  std::size_t offset = 0;
  for (Var v : xs) {
    const Matrix& m = value(v);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) out(r, offset + c) = m(r, c);
    }
    offset += m.cols();
  }
  std::vector<int> idxs;
  idxs.reserve(xs.size());
  for (Var v : xs) idxs.push_back(v.idx);
  return Var{push(std::move(out), ng,
                  [idxs = std::move(idxs)](Tape& t, Node& self) {
    std::size_t offset = 0;
    for (int i : idxs) {
      Node& ni = t.nodes_[i];
      const std::size_t c0 = offset;
      offset += ni.value.cols();
      if (!ni.needs_grad) continue;
      for (std::size_t r = 0; r < ni.value.rows(); ++r) {
        for (std::size_t c = 0; c < ni.value.cols(); ++c) {
          ni.grad(r, c) += self.grad(r, c0 + c);
        }
      }
    }
  })};
}

Var Tape::sum_rows(Var a) {
  const Matrix& A = value(a);
  Matrix out(1, A.cols());
  for (std::size_t r = 0; r < A.rows(); ++r) {
    for (std::size_t c = 0; c < A.cols(); ++c) out(0, c) += A(r, c);
  }
  const int ai = a.idx;
  return Var{push(std::move(out), node(a).needs_grad,
                  [ai](Tape& t, Node& self) {
    Node& na = t.nodes_[ai];
    if (!na.needs_grad) return;
    for (std::size_t r = 0; r < na.value.rows(); ++r) {
      for (std::size_t c = 0; c < na.value.cols(); ++c) {
        na.grad(r, c) += self.grad(0, c);
      }
    }
  })};
}

Var Tape::concat_rows(const std::vector<Var>& xs) {
  assert(!xs.empty());
  const std::size_t cols = value(xs[0]).cols();
  std::size_t rows = 0;
  bool ng = false;
  for (Var v : xs) {
    assert(value(v).cols() == cols);
    rows += value(v).rows();
    ng = ng || node(v).needs_grad;
  }
  Matrix out(rows, cols);
  std::size_t r0 = 0;
  for (Var v : xs) {
    const Matrix& m = value(v);
    std::copy(m.raw().begin(), m.raw().end(),
              out.raw().begin() + static_cast<std::ptrdiff_t>(r0 * cols));
    r0 += m.rows();
  }
  std::vector<int> idxs;
  idxs.reserve(xs.size());
  for (Var v : xs) idxs.push_back(v.idx);
  return Var{push(std::move(out), ng,
                  [idxs = std::move(idxs)](Tape& t, Node& self) {
    std::size_t r0 = 0;
    for (int i : idxs) {
      Node& ni = t.nodes_[i];
      const std::size_t nr = ni.value.rows();
      if (ni.needs_grad) {
        for (std::size_t r = 0; r < nr; ++r) {
          for (std::size_t c = 0; c < ni.value.cols(); ++c) {
            ni.grad(r, c) += self.grad(r0 + r, c);
          }
        }
      }
      r0 += nr;
    }
  })};
}

Var Tape::rows(Var a, std::vector<std::size_t> picks) {
  const Matrix& A = value(a);
  Matrix out(picks.size(), A.cols());
  for (std::size_t i = 0; i < picks.size(); ++i) {
    assert(picks[i] < A.rows());
    for (std::size_t c = 0; c < A.cols(); ++c) out(i, c) = A(picks[i], c);
  }
  const int ai = a.idx;
  return Var{push(std::move(out), node(a).needs_grad,
                  [ai, picks = std::move(picks)](Tape& t, Node& self) {
    Node& na = t.nodes_[ai];
    if (!na.needs_grad) return;
    for (std::size_t i = 0; i < picks.size(); ++i) {
      for (std::size_t c = 0; c < self.grad.cols(); ++c) {
        na.grad(picks[i], c) += self.grad(i, c);
      }
    }
  })};
}

Var Tape::segment_sum_rows(Var a, std::vector<std::size_t> seg,
                           std::size_t num_segments) {
  const Matrix& A = value(a);
  assert(seg.size() == A.rows());
  Matrix out(num_segments, A.cols());
  for (std::size_t r = 0; r < A.rows(); ++r) {
    assert(seg[r] < num_segments);
    for (std::size_t c = 0; c < A.cols(); ++c) out(seg[r], c) += A(r, c);
  }
  const int ai = a.idx;
  return Var{push(std::move(out), node(a).needs_grad,
                  [ai, seg = std::move(seg)](Tape& t, Node& self) {
    Node& na = t.nodes_[ai];
    if (!na.needs_grad) return;
    for (std::size_t r = 0; r < na.value.rows(); ++r) {
      for (std::size_t c = 0; c < self.grad.cols(); ++c) {
        na.grad(r, c) += self.grad(seg[r], c);
      }
    }
  })};
}

Var Tape::reshape(Var a, std::size_t rows, std::size_t cols) {
  const Matrix& A = value(a);
  Matrix out(rows, cols, A.raw());
  const int ai = a.idx;
  return Var{push(std::move(out), node(a).needs_grad,
                  [ai](Tape& t, Node& self) {
    Node& na = t.nodes_[ai];
    if (!na.needs_grad) return;
    for (std::size_t i = 0; i < self.grad.raw().size(); ++i) {
      na.grad.raw()[i] += self.grad.raw()[i];
    }
  })};
}

Var Tape::gather_concat_cols(const std::vector<Var>& xs,
                             std::vector<std::vector<std::size_t>> picks) {
  assert(!xs.empty() && xs.size() == picks.size());
  const std::size_t n = picks[0].size();
  std::size_t cols = 0;
  bool ng = false;
  for (std::size_t s = 0; s < xs.size(); ++s) {
    assert(picks[s].size() == n);
    cols += value(xs[s]).cols();
    ng = ng || node(xs[s]).needs_grad;
  }
  Matrix out(n, cols);
  std::size_t c0 = 0;
  for (std::size_t s = 0; s < xs.size(); ++s) {
    const Matrix& m = value(xs[s]);
    for (std::size_t r = 0; r < n; ++r) {
      assert(picks[s][r] < m.rows());
      const double* src = m.data() + picks[s][r] * m.cols();
      double* dst = out.data() + r * cols + c0;
      std::copy(src, src + m.cols(), dst);
    }
    c0 += m.cols();
  }
  std::vector<int> idxs;
  idxs.reserve(xs.size());
  for (Var v : xs) idxs.push_back(v.idx);
  return Var{push(std::move(out), ng,
                  [idxs = std::move(idxs),
                   picks = std::move(picks)](Tape& t, Node& self) {
    std::size_t c0 = 0;
    for (std::size_t s = 0; s < idxs.size(); ++s) {
      Node& ni = t.nodes_[idxs[s]];
      const std::size_t w = ni.value.cols();
      if (ni.needs_grad) {
        for (std::size_t r = 0; r < picks[s].size(); ++r) {
          const double* g = self.grad.data() + r * self.grad.cols() + c0;
          double* dst = ni.grad.data() + picks[s][r] * w;
          for (std::size_t c = 0; c < w; ++c) dst[c] += g[c];
        }
      }
      c0 += w;
    }
  })};
}

Var Tape::log_prob_pick_segments(Var logits, std::vector<std::size_t> seg_start,
                                 std::vector<std::size_t> picks) {
  const Matrix& L = value(logits);
  assert(L.cols() == 1);
  assert(seg_start.size() == picks.size());
  const std::size_t S = seg_start.size();
  // Per segment: log_z = max + log(Σ exp(l - max)), in row order.
  std::vector<double> log_z(S);
  Matrix out(1, S);
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t lo = seg_start[s];
    const std::size_t hi = s + 1 < S ? seg_start[s + 1] : L.rows();
    assert(lo < hi && hi <= L.rows() && picks[s] < hi - lo);
    double max_logit = L(lo, 0);
    for (std::size_t r = lo + 1; r < hi; ++r) {
      max_logit = std::max(max_logit, L(r, 0));
    }
    double denom = 0.0;
    for (std::size_t r = lo; r < hi; ++r) {
      denom += std::exp(L(r, 0) - max_logit);
    }
    log_z[s] = max_logit + std::log(denom);
    out(0, s) = L(lo + picks[s], 0) - log_z[s];
  }
  const int ai = logits.idx;
  return Var{push(std::move(out), node(logits).needs_grad,
                  [ai, seg_start = std::move(seg_start),
                   picks = std::move(picks),
                   log_z = std::move(log_z)](Tape& t, Node& self) {
    Node& na = t.nodes_[ai];
    if (!na.needs_grad) return;
    const std::size_t S = seg_start.size();
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t lo = seg_start[s];
      const std::size_t hi = s + 1 < S ? seg_start[s + 1] : na.value.rows();
      const double g = self.grad(0, s);
      for (std::size_t r = lo; r < hi; ++r) {
        const double p = std::exp(na.value(r, 0) - log_z[s]);
        na.grad(r, 0) += g * ((r == lo + picks[s] ? 1.0 : 0.0) - p);
      }
    }
  })};
}

Var Tape::entropy_segments(Var logits, std::vector<std::size_t> seg_start) {
  const Matrix& L = value(logits);
  assert(L.cols() == 1);
  const std::size_t S = seg_start.size();
  // Each segment's probabilities are softmax()'s, the ones the heads pick by.
  std::vector<double> probs(L.rows());
  std::vector<double> ent(S);
  Matrix out(1, S);
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t lo = seg_start[s];
    const std::size_t hi = s + 1 < S ? seg_start[s + 1] : L.rows();
    assert(lo < hi && hi <= L.rows());
    softmax(L.data() + lo, hi - lo, probs.data() + lo);
    double h = 0.0;
    for (std::size_t r = lo; r < hi; ++r) {
      if (probs[r] > 1e-12) h -= probs[r] * std::log(probs[r]);
    }
    ent[s] = h;
    out(0, s) = h;
  }
  const int ai = logits.idx;
  return Var{push(std::move(out), node(logits).needs_grad,
                  [ai, seg_start = std::move(seg_start),
                   probs = std::move(probs),
                   ent = std::move(ent)](Tape& t, Node& self) {
    Node& na = t.nodes_[ai];
    if (!na.needs_grad) return;
    const std::size_t S = seg_start.size();
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t lo = seg_start[s];
      const std::size_t hi = s + 1 < S ? seg_start[s + 1] : na.value.rows();
      const double g = self.grad(0, s);
      // dH/dl_r = -p_r (log p_r + H).
      for (std::size_t r = lo; r < hi; ++r) {
        const double logp = probs[r] > 1e-12 ? std::log(probs[r]) : -27.6;
        na.grad(r, 0) += g * (-probs[r] * (logp + ent[s]));
      }
    }
  })};
}

std::vector<double> softmax(const double* logits, std::size_t n) {
  std::vector<double> out(n);
  softmax(logits, n, out.data());
  return out;
}

void softmax(const double* logits, std::size_t n, double* out) {
  double max_logit = logits[0];
  for (std::size_t c = 1; c < n; ++c) {
    max_logit = std::max(max_logit, logits[c]);
  }
  double denom = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    out[c] = std::exp(logits[c] - max_logit);
    denom += out[c];
  }
  for (std::size_t c = 0; c < n; ++c) out[c] /= denom;
}

void Tape::backward(Var output, double seed) {
  Node& out = node(output);
  assert(out.value.size() == 1);
  out.grad(0, 0) += seed;
  for (int i = output.idx; i >= 0; --i) {
    Node& n = nodes_[i];
    if (!n.needs_grad) continue;
    if (n.backward_fn) n.backward_fn(*this, n);
    if (n.bound_param) n.bound_param->grad.add_in_place(n.grad);
  }
}

}  // namespace decima::nn
