#include "autograd/ops.h"

#include <cmath>
#include <cstring>

#include "autograd/op_costs.h"
#include "autograd/tape.h"
#include "prof/op_profiler.h"
#include "util/check.h"

namespace embsr {
namespace ag {

namespace {

/// Slow path taken only while EMBSR_PROF is on: looks up the op's cost
/// model, stamps the active component label on the node (so backward time
/// lands in the same bucket) and records the forward gap.
void ProfileForwardNode(prof::Collector* pc, Node* node,
                        const std::vector<Variable>& inputs) {
  // Cost models live in a static-library TU of their own; registering here,
  // on first profiled op, keeps them immune to linker dead-stripping.
  static const bool registered = [] {
    RegisterOpCostModels();
    return true;
  }();
  (void)registered;
  prof::ShapeInfo shapes;
  shapes.output = node->value.shape();
  shapes.inputs.reserve(inputs.size());
  for (const auto& v : inputs) shapes.inputs.push_back(v.value().shape());
  prof::OpCost cost;
  if (prof::CostFn fn = prof::FindOpCost(node->op)) {
    cost = fn(shapes);
  } else {
    prof::CountUncoveredOp();  // the source scan should make this impossible
  }
  node->component = prof::CurrentComponent();
  pc->RecordForward(node->op, node->component, cost);
}

/// Builds the output node. Records parents and the backward closure only when
/// some input requires grad, so inference-only forward passes build no graph.
/// `op` must be a string literal naming the public op (it is stored on the
/// node and shown by the analyze tooling).
Variable MakeOp(const char* op, Tensor value, std::vector<Variable> inputs,
                std::function<void(Node*)> backward) {
  // Contract: no op may produce NaN/Inf. Checking the single funnel point
  // catches a numeric blow-up at the op that created it rather than ten ops
  // downstream in the loss. (No-op unless EMBSR_CHECK_CONTRACTS.)
  EMBSR_CHECK_FINITE(value);
  auto node = std::make_shared<Node>();
  node->op = op;
  node->value = std::move(value);
  bool rg = false;
  for (const auto& v : inputs) {
    EMBSR_CHECK(v.defined());
    rg = rg || v.node()->requires_grad;
  }
  node->requires_grad = rg;
  if (rg) {
    node->parents.reserve(inputs.size());
    for (auto& v : inputs) node->parents.push_back(v.node());
    node->backward_fn = std::move(backward);
  }
  Tape::Record(node);
  if (prof::Collector* pc = prof::Collector::ActiveOrNull()) {
    ProfileForwardNode(pc, node.get(), inputs);
  }
  return Variable::FromNode(node);
}

void AccumIfNeeded(const std::shared_ptr<Node>& parent, const Tensor& g) {
  if (parent->requires_grad) parent->AccumulateGrad(g);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("Add", embsr::Add(a.value(), b.value()), {a, b},
                [an, bn](Node* out) {
                  AccumIfNeeded(an, out->grad);
                  AccumIfNeeded(bn, out->grad);
                });
}

Variable Sub(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("Sub", embsr::Sub(a.value(), b.value()), {a, b},
                [an, bn](Node* out) {
                  AccumIfNeeded(an, out->grad);
                  AccumIfNeeded(bn, embsr::Neg(out->grad));
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("Mul", embsr::Mul(a.value(), b.value()), {a, b},
                [an, bn](Node* out) {
                  AccumIfNeeded(an, embsr::Mul(out->grad, bn->value));
                  AccumIfNeeded(bn, embsr::Mul(out->grad, an->value));
                });
}

Variable AddRowBroadcast(const Variable& a, const Variable& row) {
  auto an = a.node();
  auto rn = row.node();
  return MakeOp("AddRowBroadcast", embsr::AddRowBroadcast(a.value(), row.value()), {a, row},
                [an, rn](Node* out) {
                  AccumIfNeeded(an, out->grad);
                  if (rn->requires_grad) {
                    Tensor g = embsr::SumRowsTo1xD(out->grad);
                    // lint: allow(raw-resize): same-count rank fixup, copies
                    rn->AccumulateGrad(g.Reshape(rn->value.shape()));
                  }
                });
}

Variable MulRowBroadcast(const Variable& a, const Variable& row) {
  EMBSR_CHECK_EQ(a.value().ndim(), 2);
  EMBSR_CHECK_EQ(row.value().size(), a.value().dim(1));
  Tensor out = embsr::MulRowBroadcast(a.value(), row.value());
  auto an = a.node();
  auto rn = row.node();
  return MakeOp("MulRowBroadcast", std::move(out), {a, row}, [an, rn](Node* o) {
    if (an->requires_grad) {
      an->AccumulateGrad(embsr::MulRowBroadcast(o->grad, rn->value));
    }
    if (rn->requires_grad) {
      Tensor gr = embsr::SumRowsTo1xD(embsr::Mul(o->grad, an->value));
      // lint: allow(raw-resize): same-count rank fixup, copies
      rn->AccumulateGrad(gr.Reshape(rn->value.shape()));
    }
  });
}

Variable MulColBroadcast(const Variable& a, const Variable& col) {
  EMBSR_CHECK_EQ(a.value().ndim(), 2);
  EMBSR_CHECK_EQ(col.value().ndim(), 2);
  EMBSR_CHECK_EQ(col.value().dim(0), a.value().dim(0));
  EMBSR_CHECK_EQ(col.value().dim(1), 1);
  const int64_t n = a.value().dim(0), d = a.value().dim(1);
  Tensor out({n, d});
  for (int64_t i = 0; i < n; ++i) {
    const float c = col.value().data()[i];
    for (int64_t j = 0; j < d; ++j) {
      out.data()[i * d + j] = a.value().data()[i * d + j] * c;
    }
  }
  auto an = a.node();
  auto cn = col.node();
  return MakeOp("MulColBroadcast", std::move(out), {a, col}, [an, cn, n, d](Node* o) {
    if (an->requires_grad) {
      Tensor ga({n, d});
      for (int64_t i = 0; i < n; ++i) {
        const float c = cn->value.data()[i];
        for (int64_t j = 0; j < d; ++j) {
          ga.data()[i * d + j] = o->grad.data()[i * d + j] * c;
        }
      }
      an->AccumulateGrad(ga);
    }
    if (cn->requires_grad) {
      cn->AccumulateGrad(embsr::SumColsToNx1(embsr::Mul(o->grad, an->value)));
    }
  });
}

Variable Scale(const Variable& a, float s) {
  auto an = a.node();
  return MakeOp("Scale", embsr::Scale(a.value(), s), {a}, [an, s](Node* out) {
    AccumIfNeeded(an, embsr::Scale(out->grad, s));
  });
}

Variable AddScalar(const Variable& a, float s) {
  auto an = a.node();
  return MakeOp("AddScalar", embsr::AddScalar(a.value(), s), {a},
                [an](Node* out) { AccumIfNeeded(an, out->grad); });
}

Variable Neg(const Variable& a) { return Scale(a, -1.0f); }

Variable MatMul(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("MatMul", embsr::MatMul(a.value(), b.value()), {a, b},
                [an, bn](Node* out) {
                  if (an->requires_grad) {
                    an->AccumulateGrad(
                        embsr::MatMul(out->grad, bn->value.Transposed()));
                  }
                  if (bn->requires_grad) {
                    bn->AccumulateGrad(
                        embsr::MatMul(an->value.Transposed(), out->grad));
                  }
                });
}

Variable Transpose(const Variable& a) {
  auto an = a.node();
  return MakeOp("Transpose", a.value().Transposed(), {a}, [an](Node* out) {
    AccumIfNeeded(an, out->grad.Transposed());
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor y = embsr::Sigmoid(a.value());
  auto an = a.node();
  return MakeOp("Sigmoid", y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    Tensor g = out->grad;
    const float* py = out->value.data();
    float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) pg[i] *= py[i] * (1.0f - py[i]);
    an->AccumulateGrad(g);
  });
}

Variable Tanh(const Variable& a) {
  Tensor y = embsr::Tanh(a.value());
  auto an = a.node();
  return MakeOp("Tanh", y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    Tensor g = out->grad;
    const float* py = out->value.data();
    float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) pg[i] *= 1.0f - py[i] * py[i];
    an->AccumulateGrad(g);
  });
}

Variable Relu(const Variable& a) {
  Tensor y = embsr::Relu(a.value());
  auto an = a.node();
  return MakeOp("Relu", y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    Tensor g = out->grad;
    const float* px = an->value.data();
    float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) {
      if (px[i] <= 0.0f) pg[i] = 0.0f;
    }
    an->AccumulateGrad(g);
  });
}

Variable Exp(const Variable& a) {
  Tensor y = embsr::Exp(a.value());
  auto an = a.node();
  return MakeOp("Exp", y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    an->AccumulateGrad(embsr::Mul(out->grad, out->value));
  });
}

Variable Log(const Variable& a) {
  Tensor y = embsr::Log(a.value());
  auto an = a.node();
  return MakeOp("Log", y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    Tensor g = out->grad;
    const float* px = an->value.data();
    float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) pg[i] /= px[i];
    an->AccumulateGrad(g);
  });
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  const int64_t da = a.value().dim(1);
  const int64_t db = b.value().dim(1);
  return MakeOp("ConcatCols", embsr::ConcatCols(a.value(), b.value()), {a, b},
                [an, bn, da, db](Node* out) {
                  const int64_t n = out->grad.dim(0);
                  if (an->requires_grad) {
                    Tensor ga({n, da});
                    for (int64_t i = 0; i < n; ++i) {
                      std::memcpy(ga.data() + i * da,
                                  out->grad.data() + i * (da + db),
                                  sizeof(float) * da);
                    }
                    an->AccumulateGrad(ga);
                  }
                  if (bn->requires_grad) {
                    Tensor gb({n, db});
                    for (int64_t i = 0; i < n; ++i) {
                      std::memcpy(gb.data() + i * db,
                                  out->grad.data() + i * (da + db) + da,
                                  sizeof(float) * db);
                    }
                    bn->AccumulateGrad(gb);
                  }
                });
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  const int64_t na = a.value().dim(0);
  const int64_t nb = b.value().dim(0);
  return MakeOp("ConcatRows", embsr::ConcatRows(a.value(), b.value()), {a, b},
                [an, bn, na, nb](Node* out) {
                  if (an->requires_grad) {
                    an->AccumulateGrad(out->grad.SliceRows(0, na));
                  }
                  if (bn->requires_grad) {
                    bn->AccumulateGrad(out->grad.SliceRows(na, na + nb));
                  }
                });
}

Variable StackRows(const std::vector<Variable>& rows) {
  EMBSR_CHECK(!rows.empty());
  const int64_t d = rows[0].value().cols();
  const int64_t k = static_cast<int64_t>(rows.size());
  Tensor out({k, d});
  for (int64_t i = 0; i < k; ++i) {
    EMBSR_CHECK_EQ(rows[i].value().size(), d);
    std::memcpy(out.data() + i * d, rows[i].value().data(),
                sizeof(float) * d);
  }
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(rows.size());
  for (const auto& r : rows) parents.push_back(r.node());
  return MakeOp("StackRows", std::move(out), rows, [parents, d](Node* o) {
    for (size_t i = 0; i < parents.size(); ++i) {
      if (!parents[i]->requires_grad) continue;
      Tensor g = o->grad.SliceRows(static_cast<int64_t>(i),
                                   static_cast<int64_t>(i) + 1);
      // lint: allow(raw-resize): same-count rank fixup, copies
      parents[i]->AccumulateGrad(g.Reshape(parents[i]->value.shape()));
    }
  });
}

Variable SliceRows(const Variable& a, int64_t begin, int64_t end) {
  auto an = a.node();
  return MakeOp("SliceRows", a.value().SliceRows(begin, end), {a},
                [an, begin, end](Node* out) {
                  if (!an->requires_grad) return;
                  Tensor ga(an->value.shape());
                  const int64_t d = ga.ndim() == 2 ? ga.dim(1) : 1;
                  std::memcpy(ga.data() + begin * d, out->grad.data(),
                              sizeof(float) * (end - begin) * d);
                  an->AccumulateGrad(ga);
                });
}

Variable Row(const Variable& a, int64_t r) { return SliceRows(a, r, r + 1); }

Variable GatherRows(const Variable& table,
                    const std::vector<int64_t>& indices) {
  auto tn = table.node();
  return MakeOp("GatherRows", embsr::GatherRows(table.value(), indices), {table},
                [tn, indices](Node* out) {
                  if (!tn->requires_grad) return;
                  Tensor gt(tn->value.shape());
                  embsr::ScatterAddRows(out->grad, indices, &gt);
                  tn->AccumulateGrad(gt);
                });
}

Variable SelectRowsByMask(const Variable& a, const Variable& b,
                          const Tensor& mask) {
  Tensor y = embsr::SelectRowsByMask(a.value(), b.value(), mask);
  auto an = a.node();
  auto bn = b.node();
  return MakeOp("SelectRowsByMask", std::move(y), {a, b},
                [an, bn, mask](Node* out) {
                  const Tensor zero(out->grad.shape());
                  if (an->requires_grad) {
                    an->AccumulateGrad(
                        embsr::SelectRowsByMask(out->grad, zero, mask));
                  }
                  if (bn->requires_grad) {
                    bn->AccumulateGrad(
                        embsr::SelectRowsByMask(zero, out->grad, mask));
                  }
                });
}

Variable SegmentSumRows(const Variable& a,
                        const std::vector<int64_t>& segments,
                        int64_t num_segments) {
  Tensor y = embsr::SegmentSumRows(a.value(), segments, num_segments);
  auto an = a.node();
  return MakeOp("SegmentSumRows", std::move(y), {a},
                [an, segments](Node* out) {
                  if (!an->requires_grad) return;
                  an->AccumulateGrad(embsr::GatherRows(out->grad, segments));
                });
}

Variable RowSoftmaxMasked(const Variable& a, const Tensor& mask) {
  Tensor y = embsr::RowSoftmaxMasked(a.value(), mask);
  auto an = a.node();
  return MakeOp("RowSoftmaxMasked", y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    // dL/dx_i = y_i * (g_i - sum_j g_j y_j), row-wise.
    const int64_t n = out->value.dim(0), m = out->value.dim(1);
    Tensor ga({n, m});
    for (int64_t i = 0; i < n; ++i) {
      const float* y = out->value.data() + i * m;
      const float* g = out->grad.data() + i * m;
      double dot = 0.0;
      for (int64_t j = 0; j < m; ++j) dot += static_cast<double>(g[j]) * y[j];
      float* o = ga.data() + i * m;
      for (int64_t j = 0; j < m; ++j) {
        o[j] = y[j] * (g[j] - static_cast<float>(dot));
      }
    }
    an->AccumulateGrad(ga);
  });
}

Variable RowSoftmax(const Variable& a) {
  return RowSoftmaxMasked(a, Tensor::Ones(a.value().shape()));
}

Variable SumAll(const Variable& a) {
  auto an = a.node();
  return MakeOp("SumAll", embsr::SumAll(a.value()), {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    an->AccumulateGrad(Tensor::Full(an->value.shape(), out->grad.at(0)));
  });
}

Variable SumRowsTo1xD(const Variable& a) {
  auto an = a.node();
  return MakeOp("SumRowsTo1xD", embsr::SumRowsTo1xD(a.value()), {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    const int64_t n = an->value.dim(0), d = an->value.dim(1);
    Tensor ga({n, d});
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(ga.data() + i * d, out->grad.data(), sizeof(float) * d);
    }
    an->AccumulateGrad(ga);
  });
}

Variable SumColsToNx1(const Variable& a) {
  auto an = a.node();
  return MakeOp("SumColsToNx1", embsr::SumColsToNx1(a.value()), {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    const int64_t n = an->value.dim(0), d = an->value.dim(1);
    Tensor ga({n, d});
    for (int64_t i = 0; i < n; ++i) {
      const float g = out->grad.data()[i];
      for (int64_t j = 0; j < d; ++j) ga.data()[i * d + j] = g;
    }
    an->AccumulateGrad(ga);
  });
}

Variable MeanRowsTo1xD(const Variable& a) {
  const int64_t n = a.value().dim(0);
  return Scale(SumRowsTo1xD(a), 1.0f / static_cast<float>(n));
}

Variable RepeatRow(const Variable& a, int64_t n) {
  EMBSR_CHECK_EQ(a.value().rows(), 1);
  const int64_t d = a.value().cols();
  Tensor out({n, d});
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * d, a.value().data(), sizeof(float) * d);
  }
  auto an = a.node();
  return MakeOp("RepeatRow", std::move(out), {a}, [an](Node* o) {
    if (!an->requires_grad) return;
    Tensor g = embsr::SumRowsTo1xD(o->grad);
    // lint: allow(raw-resize): same-count rank fixup, copies
    an->AccumulateGrad(g.Reshape(an->value.shape()));
  });
}

Variable L2NormalizeRowsOp(const Variable& a) {
  constexpr float kEps = 1e-12f;
  Tensor y = embsr::L2NormalizeRows(a.value(), kEps);
  auto an = a.node();
  return MakeOp("L2NormalizeRowsOp", y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    const int64_t n = an->value.dim(0), d = an->value.dim(1);
    Tensor ga({n, d});
    for (int64_t i = 0; i < n; ++i) {
      const float* x = an->value.data() + i * d;
      const float* y = out->value.data() + i * d;
      const float* g = out->grad.data() + i * d;
      double norm_sq = 0.0;
      for (int64_t j = 0; j < d; ++j) norm_sq += static_cast<double>(x[j]) * x[j];
      const double norm = std::sqrt(norm_sq);
      if (norm < kEps) continue;  // zero row: zero grad
      double gy = 0.0;
      for (int64_t j = 0; j < d; ++j) gy += static_cast<double>(g[j]) * y[j];
      const float inv = static_cast<float>(1.0 / norm);
      for (int64_t j = 0; j < d; ++j) {
        ga.data()[i * d + j] = (g[j] - static_cast<float>(gy) * y[j]) * inv;
      }
    }
    an->AccumulateGrad(ga);
  });
}

Variable LayerNormRows(const Variable& a, float eps) {
  EMBSR_CHECK_EQ(a.value().ndim(), 2);
  const int64_t n = a.value().dim(0), d = a.value().dim(1);
  Tensor y({n, d});
  std::vector<float> inv_std(n);
  for (int64_t i = 0; i < n; ++i) {
    const float* x = a.value().data() + i * d;
    double mean = 0.0;
    for (int64_t j = 0; j < d; ++j) mean += x[j];
    mean /= d;
    double var = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double c = x[j] - mean;
      var += c * c;
    }
    var /= d;
    const double istd = 1.0 / std::sqrt(var + eps);
    inv_std[i] = static_cast<float>(istd);
    for (int64_t j = 0; j < d; ++j) {
      y.data()[i * d + j] = static_cast<float>((x[j] - mean) * istd);
    }
  }
  auto an = a.node();
  return MakeOp("LayerNormRows", std::move(y), {a}, [an, inv_std, n, d](Node* out) {
    if (!an->requires_grad) return;
    Tensor ga({n, d});
    for (int64_t i = 0; i < n; ++i) {
      const float* yv = out->value.data() + i * d;
      const float* g = out->grad.data() + i * d;
      double gm = 0.0, gym = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        gm += g[j];
        gym += static_cast<double>(g[j]) * yv[j];
      }
      gm /= d;
      gym /= d;
      for (int64_t j = 0; j < d; ++j) {
        ga.data()[i * d + j] = static_cast<float>(
            (g[j] - gm - yv[j] * gym) * inv_std[i]);
      }
    }
    an->AccumulateGrad(ga);
  });
}

Variable Dropout(const Variable& a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return a;
  EMBSR_CHECK(rng != nullptr);
  EMBSR_CHECK_LT(p, 1.0f);
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  Tensor mask(a.value().shape());
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->Bernoulli(keep) ? scale : 0.0f;
  }
  Tensor out = embsr::Mul(a.value(), mask);
  auto an = a.node();
  return MakeOp("Dropout", std::move(out), {a}, [an, mask](Node* o) {
    AccumIfNeeded(an, embsr::Mul(o->grad, mask));
  });
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int64_t>& targets) {
  EMBSR_CHECK_EQ(logits.value().ndim(), 2);
  const int64_t n = logits.value().dim(0);
  const int64_t c = logits.value().dim(1);
  EMBSR_CHECK_EQ(n, static_cast<int64_t>(targets.size()));
  Tensor probs = embsr::RowSoftmax(logits.value());
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    EMBSR_CHECK_GE(targets[i], 0);
    EMBSR_CHECK_LT(targets[i], c);
    const float p = probs.at2(i, targets[i]);
    loss -= std::log(std::max(p, 1e-12f));
  }
  loss /= n;
  auto ln = logits.node();
  return MakeOp("SoftmaxCrossEntropy", Tensor::Scalar(static_cast<float>(loss)), {logits},
                [ln, probs, targets, n, c](Node* out) {
                  if (!ln->requires_grad) return;
                  const float g0 = out->grad.at(0) / static_cast<float>(n);
                  Tensor ga = probs;
                  for (int64_t i = 0; i < n; ++i) {
                    ga.at2(i, targets[i]) -= 1.0f;
                  }
                  ga.ScaleInPlace(g0);
                  ln->AccumulateGrad(ga);
                });
}

}  // namespace ag
}  // namespace embsr
