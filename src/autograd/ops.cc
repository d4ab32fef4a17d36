#include "autograd/ops.h"

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <span>
#include <sstream>
#include <utility>

#include "autograd/op_def.h"
#include "autograd/tape.h"
#include "prof/op_profiler.h"
#include "util/check.h"

namespace embsr {
namespace ag {

namespace {

/// Slow path taken only while EMBSR_PROF is on: charges the op's modeled
/// cost, stamps the active component label on the node (so backward time
/// lands in the same bucket) and records the forward gap.
void ProfileForwardNode(prof::Collector* pc, Node* node,
                        std::span<const Variable> inputs) {
  prof::ShapeInfo shapes;
  shapes.output = node->value.shape();
  shapes.inputs.reserve(inputs.size());
  for (const auto& v : inputs) shapes.inputs.push_back(v.value().shape());
  const prof::OpCost cost = node->def->cost(shapes);
  node->component = prof::CurrentComponent();
  pc->RecordForward(node->def->name, node->component, cost);
}

/// The op-independent half of MakeOp: builds, records and profiles the
/// output node, with its parents only when it requires grad.
std::shared_ptr<Node> NewOpNode(OpId id, Tensor value,
                                std::span<const Variable> inputs) {
  // Contract: no op may produce NaN/Inf. Checking the single funnel point
  // catches a numeric blow-up at the op that created it rather than ten ops
  // downstream in the loss. (No-op unless EMBSR_CHECK_CONTRACTS.)
  EMBSR_CHECK_FINITE(value);
  auto node = std::make_shared<Node>();
  node->def = &OpTable()[static_cast<size_t>(id)];
  node->value = std::move(value);
  bool rg = false;
  for (const auto& v : inputs) {
    EMBSR_CHECK(v.defined());
    rg = rg || v.node()->requires_grad;
  }
  node->requires_grad = rg && !NoGradScope::Active();
  if (node->requires_grad) {
    node->parents.reserve(inputs.size());
    for (const auto& v : inputs) node->parents.push_back(v.node());
  }
  Tape::Record(node);
  if (prof::Collector* pc = prof::Collector::ActiveOrNull()) {
    ProfileForwardNode(pc, node.get(), inputs);
  }
  return node;
}

/// Builds the output node. The node requires grad when some input does and
/// no NoGradScope is open; only then does it record its parents and turn
/// `backward` (passed as its lambda type) into a std::function. An
/// inference forward therefore allocates no closure and no parent list, and
/// keeps no input alive past the op.
template <typename Backward>
Variable MakeOp(OpId id, Tensor value, std::span<const Variable> inputs,
                Backward&& backward) {
  std::shared_ptr<Node> node = NewOpNode(id, std::move(value), inputs);
  if (node->requires_grad) {
    node->backward_fn = std::forward<Backward>(backward);
  }
  return Variable::FromNode(std::move(node));
}

template <typename Backward>
Variable MakeOp(OpId id, Tensor value, std::initializer_list<Variable> inputs,
                Backward&& backward) {
  return MakeOp(id, std::move(value),
                std::span<const Variable>(inputs.begin(), inputs.size()),
                std::forward<Backward>(backward));
}

/// Accumulates `g` into a parent that requires grad, moving an rvalue in.
template <typename G>
void AccumIfNeeded(const std::shared_ptr<Node>& parent, G&& g) {
  if (parent->requires_grad) parent->AccumulateGrad(std::forward<G>(g));
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(OpId::kAdd, embsr::Add(a.value(), b.value()), {a, b},
                [an, bn](Node* out) {
                  AccumIfNeeded(an, out->grad);
                  AccumIfNeeded(bn, out->grad);
                });
}

Variable Mul(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(OpId::kMul, embsr::Mul(a.value(), b.value()), {a, b},
                [an, bn](Node* out) {
                  AccumIfNeeded(an, embsr::Mul(out->grad, bn->value));
                  AccumIfNeeded(bn, embsr::Mul(out->grad, an->value));
                });
}

Variable AddRowBroadcast(const Variable& a, const Variable& row) {
  auto an = a.node();
  auto rn = row.node();
  return MakeOp(OpId::kAddRowBroadcast, embsr::AddRowBroadcast(a.value(), row.value()), {a, row},
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
  return MakeOp(OpId::kMulRowBroadcast, std::move(out), {a, row}, [an, rn](Node* o) {
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
  return MakeOp(OpId::kMulColBroadcast, std::move(out), {a, col}, [an, cn, n, d](Node* o) {
    if (an->requires_grad) {
      Tensor ga({n, d});
      for (int64_t i = 0; i < n; ++i) {
        const float c = cn->value.data()[i];
        for (int64_t j = 0; j < d; ++j) {
          ga.data()[i * d + j] = o->grad.data()[i * d + j] * c;
        }
      }
      an->AccumulateGrad(std::move(ga));
    }
    if (cn->requires_grad) {
      cn->AccumulateGrad(embsr::SumColsToNx1(embsr::Mul(o->grad, an->value)));
    }
  });
}

Variable Scale(const Variable& a, float s) {
  auto an = a.node();
  return MakeOp(OpId::kScale, embsr::Scale(a.value(), s), {a}, [an, s](Node* out) {
    AccumIfNeeded(an, embsr::Scale(out->grad, s));
  });
}

Variable AddScalar(const Variable& a, float s) {
  auto an = a.node();
  return MakeOp(OpId::kAddScalar, embsr::AddScalar(a.value(), s), {a},
                [an](Node* out) { AccumIfNeeded(an, out->grad); });
}

Variable Neg(const Variable& a) { return Scale(a, -1.0f); }

Variable MatMul(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(OpId::kMatMul, embsr::MatMul(a.value(), b.value()), {a, b},
                [an, bn](Node* out) {
                  // dA = dY·Bᵀ. A leaf B (a parameter or constant) keeps its
                  // transpose until its next write, and MatMul on it is
                  // bitwise MatMulTransposedB(dY, B) (tensor.h).
                  if (an->requires_grad) {
                    an->AccumulateGrad(
                        bn->def == nullptr
                            ? embsr::MatMul(out->grad, bn->ValueTransposed())
                            : embsr::MatMulTransposedB(out->grad, bn->value));
                  }
                  // dB = Aᵀ·dY, summed straight into B's grad.
                  if (bn->requires_grad) {
                    bn->AccumulateGradTransposedA(an->value, out->grad,
                                                  /*transpose=*/false);
                  }
                });
}

Variable ScoreItems(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  // With the graph on, a leaf table's cached transpose serves the forward
  // as it serves MatMul's backward: the same scores, bitwise.
  const bool graph_on =
      (an->requires_grad || bn->requires_grad) && !NoGradScope::Active();
  Tensor y = graph_on && bn->def == nullptr
                 ? embsr::MatMul(a.value(), bn->ValueTransposed())
                 : embsr::MatMulTransposedB(a.value(), b.value());
  return MakeOp(OpId::kScoreItems, std::move(y), {a, b},
                [an, bn](Node* out) {
                  // The gradients MatMul(a, Transpose(b)) accumulates, in
                  // the same order: the table's is (aᵀ·dY)ᵀ.
                  if (an->requires_grad) {
                    an->AccumulateGrad(embsr::MatMul(out->grad, bn->value));
                  }
                  if (bn->requires_grad) {
                    bn->AccumulateGradTransposedA(an->value, out->grad,
                                                  /*transpose=*/true);
                  }
                });
}

Variable Transpose(const Variable& a) {
  auto an = a.node();
  return MakeOp(OpId::kTranspose, a.value().Transposed(), {a}, [an](Node* out) {
    AccumIfNeeded(an, out->grad.Transposed());
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor y = embsr::Sigmoid(a.value());
  auto an = a.node();
  return MakeOp(OpId::kSigmoid, y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    Tensor g = out->grad;
    const float* py = out->value.data();
    float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) pg[i] *= py[i] * (1.0f - py[i]);
    an->AccumulateGrad(std::move(g));
  });
}

Variable Tanh(const Variable& a) {
  Tensor y = embsr::Tanh(a.value());
  auto an = a.node();
  return MakeOp(OpId::kTanh, y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    Tensor g = out->grad;
    const float* py = out->value.data();
    float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) pg[i] *= 1.0f - py[i] * py[i];
    an->AccumulateGrad(std::move(g));
  });
}

Variable Relu(const Variable& a) {
  Tensor y = embsr::Relu(a.value());
  auto an = a.node();
  return MakeOp(OpId::kRelu, y, {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    Tensor g = out->grad;
    const float* px = an->value.data();
    float* pg = g.data();
    for (int64_t i = 0; i < g.size(); ++i) {
      if (px[i] <= 0.0f) pg[i] = 0.0f;
    }
    an->AccumulateGrad(std::move(g));
  });
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  const int64_t da = a.value().dim(1);
  const int64_t db = b.value().dim(1);
  return MakeOp(OpId::kConcatCols, embsr::ConcatCols(a.value(), b.value()), {a, b},
                [an, bn, da, db](Node* out) {
                  const int64_t n = out->grad.dim(0);
                  if (an->requires_grad) {
                    Tensor ga({n, da});
                    for (int64_t i = 0; i < n; ++i) {
                      std::memcpy(ga.data() + i * da,
                                  out->grad.data() + i * (da + db),
                                  sizeof(float) * da);
                    }
                    an->AccumulateGrad(std::move(ga));
                  }
                  if (bn->requires_grad) {
                    Tensor gb({n, db});
                    for (int64_t i = 0; i < n; ++i) {
                      std::memcpy(gb.data() + i * db,
                                  out->grad.data() + i * (da + db) + da,
                                  sizeof(float) * db);
                    }
                    bn->AccumulateGrad(std::move(gb));
                  }
                });
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  auto an = a.node();
  auto bn = b.node();
  const int64_t na = a.value().dim(0);
  const int64_t nb = b.value().dim(0);
  return MakeOp(OpId::kConcatRows, embsr::ConcatRows(a.value(), b.value()), {a, b},
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
  // The backward reads the rows from the node's own parent list, which
  // MakeOp records (in row order) only when the output requires grad.
  return MakeOp(OpId::kStackRows, std::move(out),
                std::span<const Variable>(rows), [](Node* o) {
    for (size_t i = 0; i < o->parents.size(); ++i) {
      Node* p = o->parents[i].get();
      if (!p->requires_grad) continue;
      Tensor g = o->grad.SliceRows(static_cast<int64_t>(i),
                                   static_cast<int64_t>(i) + 1);
      // lint: allow(raw-resize): same-count rank fixup, copies
      p->AccumulateGrad(g.Reshape(p->value.shape()));
    }
  });
}

Variable SliceRows(const Variable& a, int64_t begin, int64_t end) {
  auto an = a.node();
  return MakeOp(OpId::kSliceRows, a.value().SliceRows(begin, end), {a},
                [an, begin, end](Node* out) {
                  if (!an->requires_grad) return;
                  Tensor ga(an->value.shape());
                  const int64_t d = ga.ndim() == 2 ? ga.dim(1) : 1;
                  std::memcpy(ga.data() + begin * d, out->grad.data(),
                              sizeof(float) * (end - begin) * d);
                  an->AccumulateGrad(std::move(ga));
                });
}

Variable Row(const Variable& a, int64_t r) { return SliceRows(a, r, r + 1); }

Variable GatherRows(const Variable& table,
                    const std::vector<int64_t>& indices) {
  auto tn = table.node();
  return MakeOp(OpId::kGatherRows, embsr::GatherRows(table.value(), indices), {table},
                [tn, indices](Node* out) {
                  if (!tn->requires_grad) return;
                  Tensor gt(tn->value.shape());
                  embsr::ScatterAddRows(out->grad, indices, &gt);
                  tn->AccumulateGrad(std::move(gt));
                });
}

Variable SelectRowsByMask(const Variable& a, const Variable& b,
                          const Tensor& mask) {
  Tensor y = embsr::SelectRowsByMask(a.value(), b.value(), mask);
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(OpId::kSelectRowsByMask, std::move(y), {a, b},
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
  return MakeOp(OpId::kSegmentSumRows, std::move(y), {a},
                [an, segments](Node* out) {
                  if (!an->requires_grad) return;
                  an->AccumulateGrad(embsr::GatherRows(out->grad, segments));
                });
}

Variable RowSoftmaxMasked(const Variable& a, const Tensor& mask) {
  Tensor y = embsr::RowSoftmaxMasked(a.value(), mask);
  auto an = a.node();
  return MakeOp(OpId::kRowSoftmaxMasked, y, {a}, [an](Node* out) {
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
    an->AccumulateGrad(std::move(ga));
  });
}

Variable SumAll(const Variable& a) {
  auto an = a.node();
  return MakeOp(OpId::kSumAll, embsr::SumAll(a.value()), {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    an->AccumulateGrad(Tensor::Full(an->value.shape(), out->grad.at(0)));
  });
}

Variable SumRowsTo1xD(const Variable& a) {
  auto an = a.node();
  return MakeOp(OpId::kSumRowsTo1xD, embsr::SumRowsTo1xD(a.value()), {a}, [an](Node* out) {
    if (!an->requires_grad) return;
    const int64_t n = an->value.dim(0), d = an->value.dim(1);
    Tensor ga({n, d});
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(ga.data() + i * d, out->grad.data(), sizeof(float) * d);
    }
    an->AccumulateGrad(std::move(ga));
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
  return MakeOp(OpId::kRepeatRow, std::move(out), {a}, [an](Node* o) {
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
  return MakeOp(OpId::kL2NormalizeRowsOp, y, {a}, [an](Node* out) {
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
    an->AccumulateGrad(std::move(ga));
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
  return MakeOp(OpId::kLayerNormRows, std::move(y), {a},
                [an, inv_std = std::move(inv_std), n, d](Node* out) {
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
    an->AccumulateGrad(std::move(ga));
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
  return MakeOp(OpId::kDropout, std::move(out), {a},
                [an, mask = std::move(mask)](Node* o) {
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
  return MakeOp(OpId::kSoftmaxCrossEntropy, Tensor::Scalar(static_cast<float>(loss)), {logits},
                [ln, probs = std::move(probs), targets, n, c](Node* out) {
                  if (!ln->requires_grad) return;
                  const float g0 = out->grad.at(0) / static_cast<float>(n);
                  Tensor ga = probs;
                  for (int64_t i = 0; i < n; ++i) {
                    ga.at2(i, targets[i]) -= 1.0f;
                  }
                  ga.ScaleInPlace(g0);
                  ln->AccumulateGrad(std::move(ga));
                });
}

// ---- The op table: one OpDef per op above ---------------------------------
//
// Shape rules, cost models and gradcheck cases, then the table itself. It
// sits below the op functions, and MakeOp reaches it through OpTable():
// with these ~500 lines above them, the op functions' code moved and
// perfbench eval-zoo ran 16% slower (median of 10 A/B pairs on a shared
// 4-vCPU x86-64 host).

namespace {

using Shape = std::vector<int64_t>;
using Leaves = std::vector<Variable>;
using Tensors = std::vector<Tensor>;

// ---- Shape rules ------------------------------------------------------------
//
// A rule sees one recorded node (output value + parent values, in
// op-argument order) and re-derives the output shape, or, when an op
// attribute is invisible to the graph (slice bounds, gather indices, repeat
// counts), checks every bound the attribute cannot break.

std::string ShapeStr(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

const Shape& Out(const Node& n) { return n.value.shape(); }

const Shape& In(const Node& n, size_t i) { return n.parents[i]->value.shape(); }

std::string Fail(const Node& n, const std::string& why) {
  std::ostringstream out;
  out << "op '" << n.def->name << "' output " << ShapeStr(Out(n))
      << " vs inputs (";
  for (size_t i = 0; i < n.parents.size(); ++i) {
    if (i > 0) out << ", ";
    out << ShapeStr(In(n, i));
  }
  out << "): " << why;
  return out.str();
}

std::string WantArity(const Node& n, size_t k) {
  if (n.parents.size() == k) return "";
  std::ostringstream out;
  out << "expected " << k << " input(s), node has " << n.parents.size();
  return Fail(n, out.str());
}

bool Rank2(const Shape& s) { return s.size() == 2; }

/// Rows treated as a [1, d] or rank-1 [d] vector; -1 if neither.
int64_t RowWidth(const Shape& s) {
  if (s.size() == 1) return s[0];
  if (s.size() == 2 && s[0] == 1) return s[1];
  return -1;
}

/// out shape identical to input 0 (unary elementwise and friends).
std::string SameAsInput(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  if (Out(n) != In(n, 0)) return Fail(n, "output must match the input shape");
  return "";
}

/// Row-wise normalizations: SameAsInput on a rank-2 tensor.
std::string SameAsInputRank2(const Node& n) {
  if (std::string e = SameAsInput(n); !e.empty()) return e;
  if (!Rank2(Out(n))) return Fail(n, "output must be rank 2");
  return "";
}

/// out shape identical to both inputs (binary elementwise).
std::string SameShapeBinary(const Node& n) {
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (In(n, 0) != In(n, 1)) return Fail(n, "input shapes must match");
  if (Out(n) != In(n, 0)) return Fail(n, "output must match the input shape");
  return "";
}

/// a: [n, d]; row: width d; out == a.
std::string RowBroadcast(const Node& n) {
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (!Rank2(In(n, 0))) return Fail(n, "input 0 must be rank 2");
  if (RowWidth(In(n, 1)) != In(n, 0)[1]) {
    return Fail(n, "row width must equal input 0's column count");
  }
  if (Out(n) != In(n, 0)) return Fail(n, "output must match input 0's shape");
  return "";
}

std::string MulColBroadcastShape(const Node& n) {
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (!Rank2(In(n, 0))) return Fail(n, "input 0 must be rank 2");
  if (In(n, 1) != Shape{In(n, 0)[0], 1}) {
    return Fail(n, "input 1 must be [input 0 rows, 1]");
  }
  if (Out(n) != In(n, 0)) return Fail(n, "output must match input 0's shape");
  return "";
}

std::string MatMulShape(const Node& n) {
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (!Rank2(In(n, 0)) || !Rank2(In(n, 1))) {
    return Fail(n, "both inputs must be rank 2");
  }
  if (In(n, 0)[1] != In(n, 1)[0]) return Fail(n, "inner dimensions must agree");
  if (Out(n) != Shape{In(n, 0)[0], In(n, 1)[1]}) {
    return Fail(n, "output must be [input 0 rows, input 1 cols]");
  }
  return "";
}

std::string ScoreItemsShape(const Node& n) {  // [n, k] x [m, k]^T
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (!Rank2(In(n, 0)) || !Rank2(In(n, 1))) {
    return Fail(n, "both inputs must be rank 2");
  }
  if (In(n, 0)[1] != In(n, 1)[1]) return Fail(n, "row widths must agree");
  if (Out(n) != Shape{In(n, 0)[0], In(n, 1)[0]}) {
    return Fail(n, "output must be [input 0 rows, input 1 rows]");
  }
  return "";
}

std::string TransposeShape(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  if (!Rank2(In(n, 0))) return Fail(n, "input must be rank 2");
  if (Out(n) != Shape{In(n, 0)[1], In(n, 0)[0]}) {
    return Fail(n, "output must be the transposed input shape");
  }
  return "";
}

std::string ConcatColsShape(const Node& n) {
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (!Rank2(In(n, 0)) || !Rank2(In(n, 1))) {
    return Fail(n, "both inputs must be rank 2");
  }
  if (In(n, 0)[0] != In(n, 1)[0]) return Fail(n, "row counts must agree");
  if (Out(n) != Shape{In(n, 0)[0], In(n, 0)[1] + In(n, 1)[1]}) {
    return Fail(n, "output must be [rows, cols0 + cols1]");
  }
  return "";
}

std::string ConcatRowsShape(const Node& n) {
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (!Rank2(In(n, 0)) || !Rank2(In(n, 1))) {
    return Fail(n, "both inputs must be rank 2");
  }
  if (In(n, 0)[1] != In(n, 1)[1]) return Fail(n, "column counts must agree");
  if (Out(n) != Shape{In(n, 0)[0] + In(n, 1)[0], In(n, 0)[1]}) {
    return Fail(n, "output must be [rows0 + rows1, cols]");
  }
  return "";
}

std::string StackRowsShape(const Node& n) {
  if (n.parents.empty()) return Fail(n, "expected at least one input");
  const int64_t d = RowWidth(In(n, 0));
  if (d < 0) return Fail(n, "inputs must be [1, d] or rank-1 rows");
  for (size_t i = 1; i < n.parents.size(); ++i) {
    if (RowWidth(In(n, i)) != d) {
      return Fail(n, "all rows must share one width");
    }
  }
  if (Out(n) != Shape{static_cast<int64_t>(n.parents.size()), d}) {
    return Fail(n, "output must be [row count, row width]");
  }
  return "";
}

// Slice bounds are op attributes the node does not carry, so the rule is
// bounded rather than exact: column-preserving, never more rows than the
// input.
std::string SliceRowsShape(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  if (Rank2(In(n, 0))) {
    if (!Rank2(Out(n)) || Out(n)[1] != In(n, 0)[1]) {
      return Fail(n, "output must keep the input's column count");
    }
    if (Out(n)[0] < 1 || Out(n)[0] > In(n, 0)[0]) {
      return Fail(n, "output rows must be in [1, input rows]");
    }
    return "";
  }
  if (prof::NumElems(Out(n)) < 1 ||
      prof::NumElems(Out(n)) > prof::NumElems(In(n, 0))) {
    return Fail(n, "output cannot outsize the input");
  }
  return "";
}

// Gather indices are invisible; the row count is whatever was asked for.
std::string GatherRowsShape(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  if (!Rank2(In(n, 0))) return Fail(n, "table must be rank 2");
  if (!Rank2(Out(n)) || Out(n)[1] != In(n, 0)[1]) {
    return Fail(n, "output must keep the table's column count");
  }
  if (Out(n)[0] < 1) return Fail(n, "output must gather at least one row");
  return "";
}

// The mask is an op attribute (invisible here); both inputs and the output
// must agree exactly.
std::string SelectRowsByMaskShape(const Node& n) {
  if (std::string e = WantArity(n, 2); !e.empty()) return e;
  if (!Rank2(Out(n))) return Fail(n, "output must be rank 2");
  if (Out(n) != In(n, 0) || Out(n) != In(n, 1)) {
    return Fail(n, "output must match both input shapes");
  }
  return "";
}

// Segment ids are invisible; the segment count is whatever was asked for,
// but the column width must survive the reduction.
std::string SegmentSumRowsShape(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  if (!Rank2(In(n, 0))) return Fail(n, "input must be rank 2");
  if (!Rank2(Out(n)) || Out(n)[1] != In(n, 0)[1]) {
    return Fail(n, "output must keep the input's column count");
  }
  if (Out(n)[0] < 1) return Fail(n, "output must have at least one segment");
  return "";
}

std::string RepeatRowShape(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  const int64_t d = RowWidth(In(n, 0));
  if (d < 0) return Fail(n, "input must be a [1, d] row");
  if (!Rank2(Out(n)) || Out(n)[1] != d || Out(n)[0] < 1) {
    return Fail(n, "output must be [n >= 1, input width]");
  }
  return "";
}

std::string ScalarOutput(const Node& n) {
  if (prof::NumElems(Out(n)) != 1) return Fail(n, "output must be a scalar");
  return "";
}

std::string SumAllShape(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  return ScalarOutput(n);
}

std::string SumRowsTo1xDShape(const Node& n) {  // [n, d] -> [1, d]
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  if (!Rank2(In(n, 0))) return Fail(n, "input must be rank 2");
  if (Out(n) != Shape{1, In(n, 0)[1]}) {
    return Fail(n, "output must be [1, input cols]");
  }
  return "";
}

std::string SoftmaxCrossEntropyShape(const Node& n) {
  if (std::string e = WantArity(n, 1); !e.empty()) return e;
  if (!Rank2(In(n, 0))) return Fail(n, "logits must be rank 2");
  return ScalarOutput(n);
}

// ---- Cost models ------------------------------------------------------------
//
// Contract (DESIGN.md §13): flops counts arithmetic operations (one
// multiply-add = 2), transcendentals (exp/tanh/log/...) are charged a flat
// 4 flops/element, and bytes assume every operand is streamed exactly once —
// a traffic lower bound, not a cache model. Multi-pass reductions (softmax,
// layernorm) charge one flop per element per pass.

using prof::OpCost;
using prof::ShapeInfo;

constexpr double kB = 4.0;  // bytes per float32 element

double OutElems(const ShapeInfo& s) {
  return static_cast<double>(prof::NumElems(s.output));
}

double InElems(const ShapeInfo& s, size_t i) {
  return static_cast<double>(prof::NumElems(s.inputs[i]));
}

double AllInElems(const ShapeInfo& s) {
  double n = 0.0;
  for (const auto& shape : s.inputs) {
    n += static_cast<double>(prof::NumElems(shape));
  }
  return n;
}

/// Trailing dimension of the output ([ ] -> 1).
double OutLastDim(const ShapeInfo& s) {
  return s.output.empty() ? 1.0 : static_cast<double>(s.output.back());
}

/// One flop per output element over every input (elementwise, broadcasts).
OpCost ElementwiseCost(const ShapeInfo& s) {
  return {OutElems(s), kB * AllInElems(s), kB * OutElems(s)};
}

OpCost UnaryCost(const ShapeInfo& s) {
  return {OutElems(s), kB * InElems(s, 0), kB * OutElems(s)};
}

OpCost TranscendentalCost(const ShapeInfo& s) {
  return {4.0 * OutElems(s), kB * InElems(s, 0), kB * OutElems(s)};
}

// MatMul [n,k]x[k,m] and ScoreItems [n,k]x[m,k]^T: 2nkm flops (n*k input
// elements each fused multiply-added across the m output columns).
OpCost MatMulCost(const ShapeInfo& s) {
  return {2.0 * InElems(s, 0) * OutLastDim(s), kB * AllInElems(s),
          kB * OutElems(s)};
}

/// Pure copy that reads all of input 0.
OpCost CopyInputCost(const ShapeInfo& s) {
  return {0.0, kB * InElems(s, 0), kB * OutElems(s)};
}

/// Pure copy that reads every input.
OpCost ConcatCost(const ShapeInfo& s) {
  return {0.0, kB * AllInElems(s), kB * OutElems(s)};
}

// Slices and embedding gathers touch only the selected rows, so traffic is
// proportional to the *output*, not the input.
OpCost CopyOutputCost(const ShapeInfo& s) {
  return {0.0, kB * OutElems(s), kB * OutElems(s)};
}

// Row select: pure copies; reads one source row per output row plus the
// [n, 1] mask column.
OpCost SelectRowsByMaskCost(const ShapeInfo& s) {
  return {0.0, kB * (OutElems(s) + OutElems(s) / OutLastDim(s)),
          kB * OutElems(s)};
}

/// One add per input element (sums, segment sums).
OpCost ReduceCost(const ShapeInfo& s) {
  return {InElems(s, 0), kB * InElems(s, 0), kB * OutElems(s)};
}

// Softmax: max + subtract + exp(4) + sum + divide = 8 passes-worth.
OpCost SoftmaxCost(const ShapeInfo& s) {
  return {8.0 * OutElems(s), kB * InElems(s, 0), kB * OutElems(s)};
}

// L2 normalize: square-accumulate (2n) + divide (n).
OpCost L2NormalizeCost(const ShapeInfo& s) {
  return {3.0 * OutElems(s), kB * InElems(s, 0), kB * OutElems(s)};
}

// LayerNorm: mean (n) + centered variance (2n) + subtract (n) + scale (n).
OpCost LayerNormCost(const ShapeInfo& s) {
  return {5.0 * OutElems(s), kB * InElems(s, 0), kB * OutElems(s)};
}

// Fused softmax (8 passes) + log-likelihood pick + reduce (~1 pass).
OpCost SoftmaxCrossEntropyCost(const ShapeInfo& s) {
  return {9.0 * InElems(s, 0), kB * InElems(s, 0), kB * OutElems(s)};
}

// ---- Gradcheck inputs -------------------------------------------------------
//
// Small shapes, value ranges kept clear of each op's non-differentiable
// points, and attributes (in the table's apply functions) that reach the
// backward's edge cases.

Tensor Rand(Shape shape, Rng* rng, float lo = -1.0f, float hi = 1.0f) {
  return Tensor::RandUniform(std::move(shape), lo, hi, rng);
}

/// Random values bounded away from zero (for kinked ops like Relu: the
/// central-difference step must not cross the kink).
Tensor RandAwayFromZero(Shape shape, Rng* rng, float min_mag = 0.2f,
                        float max_mag = 1.0f) {
  Tensor t = Rand(std::move(shape), rng, min_mag, max_mag);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (rng->Bernoulli(0.5)) t.data()[i] = -t.data()[i];
  }
  return t;
}

Tensors Matrix(Rng* r) { return {Rand({3, 4}, r)}; }
Tensors TwoMatrices(Rng* r) { return {Rand({3, 4}, r), Rand({3, 4}, r)}; }
Tensors MatrixAndRow(Rng* r) { return {Rand({3, 4}, r), Rand({1, 4}, r)}; }
Tensors MatrixAndCol(Rng* r) { return {Rand({3, 4}, r), Rand({3, 1}, r)}; }
Tensors SixRows(Rng* r) { return {Rand({6, 3}, r)}; }
Tensors OneRow(Rng* r) { return {Rand({1, 4}, r)}; }

// ---- The table --------------------------------------------------------------

constexpr OpDef kOpTable[] = {
    {OpId::kAdd, "Add", SameShapeBinary, ElementwiseCost,
     {TwoMatrices, [](const Leaves& l) { return Add(l[0], l[1]); }}},
    {OpId::kMul, "Mul", SameShapeBinary, ElementwiseCost,
     {TwoMatrices, [](const Leaves& l) { return Mul(l[0], l[1]); }}},
    {OpId::kAddRowBroadcast, "AddRowBroadcast", RowBroadcast, ElementwiseCost,
     {MatrixAndRow,
      [](const Leaves& l) { return AddRowBroadcast(l[0], l[1]); }}},
    {OpId::kMulRowBroadcast, "MulRowBroadcast", RowBroadcast, ElementwiseCost,
     {MatrixAndRow,
      [](const Leaves& l) { return MulRowBroadcast(l[0], l[1]); }}},
    {OpId::kMulColBroadcast, "MulColBroadcast", MulColBroadcastShape,
     ElementwiseCost,
     {MatrixAndCol,
      [](const Leaves& l) { return MulColBroadcast(l[0], l[1]); }}},
    {OpId::kScale, "Scale", SameAsInput, UnaryCost,
     {Matrix, [](const Leaves& l) { return Scale(l[0], -1.7f); }}},
    {OpId::kAddScalar, "AddScalar", SameAsInput, UnaryCost,
     {Matrix, [](const Leaves& l) { return AddScalar(l[0], 0.37f); }}},
    {OpId::kMatMul, "MatMul", MatMulShape, MatMulCost,
     {[](Rng* r) -> Tensors { return {Rand({3, 4}, r), Rand({4, 2}, r)}; },
      [](const Leaves& l) { return MatMul(l[0], l[1]); }}},
    {OpId::kScoreItems, "ScoreItems", ScoreItemsShape, MatMulCost,
     {[](Rng* r) -> Tensors { return {Rand({3, 4}, r), Rand({5, 4}, r)}; },
      [](const Leaves& l) { return ScoreItems(l[0], l[1]); }}},
    {OpId::kTranspose, "Transpose", TransposeShape, CopyInputCost,
     {Matrix, [](const Leaves& l) { return Transpose(l[0]); }}},
    {OpId::kSigmoid, "Sigmoid", SameAsInput, TranscendentalCost,
     {[](Rng* r) -> Tensors { return {Rand({3, 4}, r, -2.0f, 2.0f)}; },
      [](const Leaves& l) { return Sigmoid(l[0]); }}},
    {OpId::kTanh, "Tanh", SameAsInput, TranscendentalCost,
     {[](Rng* r) -> Tensors { return {Rand({3, 4}, r, -2.0f, 2.0f)}; },
      [](const Leaves& l) { return Tanh(l[0]); }}},
    {OpId::kRelu, "Relu", SameAsInput, UnaryCost,
     {[](Rng* r) -> Tensors { return {RandAwayFromZero({3, 4}, r)}; },
      [](const Leaves& l) { return Relu(l[0]); }}},
    {OpId::kConcatCols, "ConcatCols", ConcatColsShape, ConcatCost,
     {[](Rng* r) -> Tensors { return {Rand({3, 2}, r), Rand({3, 3}, r)}; },
      [](const Leaves& l) { return ConcatCols(l[0], l[1]); }}},
    {OpId::kConcatRows, "ConcatRows", ConcatRowsShape, ConcatCost,
     {[](Rng* r) -> Tensors { return {Rand({2, 4}, r), Rand({3, 4}, r)}; },
      [](const Leaves& l) { return ConcatRows(l[0], l[1]); }}},
    {OpId::kStackRows, "StackRows", StackRowsShape, ConcatCost,
     {[](Rng* r) -> Tensors {
        return {Rand({1, 4}, r), Rand({1, 4}, r), Rand({1, 4}, r)};
      },
      [](const Leaves& l) { return StackRows(l); }}},
    {OpId::kSliceRows, "SliceRows", SliceRowsShape, CopyOutputCost,
     {[](Rng* r) -> Tensors { return {Rand({5, 3}, r)}; },
      [](const Leaves& l) { return SliceRows(l[0], 1, 4); }}},
    // Repeated index 2 exercises the scatter-add accumulation in backward.
    {OpId::kGatherRows, "GatherRows", GatherRowsShape, CopyOutputCost,
     {SixRows, [](const Leaves& l) { return GatherRows(l[0], {0, 2, 2, 5}); }}},
    // Mixed mask: rows 0/2/4 select from a, rows 1/3 from b — each leaf
    // must see gradient only on its selected rows and exact zero elsewhere.
    {OpId::kSelectRowsByMask, "SelectRowsByMask", SelectRowsByMaskShape,
     SelectRowsByMaskCost,
     {[](Rng* r) -> Tensors { return {Rand({5, 3}, r), Rand({5, 3}, r)}; },
      [](const Leaves& l) {
        return SelectRowsByMask(l[0], l[1], Tensor({5, 1}, {1, 0, 1, 0, 1}));
      }}},
    // Ragged contiguous segments with segment 3 empty: its output row (and
    // the gathered backward) must be exactly zero.
    {OpId::kSegmentSumRows, "SegmentSumRows", SegmentSumRowsShape, ReduceCost,
     {SixRows,
      [](const Leaves& l) {
        return SegmentSumRows(l[0], {0, 0, 1, 2, 2, 2}, 4);
      }}},
    // Row 0 partially masked, row 1 fully visible, row 2 fully masked (its
    // output and gradient must both be exactly zero).
    {OpId::kRowSoftmaxMasked, "RowSoftmaxMasked", SameAsInputRank2,
     SoftmaxCost,
     {Matrix,
      [](const Leaves& l) {
        return RowSoftmaxMasked(l[0], Tensor({3, 4}, {1, 0, 1, 0,  //
                                                      1, 1, 1, 1,  //
                                                      0, 0, 0, 0}));
      }}},
    {OpId::kSumAll, "SumAll", SumAllShape, ReduceCost,
     {Matrix, [](const Leaves& l) { return SumAll(l[0]); }}},
    {OpId::kSumRowsTo1xD, "SumRowsTo1xD", SumRowsTo1xDShape, ReduceCost,
     {Matrix, [](const Leaves& l) { return SumRowsTo1xD(l[0]); }}},
    {OpId::kRepeatRow, "RepeatRow", RepeatRowShape, CopyInputCost,
     {OneRow, [](const Leaves& l) { return RepeatRow(l[0], 3); }}},
    // Rows bounded away from zero norm: the op leaves zero rows zero, a
    // non-differentiable special case the checker must not straddle.
    {OpId::kL2NormalizeRowsOp, "L2NormalizeRowsOp", SameAsInput,
     L2NormalizeCost,
     {[](Rng* r) -> Tensors {
        return {RandAwayFromZero({3, 4}, r, 0.4f, 1.2f)};
      },
      [](const Leaves& l) { return L2NormalizeRowsOp(l[0]); }}},
    {OpId::kLayerNormRows, "LayerNormRows", SameAsInputRank2, LayerNormCost,
     {[](Rng* r) -> Tensors { return {Rand({3, 6}, r)}; },
      [](const Leaves& l) { return LayerNormRows(l[0]); }}},
    // A fresh identically-seeded Rng per call: the mask is part of the
    // function, so the loss stays a pure function of the leaves.
    {OpId::kDropout, "Dropout", SameAsInput, UnaryCost,
     {Matrix,
      [](const Leaves& l) {
        Rng mask_rng(kGradCheckSeed + 1);
        return Dropout(l[0], 0.3f, /*training=*/true, &mask_rng);
      }}},
    {OpId::kSoftmaxCrossEntropy, "SoftmaxCrossEntropy",
     SoftmaxCrossEntropyShape, SoftmaxCrossEntropyCost,
     {[](Rng* r) -> Tensors { return {Rand({3, 5}, r)}; },
      [](const Leaves& l) { return SoftmaxCrossEntropy(l[0], {1, 4, 2}); }}},
};

// Coverage by construction: an op cannot be added, reordered or left
// without a shape rule, cost or gradcheck and still compile.
static_assert(std::size(kOpTable) == static_cast<size_t>(OpId::kCount),
              "kOpTable needs exactly one entry per OpId");
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kOpTable); ++i) {
        if (kOpTable[i].id != static_cast<OpId>(i)) return false;
      }
      return true;
    }(),
    "kOpTable entries must follow OpId order");
static_assert(
    [] {
      for (const OpDef& d : kOpTable) {
        if (d.name == nullptr || d.shape_rule == nullptr ||
            d.cost == nullptr || d.gradcheck.inputs == nullptr ||
            d.gradcheck.apply == nullptr) {
          return false;
        }
      }
      return true;
    }(),
    "every kOpTable entry needs a name, shape rule, cost and gradcheck");

}  // namespace

std::span<const OpDef> OpTable() { return kOpTable; }

}  // namespace ag
}  // namespace embsr
