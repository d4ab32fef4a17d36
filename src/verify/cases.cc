#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "nn/layers.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "verify/gradcheck.h"

namespace embsr {
namespace verify {

namespace {

// Fixed seeds keep every case a pure function: the same values, masks and
// weights on every run, so a tolerance that passes once passes forever.
constexpr uint64_t kCaseSeed = ag::kGradCheckSeed;

Tensor Rand(std::vector<int64_t> shape, Rng* rng, float lo = -1.0f,
            float hi = 1.0f) {
  return Tensor::RandUniform(std::move(shape), lo, hi, rng);
}

/// Weighted sum with fixed random weights: reduces any tensor to a scalar
/// while giving every output element a distinct outgoing gradient, so a
/// backward bug in one element cannot cancel against another.
ag::Variable WeightedSum(const ag::Variable& v, const Tensor& weights) {
  return ag::SumAll(ag::Mul(v, ag::Constant(weights)));
}

ag::Variable Leaf(const Tensor& t) { return ag::Variable(t, true); }

// ---- Composite cases --------------------------------------------------------
//
// The ops.h functions that lower to table ops (Neg -> Scale, Row ->
// SliceRows, MeanRowsTo1xD -> Scale(SumRowsTo1xD)) build no node of their
// own, so they have no table entry; these cases check each lowering end to
// end.

GradCheckResult CaseNeg() {
  Rng rng(kCaseSeed);
  std::vector<ag::Variable> leaves = {Leaf(Rand({3, 4}, &rng))};
  const Tensor w = Rand({3, 4}, &rng);
  return CheckGradients(
      [w](const std::vector<ag::Variable>& l) {
        return WeightedSum(ag::Neg(l[0]), w);
      },
      leaves);
}

GradCheckResult CaseRow() {
  Rng rng(kCaseSeed);
  std::vector<ag::Variable> leaves = {Leaf(Rand({4, 3}, &rng))};
  const Tensor w = Rand({1, 3}, &rng);
  return CheckGradients(
      [w](const std::vector<ag::Variable>& l) {
        return WeightedSum(ag::Row(l[0], 2), w);
      },
      leaves);
}

GradCheckResult CaseMeanRowsTo1xD() {
  Rng rng(kCaseSeed);
  std::vector<ag::Variable> leaves = {Leaf(Rand({3, 4}, &rng))};
  const Tensor w = Rand({1, 4}, &rng);
  return CheckGradients(
      [w](const std::vector<ag::Variable>& l) {
        return WeightedSum(ag::MeanRowsTo1xD(l[0]), w);
      },
      leaves);
}

// ---- Layer cases ------------------------------------------------------------
//
// One case per class in nn/layers.h, named identically. Parameters come from
// the module itself (CheckModuleGradients); inputs are fixed constants. A
// tanh (or the layer's own nonlinearity) sits between layer output and the
// weighted sum so parameter gradients pass through curvature, not just a
// linear readout.

GradCheckResult CaseLinear() {
  Rng rng(kCaseSeed);
  nn::Linear layer(4, 3, &rng);
  const ag::Variable x = ag::Constant(Rand({2, 4}, &rng));
  const Tensor w = Rand({2, 3}, &rng);
  return CheckModuleGradients(layer, [&layer, &x, &w] {
    return WeightedSum(ag::Tanh(layer.Forward(x)), w);
  });
}

GradCheckResult CaseEmbedding() {
  Rng rng(kCaseSeed);
  nn::Embedding layer(7, 4, &rng);
  const std::vector<int64_t> indices = {1, 3, 3, 6};
  const Tensor w = Rand({4, 4}, &rng);
  return CheckModuleGradients(layer, [&layer, indices, &w] {
    return WeightedSum(ag::Tanh(layer.Forward(indices)), w);
  });
}

GradCheckResult CaseGRUCell() {
  Rng rng(kCaseSeed);
  nn::GRUCell cell(3, 5, &rng);
  const ag::Variable x = ag::Constant(Rand({2, 3}, &rng));
  const ag::Variable h = ag::Constant(Rand({2, 5}, &rng));
  const Tensor w = Rand({2, 5}, &rng);
  return CheckModuleGradients(cell, [&cell, &x, &h, &w] {
    return WeightedSum(cell.Forward(x, h), w);
  });
}

GradCheckResult CaseGRU() {
  Rng rng(kCaseSeed);
  nn::GRU gru(3, 4, &rng);
  const ag::Variable xs = ag::Constant(Rand({4, 3}, &rng));
  const Tensor w = Rand({4, 4}, &rng);
  return CheckModuleGradients(gru, [&gru, &xs, &w] {
    return WeightedSum(gru.Forward(xs), w);
  });
}

GradCheckResult CaseLayerNorm() {
  Rng rng(kCaseSeed);
  nn::LayerNorm layer(6);
  const ag::Variable x = ag::Constant(Rand({3, 6}, &rng));
  const Tensor w = Rand({3, 6}, &rng);
  return CheckModuleGradients(layer, [&layer, &x, &w] {
    return WeightedSum(layer.Forward(x), w);
  });
}

GradCheckResult CaseFeedForward() {
  Rng rng(kCaseSeed);
  nn::FeedForward layer(4, 5, &rng);
  const ag::Variable x = ag::Constant(Rand({2, 4}, &rng));
  const Tensor w = Rand({2, 4}, &rng);
  return CheckModuleGradients(layer, [&layer, &x, &w] {
    return WeightedSum(layer.Forward(x), w);
  });
}

}  // namespace

GradCheckResult CheckOpGradients(const ag::OpDef& def) {
  Rng rng(kCaseSeed);
  std::vector<ag::Variable> leaves;
  for (const Tensor& t : def.gradcheck.inputs(&rng)) leaves.push_back(Leaf(t));
  const Tensor w = Rand(def.gradcheck.apply(leaves).value().shape(), &rng);
  return CheckGradients(
      [apply = def.gradcheck.apply, w](const std::vector<ag::Variable>& l) {
        return WeightedSum(apply(l), w);
      },
      leaves);
}

std::vector<GradCheckCase> BuiltinGradCheckCases() {
  return {
      {"composite", "Neg", &CaseNeg},
      {"composite", "Row", &CaseRow},
      {"composite", "MeanRowsTo1xD", &CaseMeanRowsTo1xD},
      {"layer", "Linear", &CaseLinear},
      {"layer", "Embedding", &CaseEmbedding},
      {"layer", "GRUCell", &CaseGRUCell},
      {"layer", "GRU", &CaseGRU},
      {"layer", "LayerNorm", &CaseLayerNorm},
      {"layer", "FeedForward", &CaseFeedForward},
  };
}

}  // namespace verify
}  // namespace embsr
