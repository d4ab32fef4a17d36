#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "autograd/op_def.h"
#include "test_util.h"

namespace embsr {
namespace {

using ag::Variable;
using embsr::testing::CheckGradients;

Variable Leaf(Tensor t) { return Variable(std::move(t), true); }

Tensor RandT(std::vector<int64_t> shape, uint64_t seed, float stddev = 0.7f) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), stddev, &rng);
}

TEST(AutogradBasics, BackwardOnScalarLeaf) {
  Variable x = Leaf(Tensor::Scalar(3.0f));
  x.Backward();
  EXPECT_FLOAT_EQ(x.GradOrZeros().at(0), 1.0f);
}

TEST(AutogradBasics, GradAccumulatesAcrossBackwardCalls) {
  Variable x = Leaf(Tensor::Scalar(2.0f));
  ag::Scale(x, 3.0f).Backward();
  ag::Scale(x, 3.0f).Backward();
  EXPECT_FLOAT_EQ(x.GradOrZeros().at(0), 6.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.GradOrZeros().at(0), 0.0f);
  EXPECT_FALSE(x.has_grad());
}

TEST(AutogradBasics, DiamondGraphSumsPaths) {
  // y = x*x + x  => dy/dx = 2x + 1.
  Variable x = Leaf(Tensor::Scalar(3.0f));
  Variable y = ag::Add(ag::Mul(x, x), x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.GradOrZeros().at(0), 7.0f);
}

TEST(AutogradBasics, NoGraphRecordedWithoutRequiresGrad) {
  Variable a = ag::Constant(Tensor::Scalar(1.0f));
  Variable b = ag::Constant(Tensor::Scalar(2.0f));
  Variable c = ag::Add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.node()->parents.empty());
}

TEST(AutogradBasics, SharedSubexpressionBackwardOnce) {
  // z = (x + x) * (x + x) -> dz/dx = 8x.
  Variable x = Leaf(Tensor::Scalar(1.5f));
  Variable s = ag::Add(x, x);
  Variable z = ag::Mul(s, s);
  z.Backward();
  EXPECT_FLOAT_EQ(x.GradOrZeros().at(0), 12.0f);
}

TEST(AutogradBasics, LongChainBackward) {
  Variable x = Leaf(Tensor::Scalar(1.0f));
  Variable y = x;
  for (int i = 0; i < 500; ++i) y = ag::Scale(y, 1.001f);
  y.Backward();
  EXPECT_NEAR(x.GradOrZeros().at(0), std::pow(1.001f, 500.0f), 1e-2);
}

// -- Finite-difference gradient checks per op --------------------------------------

TEST(GradCheck, AddSubMul) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        // a - b as Add(a, Neg(b)): Neg lowers to Scale(-1).
        return ag::SumAll(
            ag::Mul(ag::Add(v[0], v[1]), ag::Add(v[0], ag::Neg(v[1]))));
      },
      {Leaf(RandT({3, 4}, 1)), Leaf(RandT({3, 4}, 2))});
}

TEST(GradCheck, RowAndColBroadcasts) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable x = ag::AddRowBroadcast(v[0], v[1]);
        x = ag::MulRowBroadcast(x, v[2]);
        x = ag::MulColBroadcast(x, v[3]);
        return ag::SumAll(x);
      },
      {Leaf(RandT({3, 4}, 3)), Leaf(RandT({1, 4}, 4)),
       Leaf(RandT({1, 4}, 5)), Leaf(RandT({3, 1}, 6))});
}

TEST(GradCheck, MatMulAndTranspose) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::MatMul(v[0], ag::Transpose(v[1])));
      },
      {Leaf(RandT({2, 3}, 7)), Leaf(RandT({4, 3}, 8))});
}

TEST(GradCheck, Activations) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable x = ag::Sigmoid(v[0]);
        x = ag::Add(x, ag::Tanh(v[0]));
        return ag::SumAll(x);
      },
      {Leaf(RandT({2, 5}, 9))});
}

TEST(GradCheck, ReluAwayFromKink) {
  // Use inputs far from 0 so finite differences are valid.
  Tensor t({2, 2}, {1.0f, -1.0f, 2.0f, -0.5f});
  CheckGradients(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::Relu(v[0]));
      },
      {Leaf(t)});
}

TEST(GradCheck, ConcatAndSlice) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable c = ag::ConcatCols(v[0], v[1]);
        Variable r = ag::ConcatRows(v[0], v[0]);
        return ag::Add(ag::SumAll(ag::SliceRows(c, 0, 1)),
                       ag::SumAll(ag::Mul(r, r)));
      },
      {Leaf(RandT({2, 2}, 10)), Leaf(RandT({2, 3}, 11))});
}

TEST(GradCheck, StackRows) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable s = ag::StackRows({v[0], v[1], v[0]});
        return ag::SumAll(ag::Mul(s, s));
      },
      {Leaf(RandT({1, 3}, 12)), Leaf(RandT({1, 3}, 13))});
}

TEST(GradCheck, GatherRows) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable g = ag::GatherRows(v[0], {0, 2, 2, 1});
        return ag::SumAll(ag::Mul(g, g));
      },
      {Leaf(RandT({3, 3}, 14))});
}

TEST(GradCheck, RowSoftmaxMasked) {
  Tensor mask({2, 4}, {1, 1, 0, 1, 0, 1, 1, 1});
  CheckGradients(
      [mask](const std::vector<Variable>& v) {
        Variable s = ag::RowSoftmaxMasked(v[0], mask);
        Tensor w({2, 4});
        for (int64_t i = 0; i < w.size(); ++i) w.at(i) = 0.2f * (i + 1);
        return ag::SumAll(ag::Mul(s, ag::Constant(w)));
      },
      {Leaf(RandT({2, 4}, 16))});
}

TEST(GradCheck, Reductions) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable a = ag::SumRowsTo1xD(v[0]);
        Variable c = ag::MeanRowsTo1xD(v[0]);
        return ag::Add(ag::SumAll(ag::Mul(a, a)), ag::SumAll(c));
      },
      {Leaf(RandT({3, 2}, 17))});
}

TEST(GradCheck, RepeatRow) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable r = ag::RepeatRow(v[0], 4);
        return ag::SumAll(ag::Mul(r, r));
      },
      {Leaf(RandT({1, 3}, 18))});
}

TEST(GradCheck, L2NormalizeRows) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable n = ag::L2NormalizeRowsOp(v[0]);
        Tensor w({2, 3});
        for (int64_t i = 0; i < w.size(); ++i) w.at(i) = 0.3f * (i + 1);
        return ag::SumAll(ag::Mul(n, ag::Constant(w)));
      },
      {Leaf(RandT({2, 3}, 19, 1.0f))});
}

TEST(GradCheck, LayerNormRows) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable n = ag::LayerNormRows(v[0]);
        Tensor w({2, 4});
        for (int64_t i = 0; i < w.size(); ++i) w.at(i) = 0.15f * (i + 1);
        return ag::SumAll(ag::Mul(n, ag::Constant(w)));
      },
      {Leaf(RandT({2, 4}, 20, 1.0f))});
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  CheckGradients(
      [](const std::vector<Variable>& v) {
        return ag::SoftmaxCrossEntropy(v[0], {2, 0});
      },
      {Leaf(RandT({2, 5}, 21))});
}

// -- Semantics beyond gradients ------------------------------------------------------

TEST(AutogradOps, SoftmaxCrossEntropyValue) {
  // Uniform logits over C classes -> loss = log(C).
  Variable logits = Leaf(Tensor::Zeros({1, 4}));
  Variable loss = ag::SoftmaxCrossEntropy(logits, {1});
  EXPECT_NEAR(loss.value().at(0), std::log(4.0f), 1e-5);
}

TEST(AutogradOps, SoftmaxCrossEntropyGradientIsProbMinusOneHot) {
  Variable logits = Leaf(Tensor::Zeros({1, 4}));
  ag::SoftmaxCrossEntropy(logits, {1}).Backward();
  const Tensor g = logits.GradOrZeros();
  EXPECT_NEAR(g.at2(0, 0), 0.25f, 1e-5);
  EXPECT_NEAR(g.at2(0, 1), -0.75f, 1e-5);
}

TEST(AutogradOps, DropoutIdentityInEval) {
  Rng rng(22);
  Variable x = Leaf(RandT({4, 4}, 23));
  Variable y = ag::Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(y.value().AllClose(x.value()));
}

TEST(AutogradOps, DropoutPreservesExpectation) {
  Rng rng(24);
  Variable x = Leaf(Tensor::Ones({100, 100}));
  Variable y = ag::Dropout(x, 0.3f, /*training=*/true, &rng);
  const float mean =
      SumAll(y.value()).at(0) / static_cast<float>(y.value().size());
  EXPECT_NEAR(mean, 1.0f, 0.05f);
}

TEST(AutogradOps, DropoutZeroProbIsIdentity) {
  Rng rng(25);
  Variable x = Leaf(RandT({3, 3}, 26));
  Variable y = ag::Dropout(x, 0.0f, /*training=*/true, &rng);
  EXPECT_TRUE(y.value().AllClose(x.value()));
}

TEST(AutogradOps, LayerNormOutputStats) {
  Variable x = Leaf(RandT({5, 16}, 27, 3.0f));
  Variable y = ag::LayerNormRows(x);
  for (int64_t i = 0; i < 5; ++i) {
    double mean = 0, var = 0;
    for (int64_t j = 0; j < 16; ++j) mean += y.value().at2(i, j);
    mean /= 16;
    for (int64_t j = 0; j < 16; ++j) {
      const double c = y.value().at2(i, j) - mean;
      var += c * c;
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

// -- The op table ------------------------------------------------------------------
//
// ag::OpTable's static_assert already requires one complete entry per OpId,
// in order. These checks run each entry's shape rule and cost on the node
// its own gradcheck inputs build, so every rule sees real shapes.

/// The entry's op applied to its gradcheck inputs as requires_grad leaves,
/// so the node records its parents.
Variable BuildFromGradCheckInputs(const ag::OpDef& def) {
  Rng rng(ag::kGradCheckSeed);
  std::vector<Variable> leaves;
  for (Tensor& t : def.gradcheck.inputs(&rng)) leaves.push_back(Leaf(t));
  return def.gradcheck.apply(leaves);
}

TEST(OpTable, NamesAreUnique) {
  std::set<std::string> names;
  for (const ag::OpDef& def : ag::OpTable()) {
    EXPECT_TRUE(names.insert(def.name).second) << "duplicate " << def.name;
  }
}

TEST(OpTable, ShapeRuleAcceptsTheNodeItsGradCheckBuilds) {
  for (const ag::OpDef& def : ag::OpTable()) {
    const Variable out = BuildFromGradCheckInputs(def);
    EXPECT_EQ(out.node()->def, &def) << def.name;
    ASSERT_FALSE(out.node()->parents.empty()) << def.name;
    EXPECT_EQ(def.shape_rule(*out.node()), "") << def.name;
  }
}

TEST(OpTable, CostIsFiniteAndNonNegativeOnThatNode) {
  for (const ag::OpDef& def : ag::OpTable()) {
    const Variable out = BuildFromGradCheckInputs(def);
    prof::ShapeInfo shapes;
    shapes.output = out.value().shape();
    for (const auto& parent : out.node()->parents) {
      shapes.inputs.push_back(parent->value.shape());
    }
    const prof::OpCost c = def.cost(shapes);
    for (double v : {c.flops, c.bytes_read, c.bytes_written}) {
      EXPECT_TRUE(std::isfinite(v) && v >= 0.0) << def.name << ": " << v;
    }
  }
}

}  // namespace
}  // namespace embsr
