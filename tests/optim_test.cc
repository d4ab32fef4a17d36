#include "optim/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"

namespace embsr {
namespace {

using ag::Variable;

Variable QuadraticLoss(const Variable& x, const Tensor& target) {
  Variable diff = ag::Add(x, ag::Neg(ag::Constant(target)));
  return ag::SumAll(ag::Mul(diff, diff));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Variable x(Tensor({3}, {5.0f, -4.0f, 2.0f}), true);
  const Tensor target({3}, {1.0f, 1.0f, 1.0f});
  optim::Adam opt({x}, /*lr=*/0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    QuadraticLoss(x, target).Backward();
    opt.Step();
  }
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(x.value().at(i), 1.0f, 1e-2);
}

TEST(AdamTest, FirstStepSizeIsLr) {
  // With bias correction, the very first Adam step has magnitude ~lr.
  Variable x(Tensor({1}, {10.0f}), true);
  optim::Adam opt({x}, 0.5f);
  ag::Scale(x, 3.0f).Backward();  // any nonzero gradient
  opt.Step();
  EXPECT_NEAR(x.value().at(0), 10.0f - 0.5f, 1e-4);
}

TEST(AdamTest, SkipsParametersWithoutGrad) {
  Variable x(Tensor({1}, {5.0f}), true);
  Variable y(Tensor({1}, {5.0f}), true);
  optim::Adam opt({x, y}, 0.1f);
  ag::Scale(x, 1.0f).Backward();  // only x gets a gradient
  opt.Step();
  EXPECT_LT(x.value().at(0), 5.0f);
  EXPECT_FLOAT_EQ(y.value().at(0), 5.0f);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Variable a(Tensor({1}, {2.0f}), true);
  Variable b(Tensor({1}, {2.0f}), true);
  optim::Adam no_decay({a}, 0.01f, 0.9f, 0.999f, 1e-8f, 0.0f);
  optim::Adam decay({b}, 0.01f, 0.9f, 0.999f, 1e-8f, 0.5f);
  for (int i = 0; i < 50; ++i) {
    no_decay.ZeroGrad();
    decay.ZeroGrad();
    // Zero data gradient: only decay acts.
    ag::Scale(a, 0.0f).Backward();
    ag::Scale(b, 0.0f).Backward();
    no_decay.Step();
    decay.Step();
  }
  EXPECT_NEAR(a.value().at(0), 2.0f, 1e-5);
  EXPECT_LT(b.value().at(0), 2.0f);
}

TEST(ClipGradNormTest, NoOpBelowThreshold) {
  Variable x(Tensor({2}, {1.0f, 1.0f}), true);
  ag::SumAll(x).Backward();  // grad = (1, 1), norm sqrt(2)
  const float norm = optim::ClipGradNorm({x}, 10.0f);
  EXPECT_NEAR(norm, std::sqrt(2.0f), 1e-5);
  EXPECT_NEAR(x.GradOrZeros().at(0), 1.0f, 1e-6);
}

TEST(ClipGradNormTest, RescalesAboveThreshold) {
  Variable x(Tensor({2}, {1.0f, 1.0f}), true);
  ag::Scale(ag::SumAll(x), 100.0f).Backward();  // grad = (100, 100)
  optim::ClipGradNorm({x}, 1.0f);
  const Tensor g = x.GradOrZeros();
  EXPECT_NEAR(g.L2Norm(), 1.0f, 1e-4);
  EXPECT_NEAR(g.at(0), g.at(1), 1e-6);  // direction preserved
}

TEST(ClipGradNormTest, GlobalAcrossParameters) {
  Variable a(Tensor({1}, {0.0f}), true);
  Variable b(Tensor({1}, {0.0f}), true);
  ag::Scale(ag::Add(ag::Scale(a, 3.0f), ag::Scale(b, 4.0f)), 1.0f)
      .Backward();  // grads 3 and 4, global norm 5
  const float norm = optim::ClipGradNorm({a, b}, 1.0f);
  EXPECT_NEAR(norm, 5.0f, 1e-5);
  EXPECT_NEAR(a.GradOrZeros().at(0), 0.6f, 1e-5);
  EXPECT_NEAR(b.GradOrZeros().at(0), 0.8f, 1e-5);
}

TEST(StepDecayScheduleTest, DecaysEveryStep) {
  optim::StepDecaySchedule s(1.0f, 3, 0.1f);
  EXPECT_FLOAT_EQ(s.LrForEpoch(0), 1.0f);
  EXPECT_FLOAT_EQ(s.LrForEpoch(2), 1.0f);
  EXPECT_FLOAT_EQ(s.LrForEpoch(3), 0.1f);
  EXPECT_FLOAT_EQ(s.LrForEpoch(6), 0.01f);
}

TEST(OptimizerTest, ZeroGradClearsAll) {
  Variable x(Tensor({1}, {1.0f}), true);
  optim::Adam opt({x}, 0.1f);
  ag::SumAll(x).Backward();
  EXPECT_TRUE(x.has_grad());
  opt.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

}  // namespace
}  // namespace embsr
