// The backward passes of MatMul and ScoreItems read a cached transpose and
// add weight gradients in place.
//
// A leaf right operand of a graph-on ag::MatMul or ag::ScoreItems keeps its
// transpose on its node (ag::Node::transposed): MatMul's dA, and
// ScoreItems' forward, multiply by it. Weight gradients are summed straight
// into the parameter's grad buffer (tensor.h, MatMulTransposedAInto). This
// file holds that to four things:
//
//  1. Bits: every gradient either op hands its inputs memcmp-equals the
//     composition of plain kernels accumulated through AccumulateGrad, on
//     its first (storing) and second (adding) accumulation, for B a
//     parameter and B an op output, on operands with zeros of both signs
//     and an upstream gradient holding ±Inf or NaN.
//  2. Lifecycle: only a graph-on op builds a transpose, a MatMul only in
//     its backward, and every mutable_value() drops it.
//  3. No stale transpose: after a backward warms the cache, a write through
//     Adam::Step, RestoreParameters, nn::LoadCheckpoint or a bare
//     mutable_value() leaves every zoo model backing exactly as a cold
//     model holding the same values.
//  4. Memory: a fitted model holds no transpose.
//
// Suite names start with `Autograd`, which the EMBSR_PROF=1 EMBSR_THREADS=4
// leg of scripts/run_sanitized_tests.sh selects; its EMBSR_THREADS=4 leg
// names AutogradBackward explicitly.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "datagen/generator.h"
#include "gtest/gtest.h"
#include "models/neural_model.h"
#include "nn/checkpoint.h"
#include "optim/optimizer.h"
#include "train/model_zoo.h"
#include "util/rng.h"

namespace embsr {
namespace {

using ag::Variable;

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

/// A forward operand with exact zeros of both signs, the zero-skip's cases.
Tensor Operand(int64_t rows, int64_t cols, Rng* rng) {
  Tensor t = Tensor::RandUniform({rows, cols}, -1.0f, 1.0f, rng);
  for (int64_t i = 0; i < t.size(); i += 4) t.at(i) = 0.0f;
  for (int64_t i = 1; i < t.size(); i += 6) t.at(i) = -0.0f;
  return t;
}

/// An upstream gradient with zeros of both signs and `special` at one
/// element. It never passes through a forward, so it may be non-finite.
Tensor Upstream(int64_t rows, int64_t cols, float special, Rng* rng) {
  Tensor g = Operand(rows, cols, rng);
  g.at(g.size() / 2) = special;
  return g;
}

/// Runs `y`'s backward closure alone, from upstream gradient `g`.
void BackwardFrom(const Variable& y, Tensor g) {
  ag::Node* node = y.node().get();
  node->grad = std::move(g);
  node->grad_ready = true;
  node->backward_fn(node);
}

// ---- 1. Bits -------------------------------------------------------------------

// A: [n, k]. MatMul's B is [k, m]; ScoreItems' B is a [m, k] table. Two ops
// consume the same A and B, so their backward passes first store, then add
// into each gradient. After each pass, A's gradient must equal
// MatMulTransposedB(dY, B) (MatMul(dY, B) for ScoreItems) and B's
// MatMul(Aᵀ, dY) (its transpose for ScoreItems), accumulated as
// Node::AccumulateGrad accumulates. k and m are not multiples of the 64-wide
// tile.
TEST(AutogradBackward, GradientsMatchTheKernelCompositionBitwise) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kSpecial[] = {kInf, -kInf, std::nanf("")};
  struct Extents {
    int64_t k, m;
  };
  const std::vector<Extents> extents = {{37, 70}, {100, 129}};
  Rng rng(32);
  int cases = 0;
  for (bool score_items : {false, true}) {
    for (bool b_leaf : {true, false}) {
      for (int64_t n : {1, 3, 17}) {
        for (const Extents& e : extents) {
          const float special = kSpecial[cases++ % 3];
          SCOPED_TRACE(std::string(score_items ? "ScoreItems" : "MatMul") +
                       (b_leaf ? ", B a parameter" : ", B an op output") +
                       ", n=" + std::to_string(n) + " k=" +
                       std::to_string(e.k) + " m=" + std::to_string(e.m) +
                       ", dY holds " + std::to_string(special));
          const Tensor ta = Operand(n, e.k, &rng);
          const Tensor tb = score_items ? Operand(e.m, e.k, &rng)
                                        : Operand(e.k, e.m, &rng);
          const Tensor g1 = Upstream(n, e.m, special, &rng);
          const Tensor g2 = Upstream(n, e.m, special, &rng);

          const Variable a(ta, true);
          const Variable leaf(tb, true);
          // Scale by 1 copies the leaf's bits into an op output.
          const Variable b = b_leaf ? leaf : ag::Scale(leaf, 1.0f);
          const auto op = [&] {
            return score_items ? ag::ScoreItems(a, b) : ag::MatMul(a, b);
          };
          const Variable y1 = op();
          const Variable y2 = op();
          EXPECT_TRUE(SameBits(y1.value(), score_items
                                               ? MatMulTransposedB(ta, tb)
                                               : MatMul(ta, tb)));

          const auto grad_a = [&](const Tensor& g) {
            return score_items ? MatMul(g, tb) : MatMulTransposedB(g, tb);
          };
          const auto grad_b = [&](const Tensor& g) {
            Tensor p = MatMul(ta.Transposed(), g);
            return score_items ? p.Transposed() : p;
          };
          Tensor want_a = grad_a(g1);
          Tensor want_b = grad_b(g1);
          BackwardFrom(y1, g1);
          EXPECT_TRUE(SameBits(a.grad(), want_a)) << "A's gradient, stored";
          EXPECT_TRUE(SameBits(b.grad(), want_b)) << "B's gradient, stored";

          want_a.AddInPlace(grad_a(g2));
          want_b.AddInPlace(grad_b(g2));
          BackwardFrom(y2, g2);
          EXPECT_TRUE(SameBits(a.grad(), want_a)) << "A's gradient, added";
          EXPECT_TRUE(SameBits(b.grad(), want_b)) << "B's gradient, added";
          EXPECT_EQ(a.node()->accum_count, 2);
          EXPECT_EQ(b.node()->accum_count, 2);

          // Only a leaf right operand holds a transpose.
          EXPECT_EQ(b.node()->transposed != nullptr, b_leaf);
          EXPECT_EQ(a.node()->transposed, nullptr);
          EXPECT_EQ(y1.node()->transposed, nullptr);
        }
      }
    }
  }
}

// ---- 2. Lifecycle ----------------------------------------------------------------

TEST(AutogradBackward, TransposeIsBuiltLazilyWithTheGraphOnAndDroppedOnWrite) {
  Rng rng(33);
  const Variable a(Tensor::RandUniform({2, 5}, -1.0f, 1.0f, &rng), true);
  Variable table(Tensor::RandUniform({7, 5}, -1.0f, 1.0f, &rng), true);
  Variable w(Tensor::RandUniform({5, 3}, -1.0f, 1.0f, &rng), true);
  {
    ag::NoGradScope no_grad;
    (void)ag::ScoreItems(a, table);
    (void)ag::SumAll(ag::MatMul(a, w));
  }
  EXPECT_EQ(table.node()->transposed, nullptr) << "scored under NoGradScope";
  EXPECT_EQ(w.node()->transposed, nullptr) << "multiplied under NoGradScope";
  const Variable constant_table = ag::Constant(table.value());
  (void)ag::ScoreItems(ag::Constant(a.value()), constant_table);
  EXPECT_EQ(constant_table.node()->transposed, nullptr) << "nothing to train";

  (void)ag::ScoreItems(a, table);
  ASSERT_NE(table.node()->transposed, nullptr) << "graph-on ScoreItems";
  EXPECT_TRUE(SameBits(*table.node()->transposed, table.value().Transposed()));

  const Variable loss = ag::SumAll(ag::MatMul(a, w));
  EXPECT_EQ(w.node()->transposed, nullptr) << "built before any backward";
  loss.Backward();
  ASSERT_NE(w.node()->transposed, nullptr) << "MatMul's backward";
  EXPECT_TRUE(SameBits(*w.node()->transposed, w.value().Transposed()));

  const uint64_t version = w.version();
  w.mutable_value();
  EXPECT_EQ(w.node()->transposed, nullptr);
  EXPECT_EQ(w.version(), version + 1);
  table.mutable_value();
  EXPECT_EQ(table.node()->transposed, nullptr);
}

// ---- 3. No stale transpose -------------------------------------------------------

/// Parameters of `model` that hold a transpose.
int CachedTransposes(const NeuralSessionModel& model) {
  int cached = 0;
  for (const Variable& p : model.Parameters()) {
    cached += p.node()->transposed != nullptr ? 1 : 0;
  }
  return cached;
}

std::unique_ptr<Recommender> TinyZooModelWithSeed(const std::string& name,
                                                  uint64_t seed) {
  TrainConfig cfg = TinyZooConfig();
  cfg.seed = seed;
  return CreateModel(name, kTinyZooItems, kTinyZooOperations, cfg);
}

// Each write moves every parameter off the values a warm backward built the
// transposes from. The next backward must then match, bit for bit, that of
// a cold model (one that never backed) holding the written values. With
// the drop removed from Variable::mutable_value(), the warm model keeps its
// stale transposes and fails after every write.
TEST(AutogradBackward, NoTransposeOutlivesAParameterWrite) {
  const Example ex = TinyZooExample();
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/autograd_backward_write.ckpt";
  const uint64_t seed = TinyZooConfig().seed;
  const std::vector<
      std::pair<std::string, std::function<void(const std::string&,
                                                NeuralSessionModel*)>>>
      writes = {
          {"Adam::Step",
           [](const std::string&, NeuralSessionModel* m) {
             optim::Adam opt(m->Parameters(), /*lr=*/0.05f);
             opt.Step();  // on the warm backward's gradients
           }},
          {"RestoreParameters",
           [seed](const std::string& name, NeuralSessionModel* m) {
             auto other = TinyZooModelWithSeed(name, seed + 1);
             m->RestoreParameters(dynamic_cast<NeuralSessionModel&>(*other)
                                      .SnapshotParameters());
           }},
          {"nn::LoadCheckpoint",
           [seed, &ckpt](const std::string& name, NeuralSessionModel* m) {
             auto other = TinyZooModelWithSeed(name, seed + 2);
             ASSERT_TRUE(nn::SaveCheckpoint(
                             dynamic_cast<NeuralSessionModel&>(*other), ckpt)
                             .ok());
             ASSERT_TRUE(nn::LoadCheckpoint(ckpt, m).ok());
           }},
          {"mutable_value()",
           [](const std::string&, NeuralSessionModel* m) {
             for (Variable& p : m->Parameters()) {
               p.mutable_value().ScaleInPlace(0.5f);
             }
           }},
      };
  int neural_checked = 0;
  for (const std::string& name : ZooModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> warm_model = CreateTinyZooModel(name);
    auto* warm = dynamic_cast<NeuralSessionModel*>(warm_model.get());
    if (warm == nullptr) continue;
    ++neural_checked;
    for (const auto& [what, write] : writes) {
      SCOPED_TRACE("after " + what);
      warm->SetTraining(false);
      warm->ZeroGrad();
      warm->LossOn(ex).Backward();
      ASSERT_GT(CachedTransposes(*warm), 0) << "the backward built none";
      write(name, warm);
      EXPECT_EQ(CachedTransposes(*warm), 0);

      std::unique_ptr<Recommender> cold_model = CreateTinyZooModel(name);
      auto* cold = dynamic_cast<NeuralSessionModel*>(cold_model.get());
      cold->SetTraining(false);
      cold->RestoreParameters(warm->SnapshotParameters());
      warm->ZeroGrad();
      const Variable warm_loss = warm->LossOn(ex);
      warm_loss.Backward();
      const Variable cold_loss = cold->LossOn(ex);
      cold_loss.Backward();
      EXPECT_TRUE(SameBits(warm_loss.value(), cold_loss.value()));
      const std::vector<Variable> wp = warm->Parameters();
      const std::vector<Variable> cp = cold->Parameters();
      ASSERT_EQ(wp.size(), cp.size());
      for (size_t i = 0; i < wp.size(); ++i) {
        EXPECT_TRUE(SameBits(wp[i].GradOrZeros(), cp[i].GradOrZeros()))
            << "parameter " << i;
      }
    }
  }
  EXPECT_EQ(neural_checked, 21);
  std::remove(ckpt.c_str());
}

// Fit's last write is an Adam step, so a fitted model holds no transpose:
// the cache costs training memory only while a mini-batch runs.
TEST(AutogradBackward, FitLeavesNoTransposeBehind) {
  Result<ProcessedDataset> made = MakeDataset(JdAppliancesConfig(0.02));
  ASSERT_TRUE(made.ok());
  const ProcessedDataset& data = made.value();
  TrainConfig cfg = TinyZooConfig();
  cfg.epochs = 1;
  cfg.max_train_examples = 96;
  for (const char* name : {"GRU4Rec", "STAMP", "EMBSR"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model =
        CreateModel(name, data.num_items, data.num_operations, cfg);
    ASSERT_TRUE(model->Fit(data).ok());
    EXPECT_EQ(CachedTransposes(dynamic_cast<NeuralSessionModel&>(*model)), 0);
  }
}

}  // namespace
}  // namespace embsr
