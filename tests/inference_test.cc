// Inference records no graph, and decodes without a transpose.
//
// NeuralSessionModel::ScoreBatch, the one funnel under ScoreAll,
// ValidationMrr, Evaluate and serving, runs its forward under an
// ag::NoGradScope. This file holds that path to five things:
//
//  1. The scope itself: ops under it build nodes with no parents, no
//     backward closure and requires_grad false; scopes nest and are
//     thread-local; Backward() inside one aborts.
//  2. ScoreItems, the A·B^T decode op, is bitwise MatMul(a, Transpose(b)) in
//     its forward and in both gradients.
//  3. Scores are unchanged: for every neural zoo model, ScoreAll(ex)
//     memcmp-equals the eval-mode logits LossOn(ex) records with the graph
//     on (the cross-entropy node's parent), at 1 and 4 lanes, on the
//     tiny-zoo fixture and on seeded edge-shape sessions, and an ag::Tape
//     around ScoreBatch sees no node that could run backward.
//  4. The memory mechanism: EMBSR's peak tensor bytes for a 16-session
//     ScoreBatch stay within a small multiple of a 1-session one, because
//     each session's intermediates die as the forward moves on.
//  5. The decode cache (nn::Embedding's [d, V] transpose of the item table,
//     normalized for Eq. 19) never serves a stale table: after an Adam
//     step, a checkpoint load and a snapshot restore, ScoreAll still
//     memcmp-equals the graph-on logits, and a cold cache met by 4 lanes
//     at once ranks as 1 lane does.
//
// Suite names start with `Autograd`, which the EMBSR_PROF=1 EMBSR_THREADS=4
// leg of scripts/run_sanitized_tests.sh selects; its EMBSR_THREADS=4 leg
// names AutogradInference(DeathTest) explicitly.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "autograd/variable.h"
#include "data/preprocess.h"
#include "graph/session_graph.h"
#include "gtest/gtest.h"
#include "models/neural_model.h"
#include "nn/checkpoint.h"
#include "optim/optimizer.h"
#include "par/thread_pool.h"
#include "prof/mem_tracker.h"
#include "prof/op_profiler.h"
#include "train/evaluator.h"
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

bool RecordsNoGraph(const Variable& v) {
  return !v.requires_grad() && v.node()->parents.empty() &&
         !v.node()->backward_fn;
}

// ---- 1. The scope -----------------------------------------------------------

TEST(AutogradInference, OpsUnderNoGradScopeRecordNoGraph) {
  Rng rng(5);
  const Variable x(Tensor::Randn({3, 4}, 0.7f, &rng));
  const Variable w(Tensor::Randn({4, 5}, 0.7f, &rng), /*requires_grad=*/true);
  const Variable table(Tensor::Randn({6, 5}, 0.7f, &rng), true);
  const auto forward = [&] {
    return ag::ScoreItems(ag::Tanh(ag::MatMul(x, w)), table);
  };
  const Variable with_graph = forward();
  EXPECT_TRUE(with_graph.requires_grad());
  EXPECT_EQ(with_graph.node()->parents.size(), 2u);
  EXPECT_TRUE(static_cast<bool>(with_graph.node()->backward_fn));

  ag::NoGradScope no_grad;
  const Variable without = forward();
  EXPECT_TRUE(RecordsNoGraph(without));
  EXPECT_TRUE(SameBits(without.value(), with_graph.value()));
  // StackRows takes its inputs as a span, not an initializer list.
  const Variable stacked = ag::StackRows({ag::Row(w, 0), ag::Row(w, 1)});
  EXPECT_TRUE(RecordsNoGraph(stacked));
  // Leaves keep their flag: the scope governs what ops record.
  EXPECT_TRUE(w.requires_grad());
}

TEST(AutogradInference, NoGradScopesNestAndAreThreadLocal) {
  EXPECT_FALSE(ag::NoGradScope::Active());
  {
    ag::NoGradScope outer;
    {
      ag::NoGradScope inner;
      EXPECT_TRUE(ag::NoGradScope::Active());
    }
    EXPECT_TRUE(ag::NoGradScope::Active());  // the outer scope still holds
    bool other_thread_active = true;
    bool other_thread_records = false;
    std::thread t([&] {
      other_thread_active = ag::NoGradScope::Active();
      const Variable p(Tensor::Ones({2, 2}), /*requires_grad=*/true);
      other_thread_records = ag::Scale(p, 2.0f).requires_grad();
    });
    t.join();
    EXPECT_FALSE(other_thread_active);
    EXPECT_TRUE(other_thread_records);
  }
  EXPECT_FALSE(ag::NoGradScope::Active());
  const Variable p(Tensor::Ones({2, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(ag::Scale(p, 2.0f).requires_grad());
}

using AutogradInferenceDeathTest = ::testing::Test;

TEST(AutogradInferenceDeathTest, BackwardInsideNoGradScopeAborts) {
  // The loss is built with the graph on; only the Backward call sits in the
  // scope. Without the check it would seed the root and train nothing.
  const Variable p(Tensor::Ones({2, 2}), /*requires_grad=*/true);
  const Variable loss = ag::SumAll(ag::Scale(p, 3.0f));
  EXPECT_DEATH(
      {
        ag::NoGradScope no_grad;
        loss.Backward();
      },
      "Backward\\(\\) inside an active ag::NoGradScope");
}

// ---- 2. ScoreItems ------------------------------------------------------------

TEST(AutogradInference, ScoreItemsIsMatMulOfTransposeBitwise) {
  // 70 items: two 64-wide panels, the second ragged.
  Rng rng(11);
  Tensor ta = Tensor::Randn({3, 9}, 0.8f, &rng);
  for (int64_t i = 0; i < ta.size(); i += 5) ta.at(i) = 0.0f;  // zero-skip
  const Tensor tb = Tensor::Randn({70, 9}, 0.8f, &rng);
  const Tensor tw = Tensor::Randn({3, 70}, 0.8f, &rng);

  const auto grads = [&](bool score_items, Tensor* out, Tensor* ga,
                         Tensor* gb) {
    const Variable a(ta, true);
    const Variable b(tb, true);
    const Variable y = score_items ? ag::ScoreItems(a, b)
                                   : ag::MatMul(a, ag::Transpose(b));
    ag::SumAll(ag::Mul(y, ag::Constant(tw))).Backward();
    *out = y.value();
    *ga = a.GradOrZeros();
    *gb = b.GradOrZeros();
  };
  Tensor y0, ga0, gb0, y1, ga1, gb1;
  grads(false, &y0, &ga0, &gb0);
  grads(true, &y1, &ga1, &gb1);
  EXPECT_TRUE(SameBits(y1, y0));
  EXPECT_TRUE(SameBits(ga1, ga0));
  EXPECT_TRUE(SameBits(gb1, gb0));
}

// ---- 3. Scores are unchanged across the zoo ----------------------------------

/// Seeded sessions on the tiny-zoo vocabulary, biased toward the shapes
/// that break batched and graph code: a one-event session, a session of
/// max_positions macro items (or one more, so Tail truncates), one item
/// repeated (one macro item, a multigraph with no edges) and one item that
/// recurs between others (parallel edges through one node).
std::vector<Example> EdgeShapeSessions(uint64_t seed, int count) {
  const int64_t max_positions = TinyZooConfig().max_positions;
  Rng rng(seed);
  const auto item = [&] {
    return static_cast<int64_t>(rng.UniformInt(kTinyZooItems));
  };
  const auto op = [&] {
    return static_cast<int64_t>(rng.UniformInt(kTinyZooOperations));
  };
  std::vector<Example> out;
  for (int s = 0; s < count; ++s) {
    std::vector<int64_t> items, ops;
    const auto push_run = [&](int64_t it, int64_t len) {
      for (int64_t r = 0; r < len; ++r) {
        items.push_back(it);
        ops.push_back(op());
      }
    };
    // A macro item unequal to the previous one, so runs stay separate.
    const auto next_item = [&] {
      int64_t it = item();
      while (!items.empty() && it == items.back()) it = item();
      return it;
    };
    switch (s % 5) {
      case 0:  // one event
        push_run(item(), 1);
        break;
      case 1: {  // max_positions macro items, sometimes one more
        const int64_t len = max_positions + static_cast<int64_t>(
                                                rng.UniformInt(2));
        for (int64_t p = 0; p < len; ++p) {
          push_run(next_item(), 1 + static_cast<int64_t>(rng.UniformInt(2)));
        }
        break;
      }
      case 2:  // one item repeated: no multigraph edges
        push_run(item(), 2 + static_cast<int64_t>(rng.UniformInt(5)));
        break;
      case 3: {  // one item recurring between others
        const int64_t hub = item();
        const int64_t visits = 2 + static_cast<int64_t>(rng.UniformInt(3));
        for (int64_t v = 0; v < visits; ++v) {
          push_run(hub, 1);
          int64_t other = item();
          while (other == hub) other = item();
          push_run(other, 1);
        }
        push_run(hub, 1);
        break;
      }
      default: {  // an ordinary short session
        const int64_t len = 2 + static_cast<int64_t>(rng.UniformInt(5));
        for (int64_t p = 0; p < len; ++p) push_run(next_item(), 1);
        break;
      }
    }
    Example ex = ExampleFromEvents(std::move(items), std::move(ops));
    ex.target = item();
    out.push_back(std::move(ex));
  }
  return out;
}

std::vector<Example> FixtureAndEdgeShapes() {
  std::vector<Example> exs = EdgeShapeSessions(/*seed=*/20261018, 15);
  exs.insert(exs.begin(), TinyZooExample());
  return exs;
}

TEST(AutogradInference, EdgeShapeGeneratorReachesEveryShape) {
  const int64_t max_positions = TinyZooConfig().max_positions;
  bool one_event = false, max_length = false, no_edges_repeated = false,
       recurring = false;
  for (const Example& ex : EdgeShapeSessions(20261018, 15)) {
    const auto g = SessionMultigraph::Build(ex.macro_items);
    one_event = one_event || ex.flat_items.size() == 1;
    max_length = max_length ||
                 static_cast<int64_t>(ex.macro_items.size()) >= max_positions;
    no_edges_repeated = no_edges_repeated ||
                        (g.alias().size() == 1 && ex.flat_items.size() > 1);
    recurring = recurring ||
                g.num_nodes() < static_cast<int>(ex.macro_items.size());
  }
  EXPECT_TRUE(one_event);
  EXPECT_TRUE(max_length);
  EXPECT_TRUE(no_edges_repeated);
  EXPECT_TRUE(recurring);
}

TEST(AutogradInference, ZooScoresEqualGraphOnLogitsOnEdgeShapes) {
  const std::vector<Example> exs = FixtureAndEdgeShapes();
  for (const int lanes : {1, 4}) {
    par::SetThreadCount(lanes);
    int neural_checked = 0;
    for (const std::string& name : ZooModelNames()) {
      SCOPED_TRACE(name + " at " + std::to_string(lanes) + " lanes");
      std::unique_ptr<Recommender> model = CreateTinyZooModel(name);
      ASSERT_NE(model, nullptr);
      auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
      if (neural == nullptr) continue;  // memory-based: no graph
      ++neural_checked;
      neural->EnsureEvalMode();
      for (size_t i = 0; i < exs.size(); ++i) {
        const Variable loss = neural->LossOn(exs[i]);
        ASSERT_EQ(loss.node()->parents.size(), 1u) << "graph off in LossOn";
        const Tensor& logits = loss.node()->parents[0]->value;
        const std::vector<float> scores = neural->ScoreAll(exs[i]);
        ASSERT_EQ(static_cast<int64_t>(scores.size()), logits.size());
        EXPECT_EQ(std::memcmp(scores.data(), logits.data(),
                              sizeof(float) * scores.size()),
                  0)
            << "session " << i;
      }
    }
    EXPECT_EQ(neural_checked, 21);
  }
  par::SetThreadCount(0);
}

TEST(AutogradInference, ScoreBatchRecordsNoGraphAcrossZoo) {
  const std::vector<Example> exs = FixtureAndEdgeShapes();
  std::vector<const Example*> ptrs;
  for (const Example& e : exs) ptrs.push_back(&e);
  for (const std::string& name : ZooModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = CreateTinyZooModel(name);
    ASSERT_NE(model, nullptr);
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    if (neural == nullptr) continue;
    neural->EnsureEvalMode();
    ag::Tape tape;
    const auto scores = neural->ScoreBatch(ptrs);
    ASSERT_EQ(scores.size(), ptrs.size());
    ASSERT_FALSE(tape.nodes().empty());
    int64_t offenders = 0;
    for (const auto& node : tape.nodes()) {
      if (!node->parents.empty() || node->backward_fn || node->requires_grad) {
        ++offenders;
      }
    }
    EXPECT_EQ(offenders, 0) << "of " << tape.nodes().size() << " nodes";
  }
}

// ---- 4. The memory mechanism ---------------------------------------------------

/// Peak tensor bytes above the pre-call live bytes of one ScoreBatch.
int64_t ScoringPeakBytes(NeuralSessionModel* model,
                         const std::vector<const Example*>& batch) {
  prof::Start();  // collapses the peak to the live watermark
  const int64_t base = prof::MemSnapshot().live_bytes;
  const auto scores = model->ScoreBatch(batch);
  EXPECT_EQ(scores.size(), batch.size());
  const int64_t peak = prof::MemSnapshot().peak_bytes - base;
  prof::Stop();
  return peak;
}

// With a graph, every session's intermediates live until the stacked logits
// die, so the peak of a 16-session batch is about 16 one-session graphs.
// Without one, a session's intermediates go as soon as its representation
// is built, and the batch adds only its [16, d] representations and
// [16, V] logits. Tiny-zoo EMBSR, bytes above baseline: 1 session 1,448
// and 16 sessions 2,640 (1.8x); with the scope dropped from ScoreBatch,
// 13,416 and 203,800 (15.2x).
TEST(AutogradInference, EmbsrScoringPeakDoesNotGrowWithBatch) {
  std::unique_ptr<Recommender> model = CreateTinyZooModel("EMBSR");
  ASSERT_NE(model, nullptr);
  auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
  ASSERT_NE(neural, nullptr);
  neural->EnsureEvalMode();
  const Example ex = TinyZooExample();
  const std::vector<const Example*> one = {&ex};
  const std::vector<const Example*> sixteen(16, &ex);
  // Warm-up. It also builds the item table's cached normalized transpose,
  // so neither measured call pays that one-off [d, V] build.
  (void)neural->ScoreBatch(one);

  const int64_t peak1 = ScoringPeakBytes(neural, one);
  const int64_t peak16 = ScoringPeakBytes(neural, sixteen);
  ASSERT_GT(peak1, 0);
  EXPECT_LT(peak16, 4 * peak1) << "1 session: " << peak1
                               << " B, 16 sessions: " << peak16 << " B";
}

// ---- 5. The decode cache -------------------------------------------------------

/// ScoreAll of every session, each checked to memcmp-equal the logits
/// LossOn records with the graph on (which never reads the cache).
std::vector<std::vector<float>> ScoresEqualToGraphOn(
    NeuralSessionModel* model, const std::vector<Example>& exs) {
  std::vector<std::vector<float>> out;
  for (size_t i = 0; i < exs.size(); ++i) {
    const Variable loss = model->LossOn(exs[i]);
    EXPECT_EQ(loss.node()->parents.size(), 1u) << "graph off in LossOn";
    if (loss.node()->parents.size() != 1) break;
    const Tensor& logits = loss.node()->parents[0]->value;
    std::vector<float> scores = model->ScoreAll(exs[i]);
    EXPECT_TRUE(static_cast<int64_t>(scores.size()) == logits.size() &&
                std::memcmp(scores.data(), logits.data(),
                            sizeof(float) * scores.size()) == 0)
        << "session " << i;
    out.push_back(std::move(scores));
  }
  return out;
}

/// One Adam step on the graph-on loss of `ex`: moves every parameter the
/// loss reaches, the decoded item table among them.
void AdamStep(NeuralSessionModel* model, const Example& ex) {
  optim::Adam opt(model->Parameters(), /*lr=*/0.05f);
  model->LossOn(ex).Backward();
  opt.Step();
}

// Each write path goes through Variable::mutable_value(), which bumps the
// table's version. The scores checked after each write also warm the cache
// at the new parameters, so the next write meets a warm cache it must
// invalidate. The three writes lead to three parameter sets, none of them
// the built one, so with the bump removed from mutable_value() (the cache
// then keeps the built table) every model fails after the step, the load
// and the restore alike.
TEST(AutogradInference, CachedDecodeTableFollowsEveryParameterWrite) {
  const std::vector<Example> exs = FixtureAndEdgeShapes();
  const std::string ckpt =
      std::string(::testing::TempDir()) + "/inference_cache_seed18.ckpt";
  int neural_checked = 0;
  for (const std::string& name : ZooModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = CreateTinyZooModel(name);
    ASSERT_NE(model, nullptr);
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    if (neural == nullptr) continue;
    ++neural_checked;
    neural->EnsureEvalMode();
    const auto built = ScoresEqualToGraphOn(neural, exs);
    std::vector<std::vector<float>> stepped;
    {
      SCOPED_TRACE("after an Adam step");
      AdamStep(neural, exs[0]);
      stepped = ScoresEqualToGraphOn(neural, exs);
      EXPECT_NE(stepped, built);
    }
    const std::vector<Tensor> snapshot = neural->SnapshotParameters();
    {
      SCOPED_TRACE("after a checkpoint load from another seed");
      TrainConfig cfg = TinyZooConfig();
      cfg.seed += 1;
      std::unique_ptr<Recommender> other =
          CreateModel(name, kTinyZooItems, kTinyZooOperations, cfg);
      auto* other_neural = dynamic_cast<NeuralSessionModel*>(other.get());
      ASSERT_NE(other_neural, nullptr);
      other_neural->EnsureEvalMode();
      ASSERT_TRUE(nn::SaveCheckpoint(*other_neural, ckpt).ok());
      ASSERT_TRUE(nn::LoadCheckpoint(ckpt, neural).ok());
      EXPECT_EQ(ScoresEqualToGraphOn(neural, exs),
                ScoresEqualToGraphOn(other_neural, exs));
    }
    {
      SCOPED_TRACE("after a snapshot restore");
      neural->RestoreParameters(snapshot);
      EXPECT_EQ(ScoresEqualToGraphOn(neural, exs), stepped);
    }
  }
  EXPECT_EQ(neural_checked, 21);
  std::remove(ckpt.c_str());
}

// Evaluate pins eval mode and scores from every lane at once, so right
// after a step the first decodes on all 4 lanes find the cache stale
// together. The rebuild is serialized; every lane must decode against the
// new table (TSan runs this in the sanitizer matrix's thread config).
TEST(AutogradInference, ColdCacheRanksAtFourLanesAsAtOne) {
  const std::vector<Example> exs = EdgeShapeSessions(/*seed=*/20261019, 64);
  for (const std::string& name : ZooModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = CreateTinyZooModel(name);
    ASSERT_NE(model, nullptr);
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    if (neural == nullptr) continue;
    neural->EnsureEvalMode();
    (void)neural->ScoreAll(exs[0]);  // warm, for the step to leave stale
    AdamStep(neural, exs[0]);
    par::SetThreadCount(4);
    const EvalResult four = Evaluate(neural, exs, {20});
    par::SetThreadCount(1);
    const EvalResult one = Evaluate(neural, exs, {20});
    EXPECT_EQ(four.ranks, one.ranks);
  }
  par::SetThreadCount(0);
}

}  // namespace
}  // namespace embsr
