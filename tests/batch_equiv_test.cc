// Batched-execution equivalence suite.
//
// Every neural forward runs over a collated SessionBatch, and the forward
// batch size (TrainConfig::forward_batch) is an *optimization*, never a
// semantic change. This file holds it to that in three tiers:
//
//  1. Eval bitwise at any batch size: ScoreBatch at B in {1, 4, 16}
//     reproduces the one-session ScoreAll bitwise for every neural zoo
//     model, since every batched kernel is row-independent and the masked
//     GRU blend is a bitwise row copy; Evaluate ranks match at any
//     forward_batch.
//  2. Tolerance at forward_batch 4/16 for *training*: gradient
//     accumulation order and graph decomposition legitimately differ, so
//     parameters after two epochs agree within float tolerance, not
//     bitwise (EXPERIMENTS.md "Batch equivalence tolerances").
//  3. Ragged-edge fuzz: batches mixing length-1 / max-length / identical
//     sessions; padded steps contribute nothing to loss, gradients, or
//     live_bytes; AuditTape, shape rules included, passes for every zoo
//     model's batched graph.
//
// Suite name BatchEquiv is load-bearing: scripts/run_sanitized_tests.sh
// re-runs `ctest -R '^BatchEquiv'` under EMBSR_THREADS=4.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analyze/tape_audit.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "datagen/generator.h"
#include "gtest/gtest.h"
#include "models/neural_model.h"
#include "models/session_batch.h"
#include "nn/layers.h"
#include "prof/mem_tracker.h"
#include "prof/op_profiler.h"
#include "train/evaluator.h"
#include "train/model_zoo.h"
#include "util/check.h"
#include "util/rng.h"

namespace embsr {
namespace {

// The three models with native batched forwards; NARM rides along in
// forward tests to cover the stacked-rows PerSessionModel forward every
// other zoo model uses.
const char* kBatchedModels[] = {"GRU4Rec", "STAMP", "EMBSR"};

const ProcessedDataset& SmallData() {
  static const ProcessedDataset* d = [] {
    auto r = MakeDataset(JdAppliancesConfig(0.02));
    EMBSR_CHECK_OK(r);
    return new ProcessedDataset(std::move(r).value());
  }();
  return *d;
}

struct RunOutcome {
  std::vector<Tensor> params;
  MetricReport report;
};

RunOutcome TrainOnce(const std::string& model_name, int forward_batch,
                     TrainConfig cfg) {
  cfg.forward_batch = forward_batch;
  const ProcessedDataset& data = SmallData();
  std::unique_ptr<Recommender> model =
      CreateModel(model_name, data.num_items, data.num_operations, cfg);
  EMBSR_CHECK(model != nullptr);
  EMBSR_CHECK_OK(model->Fit(data));

  RunOutcome out;
  auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
  EMBSR_CHECK(neural != nullptr);
  for (const auto& p : neural->Parameters()) out.params.push_back(p.value());
  out.report = Evaluate(model.get(), data.test, {10, 20}, 40).report;
  return out;
}

TrainConfig SmallConfig() {
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.embedding_dim = 16;
  cfg.seed = 1234;
  cfg.max_train_examples = 60;
  return cfg;
}

/// Tolerance-mode config: dropout off (the batched forward draws dropout
/// RNG in a different order, so any dropout makes runs incomparable) and
/// best-on-validation restore off (near-equal validation MRR could select
/// different epochs' snapshots, turning a 1e-5 drift into a full epoch of
/// divergence).
TrainConfig ToleranceConfig() {
  TrainConfig cfg = SmallConfig();
  cfg.dropout = 0.0f;
  cfg.validate_every = 0;
  return cfg;
}

void ExpectAllClose(const std::vector<Tensor>& a,
                    const std::vector<Tensor>& b, float atol, float rtol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape()) << "param " << i;
    const float* pa = a[i].data();
    const float* pb = b[i].data();
    int64_t violations = 0;
    double worst = 0.0;
    for (int64_t j = 0; j < a[i].size(); ++j) {
      const double diff = std::fabs(static_cast<double>(pa[j]) - pb[j]);
      const double tol = atol + rtol * std::fabs(static_cast<double>(pb[j]));
      if (diff > tol) ++violations;
      worst = std::max(worst, diff);
    }
    EXPECT_EQ(violations, 0)
        << "param " << i << ": " << violations << "/" << a[i].size()
        << " elements beyond atol=" << atol << " rtol=" << rtol
        << " (worst |diff|=" << worst << ")";
  }
}

// ---- 1. Eval bitwise at any batch size ----------------------------------

// A one-session ScoreBatch (the three native batched forwards and the
// stacked-rows one) is exactly ScoreAll, call after call.
TEST(BatchEquiv, ScoreBatchBitIdenticalToScoreAllAtBatchOne) {
  const ProcessedDataset& data = SmallData();
  std::vector<std::string> names(std::begin(kBatchedModels),
                                 std::end(kBatchedModels));
  names.push_back("NARM");  // stacked-rows PerSessionModel forward
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model =
        CreateModel(name, data.num_items, data.num_operations, SmallConfig());
    ASSERT_NE(model, nullptr);
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    ASSERT_NE(neural, nullptr);
    neural->EnsureEvalMode();
    const size_t n = std::min<size_t>(data.test.size(), 12);
    for (size_t i = 0; i < n; ++i) {
      const Example& ex = data.test[i];
      const std::vector<float> serial = neural->ScoreAll(ex);
      const auto batched = neural->ScoreBatch({&ex});
      ASSERT_EQ(batched.size(), 1u);
      ASSERT_EQ(batched[0].size(), serial.size());
      EXPECT_EQ(std::memcmp(serial.data(), batched[0].data(),
                            sizeof(float) * serial.size()),
                0)
          << name << " example " << i;
    }
  }
}

// Every batched kernel is row-independent (MatMul rows, broadcasts, the
// masked GRU blend is a bitwise row copy, SegmentSumRows accumulates each
// segment in ascending row order), so B > 1 forwards are bit-identical per
// session — ragged padding and all. Evaluate scores every neural model
// through ScoreBatch, so the whole neural zoo is held to it.
TEST(BatchEquiv, ScoreBatchBitIdenticalToScoreAllAtBatch4And16) {
  const ProcessedDataset& data = SmallData();
  int neural_checked = 0;
  for (const std::string& name : ZooModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model =
        CreateModel(name, data.num_items, data.num_operations, SmallConfig());
    ASSERT_NE(model, nullptr);
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    if (neural == nullptr) continue;  // memory-based: no batched forward
    ++neural_checked;
    neural->EnsureEvalMode();
    for (const size_t bsz : {size_t{4}, size_t{16}}) {
      const size_t n = std::min<size_t>(data.test.size(), bsz);
      std::vector<const Example*> chunk;
      for (size_t i = 0; i < n; ++i) chunk.push_back(&data.test[i]);
      const auto batched = neural->ScoreBatch(chunk);
      ASSERT_EQ(batched.size(), chunk.size());
      for (size_t i = 0; i < chunk.size(); ++i) {
        const std::vector<float> serial = neural->ScoreAll(*chunk[i]);
        ASSERT_EQ(batched[i].size(), serial.size());
        EXPECT_EQ(std::memcmp(serial.data(), batched[i].data(),
                              sizeof(float) * serial.size()),
                  0)
            << name << " B=" << bsz << " session " << i;
      }
    }
  }
  EXPECT_EQ(neural_checked, 21);
}

// End to end through train/evaluator.cc: evaluating at forward_batch 16
// produces the identical metric report and per-example ranks as at 1,
// because the scores underneath are bitwise equal. The two models share a
// seed, so their parameters are identical.
TEST(BatchEquiv, EvaluatorBatchedMatchesSerial) {
  const ProcessedDataset& data = SmallData();
  TrainConfig cfg = SmallConfig();
  std::unique_ptr<Recommender> one = CreateModel(
      "GRU4Rec", data.num_items, data.num_operations, cfg);
  cfg.forward_batch = 16;
  std::unique_ptr<Recommender> sixteen = CreateModel(
      "GRU4Rec", data.num_items, data.num_operations, cfg);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(sixteen, nullptr);
  const EvalResult serial = Evaluate(one.get(), data.test, {10, 20}, 40);
  const EvalResult batched = Evaluate(sixteen.get(), data.test, {10, 20}, 40);
  EXPECT_EQ(serial.report.hit, batched.report.hit);
  EXPECT_EQ(serial.report.mrr, batched.report.mrr);
  EXPECT_EQ(serial.ranks, batched.ranks);
}

// ---- 2. Tolerance at forward batch 4 / 16 ---------------------------------

// Training with forward-batches accumulates the same mean-loss gradient in
// a different association order (one batched backward vs. per-example
// accumulation), so two epochs end float-close, not bitwise. Tolerances
// are documented in EXPERIMENTS.md "Batch equivalence tolerances".
TEST(BatchEquiv, TrainToleranceAtBatch4And16) {
  for (const char* name : kBatchedModels) {
    SCOPED_TRACE(name);
    const RunOutcome serial = TrainOnce(name, 1, ToleranceConfig());
    for (const int bsz : {4, 16}) {
      SCOPED_TRACE(bsz);
      const RunOutcome batched = TrainOnce(name, bsz, ToleranceConfig());
      ExpectAllClose(batched.params, serial.params, /*atol=*/2e-3f,
                     /*rtol=*/2e-2f);
      for (const auto& [k, v] : serial.report.mrr) {
        ASSERT_TRUE(batched.report.mrr.count(k));
        EXPECT_NEAR(v, batched.report.mrr.at(k), 0.08) << "mrr@" << k;
      }
      for (const auto& [k, v] : serial.report.hit) {
        ASSERT_TRUE(batched.report.hit.count(k));
        EXPECT_NEAR(v, batched.report.hit.at(k), 0.08) << "hit@" << k;
      }
    }
  }
}

// ---- 3. Ragged-edge fuzz ---------------------------------------------------

/// Consistent prefix of an example's micro-behavior session: the first k
/// macro items with their operation runs and the matching flat rows.
Example Prefix(const Example& ex, size_t k) {
  Example out;
  out.target = ex.target;
  size_t flat = 0;
  for (size_t i = 0; i < ex.macro_items.size(); ++i) {
    const size_t ops = ex.macro_ops[i].size();
    if (i < k) {
      out.macro_items.push_back(ex.macro_items[i]);
      out.macro_ops.push_back(ex.macro_ops[i]);
      for (size_t j = 0; j < ops; ++j) {
        out.flat_items.push_back(ex.flat_items[flat + j]);
        out.flat_ops.push_back(ex.flat_ops[flat + j]);
      }
    }
    flat += ops;
  }
  return out;
}

/// A deliberately ragged batch: a length-1 session, a session at (or past)
/// max_positions, and the same long session twice (identical-session
/// degenerate case).
std::vector<Example> RaggedExamples(int max_positions) {
  const ProcessedDataset& data = SmallData();
  const Example* longest = &data.test[0];
  for (const Example& ex : data.test) {
    if (ex.macro_items.size() > longest->macro_items.size()) longest = &ex;
  }
  EMBSR_CHECK_GT(longest->macro_items.size(), 2u);
  std::vector<Example> out;
  out.push_back(Prefix(*longest, 1));
  out.push_back(*longest);
  out.push_back(*longest);
  out.push_back(Prefix(*longest, std::min<size_t>(
                                     longest->macro_items.size() - 1,
                                     static_cast<size_t>(max_positions))));
  return out;
}

// The collator's two layouts agree with the per-session Tail() semantics
// on a ragged batch: right-aligned time-major placement with exact masks,
// and a flat concatenation whose segment bookkeeping is consistent.
TEST(BatchEquiv, CollatorLayoutsAreConsistentOnRaggedBatches) {
  const int kMaxPositions = 8;
  const std::vector<Example> exs = RaggedExamples(kMaxPositions);
  std::vector<const Example*> ptrs;
  for (const Example& e : exs) ptrs.push_back(&e);
  const SessionBatch b = CollateSessions(ptrs, kMaxPositions);

  ASSERT_EQ(b.batch, static_cast<int64_t>(exs.size()));
  int64_t flat_total = 0;
  for (int64_t bi = 0; bi < b.batch; ++bi) {
    const auto& items = exs[static_cast<size_t>(bi)].macro_items;
    const int64_t len = b.lengths[static_cast<size_t>(bi)];
    EXPECT_EQ(len, std::min<int64_t>(static_cast<int64_t>(items.size()),
                                     kMaxPositions));
    EXPECT_LE(len, b.max_len);
    EXPECT_EQ(b.targets[static_cast<size_t>(bi)],
              exs[static_cast<size_t>(bi)].target);
    // Time-major: session bi's step t holds its Tail item, mask 1; earlier
    // steps are pad item 0, mask 0.
    for (int64_t t = 0; t < b.max_len; ++t) {
      const int64_t start = b.max_len - len;
      const float mask = b.step_masks[static_cast<size_t>(t)].data()[bi];
      const int64_t item =
          b.time_major_items[static_cast<size_t>(t * b.batch + bi)];
      if (t >= start) {
        EXPECT_EQ(mask, 1.0f);
        EXPECT_EQ(item, items[items.size() - static_cast<size_t>(len) +
                              static_cast<size_t>(t - start)]);
      } else {
        EXPECT_EQ(mask, 0.0f);
        EXPECT_EQ(item, 0);
      }
    }
    // Flat: contiguous segment of `len` rows ending at last_row_index.
    EXPECT_EQ(b.last_row_index[static_cast<size_t>(bi)],
              flat_total + len - 1);
    for (int64_t p = 0; p < len; ++p) {
      EXPECT_EQ(b.segment_ids[static_cast<size_t>(flat_total + p)], bi);
      EXPECT_EQ(b.flat_items[static_cast<size_t>(flat_total + p)],
                items[items.size() - static_cast<size_t>(len) +
                      static_cast<size_t>(p)]);
    }
    EXPECT_EQ(b.inv_len_col.data()[bi], 1.0f / static_cast<float>(len));
    flat_total += len;
  }
  EXPECT_EQ(static_cast<int64_t>(b.flat_items.size()), flat_total);
  // step_all_valid is exactly "every session live at this step".
  for (int64_t t = 0; t < b.max_len; ++t) {
    bool all = true;
    for (int64_t bi = 0; bi < b.batch; ++bi) {
      all = all && b.step_masks[static_cast<size_t>(t)].data()[bi] == 1.0f;
    }
    EXPECT_EQ(b.step_all_valid[static_cast<size_t>(t)] != 0, all) << t;
  }
}

// BatchedLossOn over a ragged batch is the mean of the per-session losses:
// one logits row per session means no masked loss term exists to get
// wrong, and padding never reaches the loss.
TEST(BatchEquiv, BatchedLossIsMeanOfSerialLossesOnRaggedBatch) {
  const ProcessedDataset& data = SmallData();
  const std::vector<Example> exs = RaggedExamples(SmallConfig().max_positions);
  std::vector<const Example*> ptrs;
  for (const Example& e : exs) ptrs.push_back(&e);

  std::vector<std::string> names(std::begin(kBatchedModels),
                                 std::end(kBatchedModels));
  names.push_back("NARM");
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model =
        CreateModel(name, data.num_items, data.num_operations, SmallConfig());
    ASSERT_NE(model, nullptr);
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    ASSERT_NE(neural, nullptr);
    neural->SetTraining(false);  // dropout RNG order differs batched/serial

    const SessionBatch batch = CollateSessions(ptrs, SmallConfig().max_positions);
    const float batched = neural->BatchedLossOn(batch).value().at(0);
    double mean = 0.0;
    for (const Example* ex : ptrs) {
      mean += static_cast<double>(neural->LossOn(*ex).value().at(0));
    }
    mean /= static_cast<double>(ptrs.size());
    EXPECT_NEAR(batched, mean, 1e-5 + 1e-5 * std::fabs(mean));
  }
}

// Padded steps are inert in the masked GRU: with *garbage* (not zero) in
// every padded input row, each session's final state still memcmp-equals
// the serial ForwardLast over its real rows, and backward sends exactly
// zero gradient into every padded row.
TEST(BatchEquiv, PaddedStepsAreInertInBatchedGruForwardAndBackward) {
  const int64_t kDim = 6;
  const int64_t kBatch = 3;
  const std::vector<int64_t> lens = {1, 5, 3};
  const int64_t kSteps = 5;

  Rng rng(20260809);
  nn::GRU gru(kDim, kDim, &rng);

  Tensor xt = Tensor::Randn({kSteps * kBatch, kDim}, 0.5f, &rng);
  std::vector<Tensor> step_masks;
  std::vector<uint8_t> step_all_valid;
  for (int64_t t = 0; t < kSteps; ++t) {
    Tensor mask({kBatch, 1});
    bool all = true;
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      if (t >= kSteps - lens[static_cast<size_t>(bi)]) {
        mask.data()[bi] = 1.0f;
      } else {
        all = false;
        // Garbage in padded rows: if any of it leaks into state or
        // gradient, the assertions below catch it.
        for (int64_t j = 0; j < kDim; ++j) {
          xt.data()[(t * kBatch + bi) * kDim + j] = 7.5f;
        }
      }
    }
    step_masks.push_back(std::move(mask));
    step_all_valid.push_back(all ? 1 : 0);
  }

  ag::Variable x(xt, /*requires_grad=*/true);
  ag::Variable h = gru.ForwardBatchedLast(x, kBatch, step_masks,
                                          step_all_valid);
  ASSERT_EQ(h.value().dim(0), kBatch);
  ASSERT_EQ(h.value().dim(1), kDim);

  // Forward: memcmp each session's row against the serial unroll of its
  // real (unpadded) rows.
  for (int64_t bi = 0; bi < kBatch; ++bi) {
    const int64_t len = lens[static_cast<size_t>(bi)];
    Tensor xi({len, kDim});
    for (int64_t p = 0; p < len; ++p) {
      const int64_t t = kSteps - len + p;
      std::memcpy(xi.data() + p * kDim, xt.data() + (t * kBatch + bi) * kDim,
                  sizeof(float) * static_cast<size_t>(kDim));
    }
    const ag::Variable serial = gru.ForwardLast(ag::Variable(xi));
    EXPECT_EQ(std::memcmp(serial.value().data(),
                          h.value().data() + bi * kDim,
                          sizeof(float) * static_cast<size_t>(kDim)),
              0)
        << "session " << bi;
  }

  // Backward: padded rows of x receive gradient exactly 0.0f; live rows
  // carry signal.
  ag::SumAll(h).Backward();
  ASSERT_TRUE(x.node()->grad_ready);
  const Tensor& g = x.node()->grad;
  double live_abs = 0.0;
  for (int64_t t = 0; t < kSteps; ++t) {
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      const bool padded = t < kSteps - lens[static_cast<size_t>(bi)];
      for (int64_t j = 0; j < kDim; ++j) {
        const float gv = g.data()[(t * kBatch + bi) * kDim + j];
        if (padded) {
          EXPECT_EQ(gv, 0.0f) << "t=" << t << " b=" << bi << " j=" << j;
        } else {
          live_abs += std::fabs(gv);
        }
      }
    }
  }
  EXPECT_GT(live_abs, 0.0);
}

// Batched graphs do not leak: live_bytes returns to its pre-forward
// baseline once the graph is destroyed, for both the eval-scoring path and
// a full forward/backward (grad buffers are replaced in steady state, not
// grown) — on a ragged batch, so padded rows cannot hide a leak.
TEST(BatchEquiv, BatchedGraphsReturnLiveBytesToBaseline) {
  prof::Start();
  {
    const ProcessedDataset& data = SmallData();
    const std::vector<Example> exs =
        RaggedExamples(SmallConfig().max_positions);
    std::vector<const Example*> ptrs;
    for (const Example& e : exs) ptrs.push_back(&e);
    std::unique_ptr<Recommender> model = CreateModel(
        "GRU4Rec", data.num_items, data.num_operations, SmallConfig());
    ASSERT_NE(model, nullptr);
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    ASSERT_NE(neural, nullptr);
    neural->SetTraining(false);
    const SessionBatch batch =
        CollateSessions(ptrs, SmallConfig().max_positions);

    // Eval scoring allocates nothing durable.
    {
      const auto warm = neural->ScoreBatch(ptrs);
      ASSERT_EQ(warm.size(), ptrs.size());
    }
    const prof::MemStats score_base = prof::MemSnapshot();
    {
      const auto scores = neural->ScoreBatch(ptrs);
      ASSERT_EQ(scores.size(), ptrs.size());
    }
    EXPECT_EQ(prof::MemSnapshot().live_bytes, score_base.live_bytes);

    // Forward/backward: after a warmup allocates the per-parameter grad
    // buffers, another round trip must end exactly where it started.
    { neural->BatchedLossOn(batch).Backward(); }
    neural->ZeroGrad();
    const prof::MemStats train_base = prof::MemSnapshot();
    { neural->BatchedLossOn(batch).Backward(); }
    neural->ZeroGrad();
    EXPECT_EQ(prof::MemSnapshot().live_bytes, train_base.live_bytes);
  }
  prof::Stop();
}

// Every zoo model's *batched* loss graph passes the tape audit on a ragged
// 3-session batch: all parameters reach the loss, accumulation counts match
// fan-out, no orphaned ops, every op node passes its shape rule — the same
// structural bar the per-session graphs clear in graph_audit_test.cc.
TEST(BatchEquiv, BatchedGraphPassesTapeAuditAcrossZoo) {
  // The tiny zoo fixture (train/model_zoo.h) with a ragged trio:
  // its 3-item session, then 1-item and 5-item micro-behavior sessions.
  const Example e1 = TinyZooExample();
  Example e2;
  e2.macro_items = {5};
  e2.macro_ops = {{2}};
  e2.flat_items = {5};
  e2.flat_ops = {2};
  e2.target = 1;
  Example e3;
  e3.macro_items = {1, 2, 3, 4, 6};
  e3.macro_ops = {{0}, {1}, {2}, {3}, {0}};
  e3.flat_items = {1, 2, 3, 4, 6};
  e3.flat_ops = {0, 1, 2, 3, 0};
  e3.target = 11;
  const std::vector<const Example*> ptrs = {&e1, &e2, &e3};

  int neural_audited = 0;
  for (const std::string& name : ZooModelNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Recommender> model = CreateTinyZooModel(name);
    ASSERT_NE(model, nullptr) << name;
    auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
    if (neural == nullptr) continue;  // memory-based: no graph to audit
    ++neural_audited;

    neural->SetTraining(false);
    neural->ZeroGrad();
    const SessionBatch batch =
        CollateSessions(ptrs, TinyZooConfig().max_positions);
    ag::Tape tape;
    ag::Variable loss = neural->BatchedLossOn(batch);
    loss.Backward();
    const analyze::TapeAuditReport report =
        analyze::AuditTape(loss, neural->NamedParameters(), tape);
    EXPECT_TRUE(report.ok()) << name << ": " << report.ToString();
    EXPECT_GT(report.stats.reachable_nodes, 0);
    EXPECT_GT(report.stats.shapes_checked, 0);
  }
  EXPECT_GE(neural_audited, 13);
}

}  // namespace
}  // namespace embsr
