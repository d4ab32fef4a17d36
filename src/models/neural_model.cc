#include "models/neural_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/preprocess.h"
#include "metrics/metrics.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "prof/op_profiler.h"
#include "robust/ckpt_manager.h"
#include "robust/failpoint.h"
#include "robust/health.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace embsr {

namespace {

// Salts for the derived RNG streams (see DeriveSeed): the subsample
// selection and each epoch's visit order depend only on (seed, salt,
// epoch), never on how much training history preceded them — the property
// that makes checkpoint resume replay the uninterrupted schedule exactly.
constexpr uint64_t kSubsampleSalt = 0x5AB5A17ULL;
constexpr uint64_t kEpochShuffleSalt = 0xE90C45ULL;

bool AllFinite(const std::vector<Tensor>& tensors) {
  for (const Tensor& t : tensors) {
    const float* p = t.data();
    for (int64_t i = 0; i < t.size(); ++i) {
      if (!std::isfinite(p[i])) return false;
    }
  }
  return true;
}

}  // namespace

NeuralSessionModel::NeuralSessionModel(std::string name, int64_t num_items,
                                       int64_t num_operations,
                                       const TrainConfig& config)
    : name_(std::move(name)),
      num_items_(num_items),
      num_operations_(num_operations),
      cfg_(config),
      rng_(config.seed) {
  EMBSR_CHECK_GT(num_items_, 0);
  EMBSR_CHECK_GE(num_operations_, 0);
}

Status NeuralSessionModel::Fit(const ProcessedDataset& data) {
  EMBSR_TRACE_SPAN("train/fit");
  // A non-positive batch would never advance the mini-batch loop (0) or
  // wrap its size_t stride (-1); reject both before any work.
  if (cfg_.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1, got " +
                                   std::to_string(cfg_.batch_size));
  }
  if (cfg_.forward_batch < 1) {
    return Status::InvalidArgument("forward_batch must be >= 1, got " +
                                   std::to_string(cfg_.forward_batch));
  }
  if (data.train.empty()) {
    return Status::InvalidArgument("empty training split");
  }
  if (data.num_items != num_items_) {
    return Status::InvalidArgument("model/dataset item count mismatch");
  }

  std::vector<const Example*> train;
  train.reserve(data.train.size());
  for (const auto& ex : data.train) train.push_back(&ex);
  if (cfg_.max_train_examples > 0 &&
      static_cast<int>(train.size()) > cfg_.max_train_examples) {
    Rng subsample_rng(DeriveSeed(cfg_.seed, kSubsampleSalt));
    subsample_rng.Shuffle(&train);
    // lint: allow(raw-resize): post-shuffle subsample truncation
    train.resize(cfg_.max_train_examples);
  }

  optim::Adam opt(Parameters(), cfg_.lr, 0.9f, 0.999f, 1e-8f,
                  cfg_.weight_decay);
  optim::StepDecaySchedule schedule(cfg_.lr, cfg_.lr_decay_step,
                                    cfg_.lr_decay_gamma);
  const float inv_batch = 1.0f / static_cast<float>(cfg_.batch_size);
  const size_t batch_size = static_cast<size_t>(cfg_.batch_size);
  const size_t forward_batch = static_cast<size_t>(cfg_.forward_batch);

  double best_mrr = -1.0;
  std::vector<Tensor> best_params;

  robust::HealthGuard guard;
  robust::CheckpointManager ckpt(robust::CheckpointManagerConfig::FromEnv(),
                                 name_ + "-" + data.name);
  auto& failpoints = robust::Failpoints::Global();

  obs::RunLogger* run_log = obs::RunLogger::Global();
  static obs::Gauge* loss_gauge =
      obs::Registry::Global().GetGauge("train/loss");
  static obs::Gauge* throughput_gauge =
      obs::Registry::Global().GetGauge("train/examples_per_sec");
  static obs::Counter* epoch_counter =
      obs::Registry::Global().GetCounter("train/epochs");
  static obs::Counter* skipped_counter =
      obs::Registry::Global().GetCounter("robust/skipped_batches");
  static obs::Counter* resume_counter =
      obs::Registry::Global().GetCounter("robust/resumes");

  // Resume: pick up the newest loadable checkpoint of this (model, dataset)
  // run. Weights, optimizer moments, RNG stream, best-validation snapshot
  // and epoch counter all restore, so the continued run is bit-for-bit the
  // uninterrupted one.
  int start_epoch = 0;
  if (ckpt.enabled()) {
    nn::TrainState st;
    std::vector<std::string> skipped_corrupt;
    const Status s = ckpt.LoadLatest(this, &st, &skipped_corrupt);
    if (!skipped_corrupt.empty()) {
      EMBSR_LOG(Warning) << name_ << "/" << data.name << ": resume skipped "
                         << skipped_corrupt.size()
                         << " corrupt checkpoint(s), newest: "
                         << skipped_corrupt.front();
    }
    if (s.ok()) {
      const Status imp = opt.ImportState(st.opt_scalars, st.opt_slots);
      if (imp.ok()) {
        rng_.RestoreState(st.rng);
        start_epoch = st.epoch;
        best_mrr = st.best_mrr;
        best_params = std::move(st.best_params);
        resume_counter->Increment();
        EMBSR_LOG(Info) << name_ << "/" << data.name << ": resuming from "
                        << start_epoch << " completed epoch(s)";
      } else {
        EMBSR_LOG(Warning) << "checkpoint optimizer state rejected ("
                           << imp.ToString() << "); training from scratch";
      }
    } else if (s.code() != StatusCode::kNotFound) {
      EMBSR_LOG(Warning) << "checkpoint resume failed (" << s.ToString()
                         << "); training from scratch";
    }
  }

  // Last-known-good state for health-guard rollbacks, refreshed at every
  // epoch boundary whose parameters are all finite. Kept in memory so
  // rollback works even with checkpointing disabled.
  std::vector<Tensor> good_params = SnapshotParameters();
  std::vector<double> good_opt_scalars;
  std::vector<Tensor> good_opt_slots;
  opt.ExportState(&good_opt_scalars, &good_opt_slots);
  RngState good_rng = rng_.SaveState();

  for (int epoch = start_epoch; epoch < cfg_.epochs; ++epoch) {
    EMBSR_TRACE_SPAN("train/epoch");
    WallTimer timer;
    SetTraining(true);
    const float epoch_lr = schedule.LrForEpoch(epoch);
    // Visit order is a pure function of (seed, epoch): iota + shuffle from
    // a derived stream, independent of rng_ and of previous epochs.
    std::vector<const Example*> order = train;
    Rng shuffle_rng(DeriveSeed(cfg_.seed, kEpochShuffleSalt + epoch));
    shuffle_rng.Shuffle(&order);

    double epoch_loss = 0.0;
    double grad_norm_sum = 0.0;
    int64_t steps = 0;
    int64_t batches = 0;
    int64_t skipped = 0;

    for (size_t begin = 0; begin < order.size(); begin += batch_size) {
      const size_t end = std::min(begin + batch_size, order.size());
      opt.ZeroGrad();
      double batch_loss = 0.0;
      for (size_t i = begin; i < end; i += forward_batch) {
        const size_t sub_end = std::min(i + forward_batch, end);
        // One profiler step = one forward-batch's forward + backward; the
        // per-op attributed times must sum to this span (prof_test pins it).
        prof::StepScope prof_step;
        const std::vector<const Example*> chunk(
            order.begin() + static_cast<ptrdiff_t>(i),
            order.begin() + static_cast<ptrdiff_t>(sub_end));
        ag::Variable loss =
            BatchedLossOn(CollateSessions(chunk, cfg_.max_positions));
        const float chunk_n = static_cast<float>(sub_end - i);
        // BatchedLossOn is the chunk *mean*; batch_loss accumulates
        // per-example sums, and the backward scale re-weights the mean
        // so accumulated gradients equal the batch-mean gradient.
        batch_loss += static_cast<double>(loss.value().at(0)) * chunk_n;
        ag::Scale(loss, chunk_n * inv_batch).Backward();
      }
      const int64_t batch_examples = static_cast<int64_t>(end - begin);

      if (failpoints.ShouldFail("train.nan_grad")) {
        // Poison the accumulated gradient of the first parameter, the way
        // a real fp32 overflow in backward would.
        auto params = Parameters();
        if (!params.empty()) {
          Tensor poison(params[0].value().shape(),
                        std::numeric_limits<float>::quiet_NaN());
          params[0].node()->AccumulateGrad(poison);
        }
      }

      const float grad_norm =
          cfg_.clip_norm > 0.0f
              ? optim::ClipGradNorm(Parameters(), cfg_.clip_norm)
              : optim::GlobalGradNorm(Parameters());

      const robust::BatchVerdict verdict = guard.CheckBatch(
          batch_loss / static_cast<double>(batch_examples), grad_norm);
      if (verdict == robust::BatchVerdict::kOk) {
        epoch_loss += batch_loss;
        grad_norm_sum += grad_norm;
        steps += batch_examples;
        ++batches;
        opt.set_lr(epoch_lr * static_cast<float>(guard.lr_scale()));
        opt.Step();
        continue;
      }
      ++skipped;
      skipped_counter->Increment();
      if (verdict == robust::BatchVerdict::kRollback) {
        // Skipping can only cure a bad *batch*; after max_strikes
        // consecutive failures the parameters themselves are suspect, so
        // restore the last good state (weights + moments + RNG).
        EMBSR_LOG(Warning)
            << name_ << " epoch " << epoch + 1 << ": " << guard.strikes()
            << " consecutive unhealthy batches, rolling back to last good "
               "state (lr scale " << guard.lr_scale() << ")";
        RestoreParameters(good_params);
        EMBSR_CHECK_OK(opt.ImportState(good_opt_scalars, good_opt_slots));
        rng_.RestoreState(good_rng);
        guard.NotifyRollback();
      }
    }

    const double epoch_seconds = timer.ElapsedSeconds();
    const double mean_loss = steps > 0 ? epoch_loss / steps : 0.0;
    const double examples_per_sec =
        epoch_seconds > 0.0 ? static_cast<double>(steps) / epoch_seconds
                            : 0.0;
    loss_gauge->Set(mean_loss);
    throughput_gauge->Set(examples_per_sec);
    epoch_counter->Increment();

    if (cfg_.verbose) {
      EMBSR_LOG(Info) << name_ << " epoch " << epoch + 1 << "/"
                      << cfg_.epochs << " loss=" << mean_loss << " ("
                      << epoch_seconds << "s)";
    }

    double valid_mrr = -1.0;
    if (cfg_.validate_every > 0 && !data.valid.empty() &&
        (epoch + 1) % cfg_.validate_every == 0) {
      EMBSR_TRACE_SPAN("train/validate");
      const double mrr = ValidationMrr(data.valid, 400);
      valid_mrr = mrr;
      if (mrr > best_mrr) {
        best_mrr = mrr;
        best_params = SnapshotParameters();
      }
      if (cfg_.verbose) {
        EMBSR_LOG(Info) << name_ << " valid MRR@20=" << mrr;
      }
    }

    std::vector<Tensor> epoch_snapshot = SnapshotParameters();
    if (AllFinite(epoch_snapshot)) {
      good_params = std::move(epoch_snapshot);
      opt.ExportState(&good_opt_scalars, &good_opt_slots);
      good_rng = rng_.SaveState();
    }

    if (ckpt.ShouldSaveAfterEpoch(epoch + 1, cfg_.epochs)) {
      nn::TrainState st;
      st.epoch = epoch + 1;
      st.best_mrr = best_mrr;
      st.best_params = best_params;
      st.rng = rng_.SaveState();
      opt.ExportState(&st.opt_scalars, &st.opt_slots);
      const Status cs = ckpt.Save(*this, st);
      if (!cs.ok()) {
        // A failed checkpoint must not kill training: log it, keep the
        // previous checkpoints, and continue. Counted by the manager.
        EMBSR_LOG(Warning) << name_ << " epoch " << epoch + 1
                           << ": checkpoint save failed: " << cs.ToString();
      }
    }

    if (run_log != nullptr) {
      obs::EpochRecord rec;
      rec.model = name_;
      rec.dataset = data.name;
      rec.epoch = epoch + 1;
      rec.total_epochs = cfg_.epochs;
      rec.loss = mean_loss;
      rec.grad_norm = batches > 0 ? grad_norm_sum / batches : 0.0;
      rec.wall_seconds = epoch_seconds;
      rec.examples_per_sec = examples_per_sec;
      rec.lr = opt.lr();
      rec.valid_mrr = valid_mrr;
      rec.skipped_batches = skipped;
      run_log->LogEpoch(rec);
    }

    if (failpoints.ShouldFail("train.crash")) {
      return robust::InjectedFailure(
          "train.crash", "simulated crash after epoch " +
                             std::to_string(epoch + 1) + " of " + name_);
    }
  }

  if (!best_params.empty()) RestoreParameters(best_params);
  SetTraining(false);
  return Status::OK();
}

ag::Variable NeuralSessionModel::LossOn(const Example& ex) {
  return BatchedLossOn(CollateSessions({&ex}, cfg_.max_positions));
}

ag::Variable NeuralSessionModel::BatchedLossOn(const SessionBatch& batch) {
  // Contract: the batch must reference this model's vocabulary. Item ids
  // inside the sessions are checked by Embedding at lookup; targets are
  // only ever used as logits columns, so check them here at the model edge.
  // Indexed loop: EMBSR_CHECK_BOUNDS compiles to ((void)0) in
  // non-contracts builds, which would leave a range-for binding unused.
  for (size_t i = 0; i < batch.targets.size(); ++i) {
    EMBSR_CHECK_BOUNDS(batch.targets[i], 0, num_items_);
  }
  ag::Variable logits = BatchedLogits(batch);
  prof::ComponentScope prof_component("loss");
  return ag::SoftmaxCrossEntropy(logits, batch.targets);
}

std::vector<std::vector<float>> NeuralSessionModel::ScoreBatch(
    const std::vector<const Example*>& examples) {
  EMBSR_TIMED_SPAN("model/score_all", "model/score_all_ms");
  // Scoring never runs backward, so it records no graph: every op's node
  // holds no parents and no closure, and each session's intermediates are
  // freed as the forward moves past them instead of living until the
  // logits die. Forward values are unchanged (BatchEquiv pins them).
  ag::NoGradScope no_grad;
  // Inference has no StepScope; re-origin the forward gap here so time
  // spent between scoring calls is never attributed to the first op.
  prof::Collector::MarkThisThread();
  const SessionBatch batch = CollateSessions(examples, cfg_.max_positions);
  // Only toggle the mode flag if the model is actually in training mode.
  // When it is already in eval mode — the steady state after Fit(), and the
  // state the parallel evaluator pins via EnsureEvalMode() — this method
  // must not write any shared model state: concurrent scoring calls from
  // evaluator threads rely on the forward pass being read-only.
  const bool was_training = training();
  if (was_training) SetTraining(false);
  ag::Variable logits = BatchedLogits(batch);
  if (was_training) SetTraining(true);
  const Tensor& v = logits.value();
  EMBSR_CHECK_EQ(v.rows(), batch.batch);
  EMBSR_CHECK_EQ(v.cols(), num_items_);
  const std::vector<float>& flat = v.vec();
  std::vector<std::vector<float>> out(examples.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    const auto begin =
        flat.begin() + static_cast<int64_t>(i) * num_items_;
    out[i].assign(begin, begin + num_items_);
  }
  return out;
}

std::vector<float> NeuralSessionModel::ScoreAll(const Example& ex) {
  return std::move(ScoreBatch({&ex})[0]);
}

double NeuralSessionModel::ValidationMrr(const std::vector<Example>& split,
                                         size_t cap) {
  RankAccumulator acc;
  const size_t n = std::min(split.size(), cap);
  for (size_t i = 0; i < n; ++i) {
    acc.Add(RankOfTarget(ScoreAll(split[i]), split[i].target));
  }
  return acc.MrrAt(20);
}

std::vector<Tensor> NeuralSessionModel::SnapshotParameters() const {
  std::vector<Tensor> out;
  for (const auto& p : Parameters()) out.push_back(p.value());
  return out;
}

void NeuralSessionModel::RestoreParameters(
    const std::vector<Tensor>& snapshot) {
  auto params = Parameters();
  EMBSR_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = snapshot[i];
  }
}

ag::Variable PerSessionModel::BatchedLogits(const SessionBatch& batch) {
  std::vector<ag::Variable> rows;
  rows.reserve(batch.examples.size());
  for (const Example* ex : batch.examples) rows.push_back(Logits(*ex));
  return rows.size() == 1 ? rows[0] : ag::StackRows(rows);
}

}  // namespace embsr
