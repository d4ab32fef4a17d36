#ifndef EMBSR_MODELS_NEURAL_MODEL_H_
#define EMBSR_MODELS_NEURAL_MODEL_H_

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "models/recommender.h"
#include "models/session_batch.h"
#include "nn/module.h"
#include "util/rng.h"

namespace embsr {

/// Base class for all gradient-trained session recommenders.
///
/// Every forward runs over a collated SessionBatch: subclasses implement
/// BatchedLogits(batch) -> [batch, num_items], either natively (GRU4Rec,
/// STAMP, EMBSR) or through PerSessionModel's stacked rows. The base
/// provides the training loop (Adam, step-decay LR, gradient accumulation
/// over mini-batches of TrainConfig::forward_batch-session chunks,
/// global-norm clipping, best-on-validation checkpointing) and
/// inference-mode scoring without a backward graph. The single-session
/// entry points (ScoreAll, LossOn) are one-session batches.
class NeuralSessionModel : public Recommender, public nn::Module {
 public:
  NeuralSessionModel(std::string name, int64_t num_items,
                     int64_t num_operations, const TrainConfig& config);

  std::string name() const override { return name_; }

  Status Fit(const ProcessedDataset& data) override;

  /// ScoreBatch of the one-session batch {&ex}.
  std::vector<float> ScoreAll(const Example& ex) override;

  /// Drops the module tree into eval mode (training() == false), after which
  /// ScoreAll is a pure read of parameters and safe to call concurrently.
  void EnsureEvalMode() override { SetTraining(false); }

  /// Differentiable training loss on one example: BatchedLossOn of the
  /// one-session batch. Public so external verifiers (src/verify
  /// gradcheck) can check d(loss)/d(parameters) end-to-end.
  ag::Variable LossOn(const Example& ex);

  /// Differentiable *mean* loss over a collated forward-batch: softmax
  /// cross-entropy of BatchedLogits against the batch's targets, averaged
  /// over its sessions. Fit backs Scale(BatchedLossOn(b), b.batch /
  /// batch_size) for every chunk of a mini-batch.
  ag::Variable BatchedLossOn(const SessionBatch& batch);

  /// Scores every session of `examples` through one batched forward
  /// (eval-mode logits, row per session). In eval mode this is a pure read
  /// of parameters, so evaluator threads may score disjoint batches
  /// concurrently. The forward runs under an ag::NoGradScope: it records no
  /// parents and no backward closures, so each session's intermediates are
  /// freed as the forward moves on, and its scores are bitwise the logits
  /// LossOn records with the graph on. Every scoring path (ScoreAll,
  /// validation, Evaluate, serving) comes through here.
  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const Example*>& examples);

  /// Copies of every parameter value, in Parameters() order.
  std::vector<Tensor> SnapshotParameters() const;
  /// Writes a SnapshotParameters() copy back: Fit's best-validation and
  /// health-rollback restores.
  void RestoreParameters(const std::vector<Tensor>& snapshot);

  const TrainConfig& config() const { return cfg_; }
  int64_t num_items() const { return num_items_; }
  int64_t num_operations() const { return num_operations_; }

 protected:
  /// The model's one forward: unnormalized scores [batch, num_items] for a
  /// collated batch, differentiable. Row i must depend on session i alone
  /// and, in eval mode, be bit-identical at any batch size
  /// (tests/batch_equiv_test.cc holds every zoo model to it).
  virtual ag::Variable BatchedLogits(const SessionBatch& batch) = 0;

  Rng* rng() { return &rng_; }

 private:
  /// Mean reciprocal rank @20 on a split, in inference mode.
  double ValidationMrr(const std::vector<Example>& split, size_t cap);

  std::string name_;
  int64_t num_items_;
  int64_t num_operations_;
  TrainConfig cfg_;
  Rng rng_;
};

/// Base for models whose forward is defined one session at a time (each
/// session owns its own graph). They implement Logits(ex) -> [1, num_items];
/// the batched forward stacks those rows. BatchedLogits is final, so a model
/// defines exactly one of the two forwards.
class PerSessionModel : public NeuralSessionModel {
 public:
  using NeuralSessionModel::NeuralSessionModel;

 protected:
  /// Unnormalized scores over all items for one example, differentiable.
  virtual ag::Variable Logits(const Example& ex) = 0;

  ag::Variable BatchedLogits(const SessionBatch& batch) final;
};

}  // namespace embsr

#endif  // EMBSR_MODELS_NEURAL_MODEL_H_
