#ifndef EMBSR_MODELS_RECOMMENDER_H_
#define EMBSR_MODELS_RECOMMENDER_H_

#include <string>
#include <vector>

#include "data/session.h"
#include "util/status.h"

namespace embsr {

/// Training hyperparameters shared by all neural models (the paper's
/// Sec. V-A-4 setup, scaled for CPU).
struct TrainConfig {
  int epochs = 5;
  /// Examples per optimizer step (gradient-accumulation mini-batch).
  int batch_size = 64;
  /// Sessions per collated forward: Fit cuts each mini-batch into chunks of
  /// this many, and Evaluate scores chunks of this many. Eval scores are
  /// bitwise equal at any value; training at > 1 is equal within float
  /// tolerance (DESIGN.md §15).
  int forward_batch = 1;
  float lr = 0.003f;
  /// Step decay: lr *= gamma every `lr_decay_step` epochs.
  float lr_decay_gamma = 0.5f;
  int lr_decay_step = 3;
  float weight_decay = 1e-5f;
  float clip_norm = 5.0f;
  float dropout = 0.2f;
  int64_t embedding_dim = 32;
  /// Longest flat micro-behavior sequence fed to attention models.
  int max_positions = 64;
  uint64_t seed = 7;
  bool verbose = false;
  /// If > 0, subsample the training split to at most this many examples.
  int max_train_examples = 0;
  /// If > 0, evaluate on the validation split every epoch and restore the
  /// best parameters at the end (by MRR@20); 0 disables.
  int validate_every = 1;
};

/// A session-based recommender: anything that can be fit on a processed
/// dataset and then score every candidate item for a session prefix.
class Recommender {
 public:
  virtual ~Recommender() = default;

  virtual std::string name() const = 0;

  /// Trains (or indexes) the model on `data.train` (+ `data.valid`).
  virtual Status Fit(const ProcessedDataset& data) = 0;

  /// Scores all items for one example; the returned vector has
  /// `num_items` entries, higher = more likely next item.
  ///
  /// Thread-safety contract: after EnsureEvalMode() returns, concurrent
  /// ScoreAll calls from multiple threads must be safe — the evaluator
  /// fans examples out across the par:: pool. In practice this means the
  /// scoring path must be read-only on model state, or lock what it
  /// writes (nn::Embedding's decode cache does). Scoring is inference
  /// only: neural models run it under ag::NoGradScope and build no
  /// backward graph.
  virtual std::vector<float> ScoreAll(const Example& ex) = 0;

  /// Pins the model into evaluation mode so that subsequent ScoreAll calls
  /// mutate no shared state (see the contract above). Called once by the
  /// evaluator before its parallel scoring loop. Default: no-op, which is
  /// correct for stateless/baseline scorers.
  virtual void EnsureEvalMode() {}
};

}  // namespace embsr

#endif  // EMBSR_MODELS_RECOMMENDER_H_
