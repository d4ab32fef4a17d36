#ifndef EMBSR_DATA_PREPROCESS_H_
#define EMBSR_DATA_PREPROCESS_H_

#include <string>
#include <vector>

#include "data/session.h"
#include "util/rng.h"
#include "util/status.h"

namespace embsr {

/// Knobs of the paper's preprocessing protocol (Sec. V-A-1).
struct PreprocessConfig {
  /// Items occurring fewer than this many times are removed (50 for the JD
  /// datasets, 5 for Trivago in the paper).
  int min_item_support = 5;
  /// Maximum number of micro-behaviors kept per session (long sessions keep
  /// their most recent events). 0 disables truncation.
  int max_session_events = 50;
  /// Split fractions; test gets the remainder.
  double train_fraction = 0.7;
  double valid_fraction = 0.1;
  /// Shuffle sessions before splitting.
  bool shuffle = true;
  uint64_t shuffle_seed = 17;
  /// If >= 0, keep only events with this operation id when forming the
  /// *macro item sequence* (the supplement's "single type of operation"
  /// protocol); the ground truth is kept consistent with the full data.
  int64_t restrict_macro_to_operation = -1;
};

/// Runs the full preprocessing pipeline on raw sessions:
///   1. drop items with support below `min_item_support`,
///   2. merge successive same-item micro-behaviors into macro items,
///   3. drop sessions with fewer than two macro items,
///   4. split 70/10/20,
///   5. restrict valid/test to items seen in training,
///   6. emit Examples with the last macro item as target.
///
/// `num_operations` is the size of the operation vocabulary (operation ids in
/// the sessions must already be dense in [0, num_operations)).
Result<ProcessedDataset> Preprocess(const std::vector<Session>& sessions,
                                    int64_t num_operations,
                                    const PreprocessConfig& config,
                                    const std::string& name);

/// Merges successive same-item events: returns macro items and their
/// per-item operation runs (the macro half of ExampleFromEvents).
void MergeSuccessive(const std::vector<MicroBehavior>& events,
                     std::vector<int64_t>* macro_items,
                     std::vector<std::vector<int64_t>>* macro_ops);

/// Builds a model input from a flat micro-behavior run, given as parallel
/// item and operation columns of equal length: the run itself becomes
/// `flat_items`/`flat_ops`, and each maximal run of successive same-item
/// events one macro item with its operations (Sec. II-B). `target` is left
/// 0. Preprocessing and the serving session store both build their
/// Examples here.
Example ExampleFromEvents(std::vector<int64_t> flat_items,
                          std::vector<int64_t> flat_ops);

/// Mini-batch index iterator: shuffles [0, n) and yields chunks.
class BatchIterator {
 public:
  BatchIterator(size_t n, size_t batch_size, Rng* rng);

  /// Next chunk of indices; empty when exhausted.
  std::vector<size_t> Next();

  bool Done() const { return pos_ >= order_.size(); }

 private:
  std::vector<size_t> order_;
  size_t batch_size_;
  size_t pos_ = 0;
};

}  // namespace embsr

#endif  // EMBSR_DATA_PREPROCESS_H_
