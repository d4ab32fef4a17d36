#ifndef EMBSR_ROBUST_CKPT_MANAGER_H_
#define EMBSR_ROBUST_CKPT_MANAGER_H_

#include <string>
#include <vector>

#include "nn/checkpoint.h"
#include "util/status.h"

namespace embsr {
namespace robust {

/// Where and how often training checkpoints land, read from:
///
///   EMBSR_CKPT_DIR    directory for checkpoints; empty = disabled
///   EMBSR_CKPT_KEEP   keep the newest N checkpoints per run (3)
///   EMBSR_CKPT_EVERY  save every N completed epochs (1)
struct CheckpointManagerConfig {
  std::string dir;
  int keep_last = 3;
  int every_epochs = 1;

  static CheckpointManagerConfig FromEnv();
};

/// Crash-safe epoch checkpointing for one training run.
///
/// Each (model, dataset) run gets its own file family
/// `<run_id>.epoch<NNNNNN>.ckpt` inside the configured directory. Save()
/// writes atomically (see SaveCheckpoint) and prunes everything older than
/// the newest `keep_last` files. LoadLatest() walks the family newest-first
/// and *skips* checkpoints that fail to load (truncated, CRC mismatch) —
/// a torn file from a crashed run degrades to resuming one epoch earlier
/// instead of failing the run. Skipped corrupt files are counted in
/// `robust/ckpt_corrupt_skipped`.
class CheckpointManager {
 public:
  CheckpointManager(CheckpointManagerConfig config, const std::string& run_id);

  /// False when no checkpoint directory is configured; all other calls are
  /// then no-ops returning FailedPrecondition.
  bool enabled() const { return !config_.dir.empty(); }

  /// Whether the loop should checkpoint after `completed_epochs`.
  bool ShouldSaveAfterEpoch(int completed_epochs, int total_epochs) const;

  /// Saves module weights + training state for `state.epoch` completed
  /// epochs and applies retention.
  [[nodiscard]] Status Save(const nn::Module& module,
                            const nn::TrainState& state);

  /// Restores the newest loadable checkpoint of this run into
  /// (module, state). A checkpoint that fails to load changes neither
  /// (nn::LoadCheckpoint is all or nothing). NotFound when none exists (a
  /// fresh run); when
  /// checkpoints existed but every one was corrupt, the NotFound message
  /// lists the skipped paths so the operator sees *what* was lost, not just
  /// that resume fell through. `skipped_corrupt`, when non-null, receives
  /// the paths of corrupt checkpoints that were skipped on the way to a
  /// successful (or failed) load, newest first; each skip also bumps the
  /// `robust/ckpt_corrupt_skipped` counter.
  [[nodiscard]] Status LoadLatest(
      nn::Module* module, nn::TrainState* state,
      std::vector<std::string>* skipped_corrupt = nullptr) const;

  /// This run's checkpoint paths, oldest first.
  std::vector<std::string> ListCheckpoints() const;

  const CheckpointManagerConfig& config() const { return config_; }
  const std::string& run_id() const { return run_id_; }

  /// Turns an arbitrary model/dataset label into a filesystem-safe run id.
  static std::string SanitizeRunId(const std::string& raw);

 private:
  std::string PathForEpoch(int epoch) const;

  CheckpointManagerConfig config_;
  std::string run_id_;
};

}  // namespace robust
}  // namespace embsr

#endif  // EMBSR_ROBUST_CKPT_MANAGER_H_
