#ifndef EMBSR_NN_CHECKPOINT_H_
#define EMBSR_NN_CHECKPOINT_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "util/rng.h"
#include "util/status.h"

namespace embsr {
namespace nn {

/// Everything beyond raw weights that exact training resumption needs.
/// The optimizer portion is opaque to nn (a scalar list plus a tensor
/// list) so this header does not depend on optim; optim::Optimizer
/// exports/imports into these fields.
struct TrainState {
  /// Number of completed epochs (the resume point).
  int32_t epoch = 0;
  /// Best validation MRR@20 seen so far; < 0 = no validation yet.
  double best_mrr = -1.0;
  /// Parameter snapshot at the best validation point (empty if none).
  std::vector<Tensor> best_params;
  /// Training RNG stream (dropout draws etc.), restored bit-for-bit.
  RngState rng;
  /// Opaque optimizer state: scalars (e.g. Adam's step count) + slot
  /// tensors (e.g. Adam's m and v), in the optimizer's own order.
  std::vector<double> opt_scalars;
  std::vector<Tensor> opt_slots;
};

/// Binary checkpointing of a module's parameters and (optionally) its full
/// training state.
///
/// Format v2 (little-endian):
///   magic "EMBSRCKP" (8 bytes), version u32 = 2, flags u32 (bit0 = has
///   TrainState), parameter count u32, then per parameter: name length u32
///   + name bytes, rank u32 + dims i64[], data f32[]. When bit0 is set the
///   TrainState follows: epoch i32, best_mrr f64, best-params tensor list,
///   RNG state (4x u64 + u32 flag + f64), optimizer scalars (count u32 +
///   f64[]) and slot tensor list. The file ends with a u32 CRC-32 of every
///   preceding byte, so truncation and bit rot are always detected.
///
/// Any other version is rejected as InvalidArgument. Loading verifies that
/// names, order and shapes match the target module exactly, so a checkpoint
/// can only be restored into the same architecture (by design: silent
/// partial loads hide bugs). Every read is bounds-checked; errors carry the
/// failing byte offset.
///
/// Writes are crash-safe: the file is assembled in memory, written to a
/// same-directory temporary, fsync'd and atomically renamed (see
/// AtomicWriteFile), so a crash mid-save never corrupts an existing
/// checkpoint. Failpoints "ckpt.write" (injected I/O error) and
/// "ckpt.truncate" (silently truncated payload, for exercising the CRC
/// path) hook the write.
Status SaveCheckpoint(const Module& module, const std::string& path);

/// Saves weights plus training state (format v2 with flags bit0 set).
Status SaveCheckpoint(const Module& module, const TrainState& state,
                      const std::string& path);

/// Restores weights into `module`; a trailing TrainState, if present, is
/// ignored.
Status LoadCheckpoint(const std::string& path, Module* module);

/// Restores weights and training state. Fails with FailedPrecondition on a
/// checkpoint that has no training state.
Status LoadCheckpoint(const std::string& path, Module* module,
                      TrainState* state);

}  // namespace nn
}  // namespace embsr

#endif  // EMBSR_NN_CHECKPOINT_H_
