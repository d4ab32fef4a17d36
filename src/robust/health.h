#ifndef EMBSR_ROBUST_HEALTH_H_
#define EMBSR_ROBUST_HEALTH_H_

namespace embsr {
namespace robust {

/// Numerical-health policy for the training loop. Callers fill the fields
/// in code; the trainer uses the defaults.
struct HealthConfig {
  /// Consecutive bad batches before rollback.
  int max_strikes = 3;
  /// Grad-norm explosion threshold; 0 = off.
  double grad_limit = 1e4;
  /// lr multiplier applied per bad batch, in (0, 1).
  double lr_backoff = 0.5;
  /// Floor for the cumulative backoff so lr never underflows to zero.
  double min_lr_scale = 1.0 / 1024.0;
};

/// What the training loop should do with the batch it just computed.
enum class BatchVerdict {
  kOk,        // step normally
  kSkip,      // discard gradients, do not step, retry with backed-off lr
  kRollback,  // too many consecutive strikes: restore last good state
};

/// Watches per-batch loss and gradient norm for NaN/Inf and explosions.
///
/// A bad batch earns a *strike*: the caller should drop the gradients and
/// skip the optimizer step, and `lr_scale()` decays so the next steps tread
/// more carefully. A good batch clears the strike count and lets lr_scale
/// recover one backoff step at a time. After `max_strikes` consecutive bad
/// batches the verdict escalates to kRollback — skipping cannot help once
/// the *parameters* (not the batch) are poisoned — and the caller should
/// restore the last known-good checkpoint and call NotifyRollback().
///
/// Everything is counted in the obs metrics registry so training-side
/// degradation is visible in run logs, not just the text log:
/// `robust/unhealthy_batches` and `robust/rollbacks` counters plus the
/// `robust/health_lr_scale`, `robust/health_strikes` and
/// `robust/health_backoff_level` gauges (the last is the integer number of
/// backoff steps lr_scale sits below 1.0).
class HealthGuard {
 public:
  explicit HealthGuard(const HealthConfig& config = {});

  /// Judges one batch. `loss` is the batch-mean loss, `grad_norm` the
  /// global (pre-clip) gradient norm.
  BatchVerdict CheckBatch(double loss, double grad_norm);

  /// The caller restored the last good state; clears the strike count
  /// (the backed-off lr_scale is kept so the retrained steps stay small).
  void NotifyRollback();

  /// Multiplier the training loop applies to the scheduled lr.
  double lr_scale() const { return lr_scale_; }
  int strikes() const { return strikes_; }
  const HealthConfig& config() const { return config_; }

  /// True when (loss, grad_norm) would earn a strike under `config`.
  static bool IsUnhealthy(const HealthConfig& config, double loss,
                          double grad_norm);

 private:
  /// Mirrors strikes / lr_scale / backoff level into the obs gauges.
  void ExportMetrics() const;

  HealthConfig config_;
  int strikes_ = 0;
  double lr_scale_ = 1.0;
};

}  // namespace robust
}  // namespace embsr

#endif  // EMBSR_ROBUST_HEALTH_H_
