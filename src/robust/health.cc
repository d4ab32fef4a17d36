#include "robust/health.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace embsr {
namespace robust {

HealthGuard::HealthGuard(const HealthConfig& config) : config_(config) {
  // Publish the healthy baseline so the gauges describe *this* guard from
  // its first batch, not whatever the previous run left behind.
  ExportMetrics();
}

bool HealthGuard::IsUnhealthy(const HealthConfig& config, double loss,
                              double grad_norm) {
  if (!std::isfinite(loss) || !std::isfinite(grad_norm)) return true;
  return config.grad_limit > 0.0 && grad_norm > config.grad_limit;
}

// Number of backoff steps the current lr_scale is away from 1.0 — the
// integer "how degraded is training right now" signal mirrored into the
// run-log metrics (0 = full lr, K = lr multiplied by backoff^K).
static int BackoffLevel(double lr_scale, double backoff) {
  int level = 0;
  for (double s = 1.0; s > lr_scale * (1.0 + 1e-9) && level < 64;
       s *= backoff) {
    ++level;
  }
  return level;
}

void HealthGuard::ExportMetrics() const {
  static obs::Gauge* scale_gauge =
      obs::Registry::Global().GetGauge("robust/health_lr_scale");
  static obs::Gauge* strikes_gauge =
      obs::Registry::Global().GetGauge("robust/health_strikes");
  static obs::Gauge* level_gauge =
      obs::Registry::Global().GetGauge("robust/health_backoff_level");
  scale_gauge->Set(lr_scale_);
  strikes_gauge->Set(strikes_);
  level_gauge->Set(BackoffLevel(lr_scale_, config_.lr_backoff));
}

BatchVerdict HealthGuard::CheckBatch(double loss, double grad_norm) {
  static obs::Counter* unhealthy =
      obs::Registry::Global().GetCounter("robust/unhealthy_batches");

  if (!IsUnhealthy(config_, loss, grad_norm)) {
    strikes_ = 0;
    lr_scale_ = std::min(1.0, lr_scale_ / config_.lr_backoff);
    ExportMetrics();
    return BatchVerdict::kOk;
  }
  unhealthy->Increment();
  ++strikes_;
  lr_scale_ = std::max(config_.min_lr_scale, lr_scale_ * config_.lr_backoff);
  ExportMetrics();
  return strikes_ >= config_.max_strikes ? BatchVerdict::kRollback
                                         : BatchVerdict::kSkip;
}

void HealthGuard::NotifyRollback() {
  static obs::Counter* rollbacks =
      obs::Registry::Global().GetCounter("robust/rollbacks");
  rollbacks->Increment();
  strikes_ = 0;
  ExportMetrics();
}

}  // namespace robust
}  // namespace embsr
