#include "serve/scorer.h"

#include <algorithm>

#include "obs/metrics.h"

namespace embsr {
namespace serve {

namespace {

/// Geometric decay of the recency boost per step back from the session end.
constexpr float kRecencyDecay = 0.8f;
/// Boost for the most recent item. Popularity is normalized to [0, 1], so
/// 2.0 guarantees the last item outranks any purely-popular item — the
/// S-POP ordering: session items first (most recent wins), popularity as
/// the tie-breaking tail.
constexpr float kRecencyBoost = 2.0f;

}  // namespace

Status PopularityScorer::Fit(const ProcessedDataset& data) {
  if (data.num_items <= 0) {
    return Status::InvalidArgument("PopularityScorer: dataset has no items");
  }
  std::vector<int64_t> counts(static_cast<size_t>(data.num_items), 0);
  auto tally = [&counts](int64_t item) {
    if (item >= 0 && item < static_cast<int64_t>(counts.size())) {
      ++counts[static_cast<size_t>(item)];
    }
  };
  for (const Example& ex : data.train) {
    for (int64_t item : ex.macro_items) tally(item);
    tally(ex.target);
  }
  const int64_t max_count =
      counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
  num_operations_ = data.num_operations;
  popularity_.assign(counts.size(), 0.0f);
  if (max_count > 0) {
    for (size_t i = 0; i < counts.size(); ++i) {
      popularity_[i] =
          static_cast<float>(counts[i]) / static_cast<float>(max_count);
    }
  }
  return Status::OK();
}

std::vector<float> PopularityScorer::ScoreAll(const Example& ex) {
  std::vector<float> scores = popularity_;
  // Walk the session backwards; each item gets the boost of its most
  // recent occurrence only (std::max, not +=), so a long dwell on one item
  // doesn't pile up an unbounded score.
  float boost = kRecencyBoost;
  for (auto it = ex.macro_items.rbegin(); it != ex.macro_items.rend(); ++it) {
    const int64_t item = *it;
    if (item >= 0 && item < static_cast<int64_t>(scores.size())) {
      float& s = scores[static_cast<size_t>(item)];
      s = std::max(s, popularity_[static_cast<size_t>(item)] + boost);
    }
    boost *= kRecencyDecay;
  }
  return scores;
}

CircuitBreaker::CircuitBreaker(int strike_threshold, int64_t cooldown_ns)
    : strike_threshold_(std::max(1, strike_threshold)),
      cooldown_ns_(std::max<int64_t>(0, cooldown_ns)) {
  ExportMetrics();
}

bool CircuitBreaker::AllowRequest(int64_t now_ns) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen: {
      if (now_ns < open_until_ns_) return false;
      state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = true;
      static obs::Counter* probes =
          obs::Registry::Global().GetCounter("serve/breaker_probes");
      probes->Increment();
      ExportMetrics();
      return true;
    }
    case BreakerState::kHalfOpen: {
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      static obs::Counter* probes =
          obs::Registry::Global().GetCounter("serve/breaker_probes");
      probes->Increment();
      return true;
    }
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  strikes_ = 0;
  probe_in_flight_ = false;
  if (state_ != BreakerState::kClosed) {
    state_ = BreakerState::kClosed;
    static obs::Counter* closed =
        obs::Registry::Global().GetCounter("serve/breaker_closed_total");
    closed->Increment();
  }
  ExportMetrics();
}

void CircuitBreaker::RecordFailure(int64_t now_ns) {
  probe_in_flight_ = false;
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: the dependency is still down, back off again.
    Open(now_ns);
    return;
  }
  ++strikes_;
  if (state_ == BreakerState::kClosed && strikes_ >= strike_threshold_) {
    Open(now_ns);
    return;
  }
  ExportMetrics();
}

void CircuitBreaker::Open(int64_t now_ns) {
  state_ = BreakerState::kOpen;
  strikes_ = 0;
  open_until_ns_ = now_ns + cooldown_ns_;
  static obs::Counter* opened =
      obs::Registry::Global().GetCounter("serve/breaker_open_total");
  opened->Increment();
  ExportMetrics();
}

void CircuitBreaker::ExportMetrics() const {
  static obs::Gauge* state_gauge =
      obs::Registry::Global().GetGauge("serve/breaker_state");
  static obs::Gauge* strikes_gauge =
      obs::Registry::Global().GetGauge("serve/breaker_strikes");
  state_gauge->Set(static_cast<double>(static_cast<int>(state_)));
  strikes_gauge->Set(static_cast<double>(strikes_));
}

}  // namespace serve
}  // namespace embsr
