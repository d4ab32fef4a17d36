#ifndef EMBSR_SERVE_SCORER_H_
#define EMBSR_SERVE_SCORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/session.h"
#include "models/recommender.h"
#include "util/status.h"

namespace embsr {
namespace serve {

/// Cheap degraded-mode scorer: global item popularity from the training
/// split plus an in-session recency boost. Costs O(num_items) with no
/// matrix work at all, so it answers in microseconds where a neural scorer
/// takes milliseconds — the whole point of graceful degradation is that a
/// worse answer *now* beats a better answer after the deadline.
///
/// The recency boost re-ranks the popularity prior toward items the user
/// just interacted with (the strongest single signal in session-based
/// recommendation, cf. the S-POP baseline): the last distinct item in the
/// session gets the largest boost, decaying geometrically backwards.
class PopularityScorer final : public Recommender {
 public:
  std::string name() const override { return "serve-popularity"; }

  /// Counts item occurrences (inputs and targets) over `data.train`, and
  /// records the dataset's item and operation vocabulary sizes.
  Status Fit(const ProcessedDataset& data) override;

  /// Popularity prior + recency boost. Works on an *empty* session too
  /// (pure popularity), which is what makes it a valid fallback when even
  /// the session store lookup failed.
  std::vector<float> ScoreAll(const Example& ex) override;

  bool fitted() const { return !popularity_.empty(); }
  int64_t num_items() const { return static_cast<int64_t>(popularity_.size()); }
  int64_t num_operations() const { return num_operations_; }

 private:
  /// popularity_[i] in [0, 1]: occurrence count normalized by the max.
  std::vector<float> popularity_;
  int64_t num_operations_ = 0;
};

/// Circuit breaker states, exported via the `serve/breaker_state` gauge.
enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Consecutive-failure circuit breaker guarding the primary scorer.
///
/// Closed: requests pass; each failure increments a consecutive-failure
/// strike count, each success clears it. When strikes reach
/// `strike_threshold` the breaker opens. Open: requests are refused (the
/// frontend answers from the popularity fallback without paying for a
/// doomed scorer call) until `cooldown_ns` of clock time has passed, after
/// which the breaker half-opens. HalfOpen: exactly one probe request is
/// let through to the primary; success closes the breaker, failure
/// re-opens it for another full cooldown.
///
/// Time is injected by the caller (the frontend's ServeClock) so tests
/// drive the open→half-open transition deterministically. Not internally
/// synchronized — same single-writer contract as SessionStore.
class CircuitBreaker {
 public:
  CircuitBreaker(int strike_threshold, int64_t cooldown_ns);

  /// True if a request may hit the primary scorer at `now_ns`. Flips
  /// Open → HalfOpen once the cooldown has elapsed; in HalfOpen, admits
  /// only the single probe (false while that probe's verdict is pending).
  bool AllowRequest(int64_t now_ns);

  /// Report the outcome of an admitted request.
  void RecordSuccess();
  void RecordFailure(int64_t now_ns);

  BreakerState state() const { return state_; }
  int strikes() const { return strikes_; }

 private:
  void Open(int64_t now_ns);
  void ExportMetrics() const;

  const int strike_threshold_;
  const int64_t cooldown_ns_;
  BreakerState state_ = BreakerState::kClosed;
  int strikes_ = 0;
  int64_t open_until_ns_ = 0;
  bool probe_in_flight_ = false;
};

}  // namespace serve
}  // namespace embsr

#endif  // EMBSR_SERVE_SCORER_H_
