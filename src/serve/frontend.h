#ifndef EMBSR_SERVE_FRONTEND_H_
#define EMBSR_SERVE_FRONTEND_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "models/recommender.h"
#include "serve/clock.h"
#include "serve/scorer.h"
#include "serve/session_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace embsr {
namespace serve {

/// Serving settings. Callers fill the fields in code.
struct ServeConfig {
  /// Per-request latency budget, queued time included.
  int64_t deadline_ms = 50;
  /// Admission queue capacity; beyond it, Submit sheds.
  size_t queue_capacity = 256;
  /// Max retries of a transient store or scorer failure.
  int max_retries = 3;
  /// Base retry backoff; doubles per try, jittered.
  int64_t backoff_base_ms = 2;
  /// Consecutive scorer failures that open the breaker.
  int breaker_strikes = 5;
  /// Open → half-open cooldown.
  int64_t breaker_cooldown_ms = 250;
  /// Recommendations per response.
  size_t top_k = 20;
  /// Backoff-jitter seed.
  uint64_t seed = 7;
  SessionStoreConfig store;
};

/// One scoring request: apply `event` to `session_id`'s live state, then
/// recommend the next items. `request_id` must be unique per request — it
/// salts the backoff-jitter stream, so a request's retry schedule is a pure
/// function of (config seed, request id).
struct Request {
  uint64_t request_id = 0;
  uint64_t session_id = 0;
  MicroBehavior event;
};

/// Why a response came from the degraded path (empty when full price).
/// Values: "breaker_open", "score_failed", "score_deadline",
/// "store_unavailable".
struct ServeResponse {
  uint64_t request_id = 0;
  /// OK for every answered request (including degraded ones);
  /// kDeadlineExceeded when the budget expired before scoring started and
  /// the work was abandoned.
  Status status = Status::OK();
  bool degraded = false;
  std::string degraded_reason;
  std::vector<int64_t> top_items;
  std::vector<float> top_scores;
  /// Transient-failure retries spent (store + scorer).
  int retries = 0;
  /// Total jittered backoff waited, in ns. Deterministic given
  /// (config seed, request id) — the determinism test asserts on it.
  int64_t backoff_ns = 0;
  double queue_ms = 0.0;
  double latency_ms = 0.0;
};

/// The fault-tolerant request front end.
///
/// Single-threaded by design: Submit() only performs admission control
/// (bounded queue, load shedding) and ProcessNext() runs the pipeline for
/// one queued request:
///
///   dequeue ── deadline? ── store update (retry w/ jittered backoff)
///     ── deadline? ── primary scorer (breaker-guarded, retried,
///        latency-injectable) ── deadline? ── top-K
///
/// The per-request budget is fixed at Submit time (enqueue instant +
/// deadline_ms) so time spent queued eats the same budget as time spent
/// scoring — overload turns into shedding and degraded answers instead of
/// unbounded latency. Whenever the primary path cannot answer in budget
/// (breaker open, retries exhausted, scorer finished late), the response
/// is re-scored by the popularity/recency fallback and labeled degraded;
/// a request is only abandoned outright (kDeadlineExceeded) when its
/// budget was already gone before any scoring started.
///
/// Failpoint sites: "serve.queue_full" (forced shed at Submit),
/// "serve.store_read" (transient store failure, inside SessionStore),
/// "serve.score" (scorer failure, or injected stall when armed @DELAYms).
///
/// All time flows through the injected ServeClock; under EMBSR_THREADS=1
/// with a manual clock every response — including backoff schedules — is
/// bit-identical across runs.
class ServeFrontend {
 public:
  /// `primary` and `fallback` are borrowed and must outlive the frontend.
  /// `fallback` must be fitted; it is the always-works degraded scorer.
  ServeFrontend(ServeConfig config, Recommender* primary,
                PopularityScorer* fallback, ServeClock clock = RealClock());

  /// Admission control. OK = queued; kInvalidArgument = the event's item
  /// or operation lies outside the vocabulary the fallback was fitted on
  /// (counted in `serve/rejected_invalid`; queue and store untouched);
  /// kResourceExhausted = shed (queue at capacity or injected
  /// "serve.queue_full").
  [[nodiscard]] Status Submit(const Request& req);

  /// Runs the pipeline for the oldest queued request. NotFound when the
  /// queue is empty.
  Result<ServeResponse> ProcessNext();

  /// Drains the queue, preserving order.
  std::vector<ServeResponse> ProcessAll();

  /// Restores the store from a snapshot (SessionStore::LoadSnapshot) and
  /// rejects with InvalidArgument, store unchanged, one holding an item or
  /// an operation outside the vocabulary Submit accepts.
  [[nodiscard]] Status LoadSnapshot(const std::string& path);

  size_t queue_depth() const { return queue_.size(); }
  const SessionStore& store() const { return store_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  const ServeConfig& config() const { return config_; }

 private:
  struct QueuedRequest {
    Request req;
    int64_t enqueue_ns = 0;
    int64_t deadline_ns = 0;
  };

  bool Expired(int64_t deadline_ns) const {
    return clock_.now_ns() >= deadline_ns;
  }

  /// Sleeps the jittered exponential backoff for `attempt` (0-based) on
  /// the request's jitter stream; accounts the wait into `resp`.
  void Backoff(int attempt, Rng* jitter, ServeResponse* resp);

  /// Scores via the fallback and marks the response degraded.
  void Degrade(const Example& ex, const std::string& reason,
               ServeResponse* resp, std::vector<float>* scores);

  void FinishTopK(const std::vector<float>& scores, ServeResponse* resp);

  ServeConfig config_;
  Recommender* primary_;
  PopularityScorer* fallback_;
  ServeClock clock_;
  SessionStore store_;
  CircuitBreaker breaker_;
  std::deque<QueuedRequest> queue_;
};

}  // namespace serve
}  // namespace embsr

#endif  // EMBSR_SERVE_FRONTEND_H_
