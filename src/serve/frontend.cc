#include "serve/frontend.h"

#include <utility>

#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "robust/failpoint.h"
#include "util/rng.h"

namespace embsr {
namespace serve {

namespace {
constexpr int64_t kNsPerMs = 1000000;
}  // namespace

ServeFrontend::ServeFrontend(ServeConfig config, Recommender* primary,
                             PopularityScorer* fallback, ServeClock clock)
    : config_(std::move(config)),
      primary_(primary),
      fallback_(fallback),
      clock_(std::move(clock)),
      store_(config_.store),
      breaker_(config_.breaker_strikes,
               config_.breaker_cooldown_ms * kNsPerMs) {}

Status ServeFrontend::Submit(const Request& req) {
  static obs::Counter* submitted =
      obs::Registry::Global().GetCounter("serve/requests");
  static obs::Counter* shed = obs::Registry::Global().GetCounter("serve/shed");
  static obs::Counter* rejected =
      obs::Registry::Global().GetCounter("serve/rejected_invalid");
  static obs::Gauge* depth =
      obs::Registry::Global().GetGauge("serve/queue_depth");
  submitted->Increment();
  // An id outside the fallback's training vocabulary would index past the
  // models' embedding tables; refuse it before it reaches the store.
  const MicroBehavior& ev = req.event;
  if (ev.item < 0 || ev.item >= fallback_->num_items() || ev.operation < 0 ||
      ev.operation >= fallback_->num_operations()) {
    rejected->Increment();
    return Status::InvalidArgument(
        "request " + std::to_string(req.request_id) + ": event (item " +
        std::to_string(ev.item) + ", operation " +
        std::to_string(ev.operation) + ") is outside the vocabulary of " +
        std::to_string(fallback_->num_items()) + " items and " +
        std::to_string(fallback_->num_operations()) + " operations");
  }
  if (queue_.size() >= config_.queue_capacity ||
      robust::Failpoints::Global().ShouldFail("serve.queue_full")) {
    shed->Increment();
    return Status::ResourceExhausted(
        "admission queue at capacity (" + std::to_string(queue_.size()) + "/" +
        std::to_string(config_.queue_capacity) + "); request " +
        std::to_string(req.request_id) + " shed");
  }
  const int64_t now = clock_.now_ns();
  queue_.push_back(
      QueuedRequest{req, now, now + config_.deadline_ms * kNsPerMs});
  depth->Set(static_cast<double>(queue_.size()));
  return Status::OK();
}

Status ServeFrontend::LoadSnapshot(const std::string& path) {
  return store_.LoadSnapshot(path, fallback_->num_items(),
                             fallback_->num_operations());
}

void ServeFrontend::Backoff(int attempt, Rng* jitter, ServeResponse* resp) {
  static obs::Counter* retries =
      obs::Registry::Global().GetCounter("serve/retries");
  // Exponential base doubling per attempt, full jitter in [0.5, 1.5) of the
  // nominal wait — desynchronizes retry storms while keeping the expected
  // schedule; the draw comes off the request's own stream, so it is a pure
  // function of (config seed, request id, attempt).
  const int64_t nominal_ns = (config_.backoff_base_ms * kNsPerMs) << attempt;
  const int64_t wait_ns =
      static_cast<int64_t>(static_cast<double>(nominal_ns) *
                           (0.5 + jitter->Uniform()));
  clock_.sleep_ns(wait_ns);
  resp->backoff_ns += wait_ns;
  ++resp->retries;
  retries->Increment();
}

void ServeFrontend::Degrade(const Example& ex, const std::string& reason,
                            ServeResponse* resp, std::vector<float>* scores) {
  static obs::Counter* degraded =
      obs::Registry::Global().GetCounter("serve/degraded");
  degraded->Increment();
  resp->degraded = true;
  resp->degraded_reason = reason;
  *scores = fallback_->ScoreAll(ex);
}

void ServeFrontend::FinishTopK(const std::vector<float>& scores,
                               ServeResponse* resp) {
  resp->top_items = TopKIndices(scores, config_.top_k);
  resp->top_scores.reserve(resp->top_items.size());
  for (int64_t item : resp->top_items) {
    resp->top_scores.push_back(scores[static_cast<size_t>(item)]);
  }
}

Result<ServeResponse> ServeFrontend::ProcessNext() {
  static obs::Counter* expired =
      obs::Registry::Global().GetCounter("serve/deadline_expired");
  static obs::Counter* score_failures =
      obs::Registry::Global().GetCounter("serve/score_failures");
  static obs::Gauge* depth =
      obs::Registry::Global().GetGauge("serve/queue_depth");
  static obs::Histogram* latency = obs::Registry::Global().GetHistogram(
      "serve/latency_ms", obs::DefaultLatencyBucketsMs());

  if (queue_.empty()) return Status::NotFound("admission queue empty");
  QueuedRequest qr = std::move(queue_.front());
  queue_.pop_front();
  depth->Set(static_cast<double>(queue_.size()));

  ServeResponse resp;
  resp.request_id = qr.req.request_id;
  resp.queue_ms =
      static_cast<double>(clock_.now_ns() - qr.enqueue_ns) / kNsPerMs;
  Rng jitter(DeriveSeed(config_.seed, qr.req.request_id));

  auto finish = [&](const std::vector<float>& scores) {
    FinishTopK(scores, &resp);
    resp.latency_ms =
        static_cast<double>(clock_.now_ns() - qr.enqueue_ns) / kNsPerMs;
    latency->Observe(resp.latency_ms);
    return Result<ServeResponse>(std::move(resp));
  };
  auto abandon = [&](const std::string& stage) {
    expired->Increment();
    resp.status = Status::DeadlineExceeded(
        "request " + std::to_string(qr.req.request_id) + ": budget of " +
        std::to_string(config_.deadline_ms) + " ms spent before " + stage +
        "; work abandoned");
    resp.latency_ms =
        static_cast<double>(clock_.now_ns() - qr.enqueue_ns) / kNsPerMs;
    latency->Observe(resp.latency_ms);
    return Result<ServeResponse>(std::move(resp));
  };

  // Stage 0: the budget may be gone before any work starts (long queue
  // wait under overload). Abandon instead of scoring into a void.
  if (Expired(qr.deadline_ns)) return abandon("dequeue");

  // Stage 1: session-store update, retried across transient failures.
  const SessionState* state = nullptr;
  for (int attempt = 0;; ++attempt) {
    auto r = store_.ApplyEvent(qr.req.session_id, qr.req.event);
    if (r.ok()) {
      state = r.value();
      break;
    }
    if (attempt >= config_.max_retries) break;
    Backoff(attempt, &jitter, &resp);
    if (Expired(qr.deadline_ns)) return abandon("store update");
  }
  const Example ex = state != nullptr ? state->ToExample() : Example{};
  if (state == nullptr) {
    // Store down past the retry budget: answer from pure popularity (the
    // fallback needs no session state) rather than failing the request.
    std::vector<float> scores;
    Degrade(ex, "store_unavailable", &resp, &scores);
    return finish(scores);
  }

  // Stage 2: primary scorer — deadline-checked, breaker-guarded, retried,
  // with injectable stalls ("serve.score=p@DELAYms") flowing through the
  // same clock the deadline is checked against.
  if (Expired(qr.deadline_ns)) return abandon("scoring");
  std::vector<float> scores;
  bool scored = false;
  std::string degrade_reason;
  for (int attempt = 0;; ++attempt) {
    if (!breaker_.AllowRequest(clock_.now_ns())) {
      degrade_reason = "breaker_open";
      break;
    }
    const int64_t stall_ms =
        robust::Failpoints::Global().ShouldDelayMs("serve.score");
    if (stall_ms > 0) clock_.sleep_ns(stall_ms * kNsPerMs);
    if (robust::Failpoints::Global().ShouldFail("serve.score")) {
      score_failures->Increment();
      breaker_.RecordFailure(clock_.now_ns());
      if (attempt >= config_.max_retries) {
        degrade_reason = "score_failed";
        break;
      }
      Backoff(attempt, &jitter, &resp);
      if (Expired(qr.deadline_ns)) {
        degrade_reason = "score_failed";
        break;
      }
      continue;
    }
    scores = primary_->ScoreAll(ex);
    breaker_.RecordSuccess();
    scored = true;
    break;
  }

  // Stage 3: top-K. A full-price result that finished after the deadline
  // is discarded — the caller already gave up on it — and replaced by the
  // cheap fallback, labeled degraded.
  if (scored && Expired(qr.deadline_ns)) {
    scored = false;
    degrade_reason = "score_deadline";
  }
  if (!scored) Degrade(ex, degrade_reason, &resp, &scores);
  return finish(scores);
}

std::vector<ServeResponse> ServeFrontend::ProcessAll() {
  std::vector<ServeResponse> out;
  while (!queue_.empty()) {
    auto r = ProcessNext();
    if (r.ok()) out.push_back(std::move(r.value()));
  }
  return out;
}

}  // namespace serve
}  // namespace embsr
