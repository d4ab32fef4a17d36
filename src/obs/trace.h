#ifndef EMBSR_OBS_TRACE_H_
#define EMBSR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace embsr {
namespace obs {

/// One completed span. `name` must point at a string with static storage
/// duration (the EMBSR_TRACE_SPAN macro guarantees this); events never own
/// their name, which keeps recording allocation-free apart from buffer
/// growth.
struct TraceEvent {
  const char* name = nullptr;
  int64_t ts_us = 0;   // span start, microseconds since session start
  int64_t dur_us = 0;  // span duration in microseconds
  uint32_t tid = 0;    // small per-thread id assigned on first record
};

/// Process-global trace recorder with Chrome trace-event JSON export.
///
/// Spans are recorded into lock-protected *per-thread* buffers (the lock is
/// per buffer and uncontended in steady state; the global mutex is only
/// taken when a new thread records its first span, and on Start/Stop).
/// When disabled — the default — recording is a single relaxed atomic load;
/// no lock, no clock read, no allocation.
///
/// Setting `EMBSR_TRACE=<path>` starts a session at first use and writes
/// the trace to `<path>` at process exit. Programs (and tests) can instead
/// drive Start()/Stop() explicitly. The output loads in `chrome://tracing`
/// and https://ui.perfetto.dev.
class TraceSession {
 public:
  static TraceSession& Global();

  /// Begins recording; clears previously recorded events. `path` is where
  /// Stop() writes the trace ("" records in memory only).
  void Start(std::string path);

  /// Stops recording and, if a path was given, writes the Chrome trace
  /// JSON there. Events stay queryable until the next Start().
  Status Stop();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one completed span; no-op unless enabled.
  void Record(const char* name, int64_t ts_us, int64_t dur_us);

  /// Microseconds since the session origin (embsr::NowNs).
  int64_t NowUs() const;

  /// Merged copy of all thread buffers (event order within a thread is
  /// chronological; across threads it is by registration order).
  std::vector<TraceEvent> SnapshotEvents() const;
  size_t event_count() const;

  /// Chrome trace-event JSON ("X" complete events, one pid, real tids).
  std::string ToJson() const;

 private:
  struct ThreadBuffer {
    std::mutex mu;
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  TraceSession();

  ThreadBuffer* GetThreadBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards buffers_, path_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string path_;
  /// Atomic because NowUs() reads it on every span without taking mu_
  /// while Start() rewrites it. A span racing with Start() may measure
  /// against the old origin; Record() clamps negative timestamps to 0.
  std::atomic<int64_t> origin_ns_{0};
  uint32_t next_tid_ = 0;
};

/// Whether duration histograms on instrumented paths are recorded. Off by
/// default; turned on by `EMBSR_METRICS=1` or SetTimingEnabled(true), and
/// implied by an active trace session (a traced span's duration is measured
/// anyway, so publishing it to the histogram is free).
bool TimingEnabled();
void SetTimingEnabled(bool enabled);

/// RAII span: measures from construction to destruction. Emits a trace
/// event when the global session is enabled, and (optionally) records the
/// duration into `histogram` in milliseconds when timing metrics are on.
/// When neither is active the constructor is one or two relaxed loads.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Histogram* histogram = nullptr)
      : name_(name), histogram_(histogram) {
    TraceSession& session = TraceSession::Global();
    tracing_ = session.enabled();
    timing_ = histogram != nullptr && (tracing_ || TimingEnabled());
    if (tracing_ || timing_) start_us_ = session.NowUs();
  }

  ~ScopedSpan() {
    if (!tracing_ && !timing_) return;
    TraceSession& session = TraceSession::Global();
    const int64_t dur_us = session.NowUs() - start_us_;
    if (tracing_) session.Record(name_, start_us_, dur_us);
    if (timing_) histogram_->Observe(static_cast<double>(dur_us) / 1000.0);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  Histogram* histogram_;
  int64_t start_us_ = 0;
  bool tracing_ = false;
  bool timing_ = false;
};

}  // namespace obs
}  // namespace embsr

#define EMBSR_OBS_CONCAT_INNER(a, b) a##b
#define EMBSR_OBS_CONCAT(a, b) EMBSR_OBS_CONCAT_INNER(a, b)

/// Traces the enclosing scope as a span named `name` (a string literal).
#define EMBSR_TRACE_SPAN(name)                                      \
  ::embsr::obs::ScopedSpan EMBSR_OBS_CONCAT(embsr_span_, __LINE__)( \
      name)

/// Like EMBSR_TRACE_SPAN, but additionally records the span duration into
/// the latency histogram `hist_name` (milliseconds) when timing metrics are
/// enabled. The histogram handle is resolved once per call site.
#define EMBSR_TIMED_SPAN(name, hist_name)                                  \
  static ::embsr::obs::Histogram* EMBSR_OBS_CONCAT(embsr_span_hist_,       \
                                                   __LINE__) =             \
      ::embsr::obs::Registry::Global().GetHistogram(                       \
          hist_name, ::embsr::obs::DefaultLatencyBucketsMs());             \
  ::embsr::obs::ScopedSpan EMBSR_OBS_CONCAT(embsr_span_, __LINE__)(        \
      name, EMBSR_OBS_CONCAT(embsr_span_hist_, __LINE__))

#endif  // EMBSR_OBS_TRACE_H_
