#ifndef EMBSR_UTIL_TIMER_H_
#define EMBSR_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace embsr {

/// Monotonic nanoseconds: the one clock behind every measurement in the
/// repo — WallTimer, trace spans, profiler records, lane stats and the
/// serving clock — so all of them share one time base. Only src/util may
/// read std::chrono directly (lint rule `raw-chrono`).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_ns_(NowNs()) {}

  void Reset() { start_ns_ = NowNs(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return static_cast<double>(NowNs() - start_ns_) / 1e9;
  }

 private:
  int64_t start_ns_;
};

/// Blocks the calling thread for `ns` nanoseconds (no-op for ns <= 0).
/// Lives in util so the layers above can stall (injected latency, backoff
/// waits) without reaching for std::chrono directly — the serve frontend
/// routes every wait through its injectable clock, which points here only
/// in real-time mode.
inline void SleepForNs(int64_t ns) {
  if (ns <= 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

}  // namespace embsr

#endif  // EMBSR_UTIL_TIMER_H_
