#ifndef EMBSR_SERVE_CLOCK_H_
#define EMBSR_SERVE_CLOCK_H_

#include <cstdint>
#include <functional>

#include "util/timer.h"

namespace embsr {
namespace serve {

/// Injectable time source for the serving core.
///
/// Every deadline check, backoff wait and injected stall in embsr::serve
/// goes through one of these two functions — never through a raw clock —
/// so tests can swap in a ManualClock and make "the scorer took 80 ms" a
/// deterministic fact instead of a flaky race against real time. The real
/// clock reads embsr::NowNs, the clock behind every trace span and profiler
/// record, and sleeps through util's SleepForNs.
struct ServeClock {
  std::function<int64_t()> now_ns;
  std::function<void(int64_t)> sleep_ns;
};

/// Wall-clock ServeClock for production and benches.
inline ServeClock RealClock() {
  return ServeClock{[] { return NowNs(); },
                    [](int64_t ns) { SleepForNs(ns); }};
}

/// Virtual time for tests: now() is a counter, sleep() advances it. Also
/// lets a test schedule "the next scorer call takes X ns" by advancing
/// inside a stub scorer. Copy the two std::functions out via clock() —
/// they share this object's state by reference, so the ManualClock must
/// outlive the frontend under test.
class ManualClock {
 public:
  explicit ManualClock(int64_t start_ns = 0) : now_ns_(start_ns) {}

  int64_t now_ns() const { return now_ns_; }
  void Advance(int64_t ns) { now_ns_ += ns; }

  ServeClock clock() {
    return ServeClock{[this] { return now_ns_; },
                      [this](int64_t ns) {
                        if (ns > 0) now_ns_ += ns;
                      }};
  }

 private:
  int64_t now_ns_;
};

}  // namespace serve
}  // namespace embsr

#endif  // EMBSR_SERVE_CLOCK_H_
