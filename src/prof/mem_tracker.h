#ifndef EMBSR_PROF_MEM_TRACKER_H_
#define EMBSR_PROF_MEM_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace embsr {
namespace prof {

namespace internal {

// Flipped by prof::Start()/Stop(). A relaxed load of this flag is the ONLY
// cost a Tensor alloc/free pays when profiling is off (the
// zero-overhead-when-off guarantee, pinned by perf_regression_test).
extern std::atomic<bool> g_mem_enabled;

void OnAllocSlow(int64_t bytes);
void OnFreeSlow(int64_t bytes);

// Tensor bytes allocated on this thread since the last call; the op
// profiler drains this at each record point to attribute footprints to ops.
int64_t TakePendingAllocBytes();

}  // namespace internal

/// Called from Tensor construction/destruction (inline, header-only hooks so
/// tensor — which sits *above* prof — pays one branch when profiling is
/// off). `elems` is the float element count of the owned buffer.
///
/// Returns whether the allocation was counted; the tensor carries that flag
/// and hands it back to OnTensorFree so only counted buffers are subtracted.
/// This keeps live_bytes exact (and non-negative): a tensor allocated
/// before prof::Start() and freed during the session is simply invisible,
/// instead of driving the watermark negative.
inline bool OnTensorAlloc(int64_t elems) {
  if (elems != 0 &&
      internal::g_mem_enabled.load(std::memory_order_relaxed)) {
    internal::OnAllocSlow(elems * static_cast<int64_t>(sizeof(float)));
    return true;
  }
  return false;
}

/// `counted` must be the value OnTensorAlloc returned for this buffer. A
/// counted buffer is subtracted even after Stop() so live_bytes stays exact
/// across sessions; an uncounted one costs a single predictable branch.
inline void OnTensorFree(int64_t elems, bool counted) {
  if (counted && elems != 0) {
    internal::OnFreeSlow(elems * static_cast<int64_t>(sizeof(float)));
  }
}

struct MemStats {
  int64_t live_bytes = 0;
  int64_t peak_bytes = 0;
  int64_t alloc_count = 0;
  int64_t free_count = 0;
  int64_t alloc_bytes_total = 0;
};

MemStats MemSnapshot();

/// One allocation/free event; `delta_bytes` is signed (negative = free),
/// `live_bytes` is the post-event global watermark: the measured size +
/// lifetime stream that analyze/graph_plan estimates statically.
struct MemEvent {
  int64_t ts_ns = 0;  // NowNs() at event time
  int64_t delta_bytes = 0;
  int64_t live_bytes = 0;
};

/// Timeline capture is off by default (EMBSR_PROF_TIMELINE=1 enables it,
/// EMBSR_PROF_TIMELINE_CAP bounds it, default 65536 events); events past
/// the cap are counted in TimelineDropped() instead of recorded.
void SetTimelineCapture(bool enabled, int64_t cap);
std::vector<MemEvent> TimelineSnapshot();
int64_t TimelineDropped();

namespace internal {
// Reset counters at prof::Start(): peak collapses to the current live
// watermark (live bytes carry across sessions — tensors outlive Start).
void ResetMemStats();
}  // namespace internal

}  // namespace prof
}  // namespace embsr

#endif  // EMBSR_PROF_MEM_TRACKER_H_
