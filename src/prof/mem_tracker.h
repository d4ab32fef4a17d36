#ifndef EMBSR_PROF_MEM_TRACKER_H_
#define EMBSR_PROF_MEM_TRACKER_H_

#include <cstdint>

#include "prof/enabled.h"

namespace embsr {
namespace prof {

namespace internal {

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
  if (elems != 0 && Enabled()) {
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

namespace internal {
// Reset counters at prof::Start(): peak collapses to the current live
// watermark (live bytes carry across sessions — tensors outlive Start).
void ResetMemStats();
}  // namespace internal

}  // namespace prof
}  // namespace embsr

#endif  // EMBSR_PROF_MEM_TRACKER_H_
