#ifndef EMBSR_PROF_POOL_STATS_H_
#define EMBSR_PROF_POOL_STATS_H_

#include <cstdint>
#include <vector>

namespace embsr {
namespace prof {

/// Cumulative per-lane accounting since the session started. Lane 0 is the
/// submitting thread (the pool's fork-join design has the submitter work
/// too); lanes 1..N are pool workers.
struct LaneStats {
  int64_t busy_ns = 0;
  int64_t chunks = 0;
};

/// Accumulates busy time + chunk count for a lane. Lanes beyond the fixed
/// slot budget (256 workers) are folded into the last slot.
void AddLaneBusy(int lane, int64_t busy_ns, int64_t chunks);

/// Snapshot trimmed to the highest lane that recorded anything.
std::vector<LaneStats> LaneSnapshot();

namespace internal {
void ResetLaneStats();
}  // namespace internal

}  // namespace prof
}  // namespace embsr

#endif  // EMBSR_PROF_POOL_STATS_H_
