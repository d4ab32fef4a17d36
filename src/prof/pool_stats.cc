#include "prof/pool_stats.h"

#include <atomic>

namespace embsr {
namespace prof {

namespace {

constexpr int kMaxLanes = 257;  // submitter + up to 256 workers

struct LaneSlot {
  std::atomic<int64_t> busy_ns{0};
  std::atomic<int64_t> chunks{0};
};

LaneSlot g_lanes[kMaxLanes];
std::atomic<int> g_max_lane_seen{-1};

}  // namespace

namespace internal {

void ResetLaneStats() {
  for (auto& slot : g_lanes) {
    slot.busy_ns.store(0, std::memory_order_relaxed);
    slot.chunks.store(0, std::memory_order_relaxed);
  }
  g_max_lane_seen.store(-1, std::memory_order_relaxed);
}

}  // namespace internal

void AddLaneBusy(int lane, int64_t busy_ns, int64_t chunks) {
  if (lane < 0) return;
  if (lane >= kMaxLanes) lane = kMaxLanes - 1;
  g_lanes[lane].busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
  g_lanes[lane].chunks.fetch_add(chunks, std::memory_order_relaxed);
  int seen = g_max_lane_seen.load(std::memory_order_relaxed);
  while (lane > seen && !g_max_lane_seen.compare_exchange_weak(
                            seen, lane, std::memory_order_relaxed)) {
  }
}

std::vector<LaneStats> LaneSnapshot() {
  int hi = g_max_lane_seen.load(std::memory_order_relaxed);
  std::vector<LaneStats> out;
  out.reserve(hi + 1);
  for (int i = 0; i <= hi; ++i) {
    LaneStats s;
    s.busy_ns = g_lanes[i].busy_ns.load(std::memory_order_relaxed);
    s.chunks = g_lanes[i].chunks.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

}  // namespace prof
}  // namespace embsr
