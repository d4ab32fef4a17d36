#include "prof/mem_tracker.h"

namespace embsr {
namespace prof {

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_alloc_count{0};
std::atomic<int64_t> g_free_count{0};
std::atomic<int64_t> g_alloc_bytes_total{0};

thread_local int64_t t_pending_alloc_bytes = 0;

}  // namespace

namespace internal {

void OnAllocSlow(int64_t bytes) {
  int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // CAS-max: racing allocators may each think they set the peak, but the
  // final value is the true maximum of all observed watermarks.
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes_total.fetch_add(bytes, std::memory_order_relaxed);
  t_pending_alloc_bytes += bytes;
}

void OnFreeSlow(int64_t bytes) {
  g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  g_free_count.fetch_add(1, std::memory_order_relaxed);
}

int64_t TakePendingAllocBytes() {
  int64_t v = t_pending_alloc_bytes;
  t_pending_alloc_bytes = 0;
  return v;
}

void ResetMemStats() {
  // live bytes carry across sessions (tensors outlive Start); the peak
  // collapses to the current watermark so each session reports its own max.
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_free_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes_total.store(0, std::memory_order_relaxed);
}

}  // namespace internal

MemStats MemSnapshot() {
  MemStats s;
  s.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  s.peak_bytes = g_peak_bytes.load(std::memory_order_relaxed);
  s.alloc_count = g_alloc_count.load(std::memory_order_relaxed);
  s.free_count = g_free_count.load(std::memory_order_relaxed);
  s.alloc_bytes_total = g_alloc_bytes_total.load(std::memory_order_relaxed);
  return s;
}

}  // namespace prof
}  // namespace embsr
