#ifndef EMBSR_PROF_OP_PROFILER_H_
#define EMBSR_PROF_OP_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "prof/cost_model.h"
#include "prof/enabled.h"
#include "prof/mem_tracker.h"
#include "prof/pool_stats.h"

namespace embsr {
namespace prof {

/// Aggregated statistics for one op name (or one model component).
struct OpAgg {
  std::string name;
  int64_t calls = 0;
  int64_t backward_calls = 0;
  int64_t forward_ns = 0;
  int64_t backward_ns = 0;
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  int64_t alloc_bytes = 0;
};

/// Per-op attribution collector. Forward time is *gap-based*: each recorded
/// node is charged the wall time since the previous record point (or mark)
/// on its thread, so within a StepScope the per-op forward times sum to the
/// step span minus the explicitly-timed backward pass — that is what makes
/// the "attributed time sums to the step span" acceptance test possible.
/// Backward time is measured directly around each node's backward_fn.
///
/// All state is sharded per thread; shards are leaked (like obs trace
/// buffers) so snapshots after thread exit stay valid.
class Collector {
 public:
  /// nullptr whenever profiling is off: one acquire load is the single
  /// branch the EMBSR_PROF-off fast path pays per recorded op. Acquire
  /// pairs with Start()'s release, so a recording thread sees the cleared
  /// shard and memory state.
  static Collector* ActiveOrNull() {
    return internal::g_enabled.load(std::memory_order_acquire) ? &g_collector
                                                               : nullptr;
  }

  /// Charges the gap since the last record point / mark on this thread to
  /// `op`, adds the modeled cost, and drains pending tensor-alloc bytes.
  /// `component` may be null ("none" in the rollup).
  void RecordForward(const char* op, const char* component,
                     const OpCost& cost);

  /// Adds a directly-measured backward duration for `op`.
  void RecordBackward(const char* op, const char* component, int64_t ns);

  /// Resets this thread's forward-gap origin to now. Call at the start of
  /// any timed region (StepScope does this) and after a backward pass, so
  /// unrelated time is never charged to the next recorded op.
  static void MarkThisThread();

  void AddStep(int64_t ns);

 private:
  static Collector g_collector;
};

/// Starts a profiling session: clears all per-op/memory/lane state, zeroes
/// the gauges the previous session published, and enables every hook.
/// EMBSR_PROF=1 opens a session at process start without this call.
void Start();

/// Ends the active session (a no-op when none is active) and publishes its
/// totals into obs::Registry as gauges, so a metrics snapshot carries them:
///   prof/op/<op>/<field> and prof/component/<name>/<field> for calls,
///     backward_calls, forward_ms, backward_ms, flops, bytes_read,
///     bytes_written and alloc_bytes;
///   prof/mem/<field> for every MemStats field;
///   prof/lane/<i>/busy_ms and prof/lane/<i>/chunks;
///   prof/steps and prof/step_ms.
/// The data stays frozen for Snapshot() until the next Start().
void Stop();

/// Innermost active component label on this thread, or nullptr.
const char* CurrentComponent();

/// RAII: brackets one optimization step (one example's forward+backward in
/// the current trainer). Accumulates the step span and re-marks the thread
/// so gap attribution starts fresh.
class StepScope {
 public:
  StepScope();
  ~StepScope();

  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

 private:
  Collector* collector_;
  int64_t t0_ = 0;
};

/// RAII: labels ops recorded on this thread with a model-component name
/// (e.g. "gru", "attention"). Labels must be string literals (stored by
/// pointer). Nesting keeps the innermost label.
class ComponentScope {
 public:
  explicit ComponentScope(const char* name);
  ~ComponentScope();

  ComponentScope(const ComponentScope&) = delete;
  ComponentScope& operator=(const ComponentScope&) = delete;

 private:
  const char* prev_;
};

/// Point-in-time merge of every shard plus memory/lane/step state.
struct ProfileSnapshot {
  int64_t steps = 0;
  int64_t step_ns = 0;
  std::vector<OpAgg> ops;         // sorted by forward+backward ns, desc
  std::vector<OpAgg> components;  // same order
  MemStats mem;
  std::vector<LaneStats> lanes;
};

ProfileSnapshot Snapshot();

}  // namespace prof
}  // namespace embsr

#endif  // EMBSR_PROF_OP_PROFILER_H_
