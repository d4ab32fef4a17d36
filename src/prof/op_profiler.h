#ifndef EMBSR_PROF_OP_PROFILER_H_
#define EMBSR_PROF_OP_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "prof/clock.h"
#include "prof/cost_model.h"
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
  /// One acquire load; nullptr whenever profiling is off. This is the
  /// single branch the EMBSR_PROF-off fast path pays per recorded op.
  static Collector* ActiveOrNull() {
    return g_active.load(std::memory_order_acquire);
  }

  /// Charges the gap since the last record point / mark on this thread to
  /// `op`, adds the modeled cost, and drains pending tensor-alloc bytes.
  /// `component` may be null ("(none)" in the rollup).
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
  friend void Start();
  friend void Stop();
  friend class ProfileAccess;

  static std::atomic<Collector*> g_active;
};

/// True while a profiling session is active.
inline bool Enabled() { return Collector::ActiveOrNull() != nullptr; }

/// Starts a profiling session: clears all per-op/memory/lane state and
/// enables the tensor + pool hooks. Stop() freezes the data for snapshots.
void Start();
void Stop();

/// Starts a session once per process if EMBSR_PROF=1 (reads the timeline
/// knobs too). Called from bench_common, NeuralSessionModel::Fit and the
/// evaluator so `EMBSR_PROF=1 ./bench_x` needs no code changes.
void MaybeInitFromEnv();

/// Wall seconds from Start() to Stop() (or to now while active).
double ProfiledSeconds();

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
  bool enabled = false;
  double profiled_seconds = 0.0;
  int64_t steps = 0;
  int64_t step_ns = 0;
  std::vector<OpAgg> ops;         // sorted by forward+backward ns, desc
  std::vector<OpAgg> components;  // same order
  MemStats mem;
  int64_t timeline_events = 0;
  int64_t timeline_dropped = 0;
  std::vector<LaneStats> lanes;
};

ProfileSnapshot Snapshot();

/// The BENCH_*.json schema-v3 `profile` block (one JSON object; see
/// DESIGN.md §13 and scripts/check_bench_json.py). Valid — with
/// `"enabled": false` — even when no session ever ran.
std::string ProfileJson(int top_n = 20);

}  // namespace prof
}  // namespace embsr

#endif  // EMBSR_PROF_OP_PROFILER_H_
