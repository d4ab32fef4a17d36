#ifndef EMBSR_ANALYZE_GRAPH_PLAN_H_
#define EMBSR_ANALYZE_GRAPH_PLAN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autograd/tape.h"
#include "autograd/variable.h"
#include "nn/module.h"

namespace embsr {
namespace analyze {

/// Static shape/liveness analysis and arena memory planning over recorded
/// ag::Tape graphs — a static estimator of a step's transient memory; no
/// executor runs these plans. The gradcheck registry proves the gradients
/// are right and the tape auditor proves the wiring is right; this pass
/// proves the *memory story* is right: every node's shape re-derives from
/// its inputs, every buffer has a sound first-def/last-use interval across
/// forward and backward (gradient buffers and their accumulation sites
/// included), and the resulting arena plan provably never overlaps two live
/// intervals.
///
/// Schedule model. Steps number a unified forward+backward timeline:
///   0 .. F-1   forward: one step per tape node, in creation order
///   F          Backward()'s gradient seed at the root
///   F+1 ..     backward: one step per executed backward_fn, in the exact
///              order Variable::Backward runs them (ag::BackwardPostOrder
///              reversed, gated on simulated grad readiness)
///   E          end-of-graph: the caller reads the loss value and the
///              optimizer reads every parameter gradient
/// Backward reads are modeled conservatively: executing a node's backward
/// reads its own value, its own grad, and every parent's value (the
/// superset of what any closure in ops.cc touches), so planned lifetimes
/// only over-cover, never under-cover, the real access pattern.
///
/// Parameters (and any other node allocated before the tape opened) are
/// *persistent*: their values are not arena candidates and carry no
/// interval, but their gradient buffers — allocated during backward — are
/// planned like any other.

/// One planned buffer: the value or gradient storage of one graph node.
struct PlanBuffer {
  int64_t id = 0;       // index in GraphPlan::buffers
  int64_t node_id = 0;  // owning node: tape index, or -(k+1) for the k-th
                        // persistent (pre-tape) node
  std::string label;    // op name, or the parameter name for named leaves
  std::string shape;    // recorded value shape (diagnostics/dumps)
  bool is_grad = false;
  bool persistent = false;  // allocated before the tape: not arena-planned
  bool requires_grad = false;
  bool is_root = false;
  int64_t size_bytes = 0;
  int64_t def_step = 0;        // first write
  int64_t last_use_step = 0;   // last read/accumulation (inclusive)
  int64_t last_read_step = -1; // last pure read (-1: never read)
  int64_t reads = 0;           // modeled read count
  std::vector<int64_t> accum_steps;  // grad buffers: accumulation sites
  int64_t offset = -1;   // arena offset (first-fit); -1 when not planned
  int64_t alias_of = -1; // id of the buffer this one views (Reshape-style);
                         // -1 = owns storage. The builder never emits
                         // aliases; the verifier still vets them, so a
                         // hand-built or mutated plan cannot hide one.
};

/// Outcome of the shape pass: every op node with recorded parents is checked
/// against its OpDef's shape rule.
struct ShapeCheckStats {
  int64_t checked = 0;  // op nodes with recorded parents, rule applied
  int64_t skipped = 0;  // op nodes without recorded parents (opaque)
  int64_t leaves = 0;   // leaf nodes (no rule applies)
};

struct GraphPlanStats {
  int64_t tape_nodes = 0;
  int64_t persistent_nodes = 0;
  int64_t planned_buffers = 0;  // transient, own-storage
  int64_t forward_steps = 0;
  int64_t backward_steps = 0;
  ShapeCheckStats shapes;
};

struct GraphPlan {
  std::vector<PlanBuffer> buffers;
  /// Value-buffer dataflow edges (parent buffer id -> consumer buffer id),
  /// for the DOT rendering.
  std::vector<std::pair<int64_t, int64_t>> edges;
  int64_t end_step = 0;  // E in the schedule model
  /// Sum of all transient buffer sizes: the high-water mark a heap
  /// execution (which frees nothing until graph destruction) must hold.
  /// This is the number cross-checked against the prof-measured peak.
  int64_t planned_total_bytes = 0;
  /// Liveness peak: max over steps of simultaneously-live transient bytes.
  /// What a perfect arena would need; the headroom vs. planned_total_bytes
  /// is what liveness-aware allocation could save over heap execution,
  /// recorded per model in BENCH_graph_plan.json.
  int64_t planned_peak_bytes = 0;
  /// First-fit arena size: max(offset + size). >= planned_peak_bytes; the
  /// gap is fragmentation.
  int64_t arena_extent_bytes = 0;
  /// Failures found while building: shape-rule violations and
  /// simulated-vs-runtime accumulation mismatches. VerifyGraphPlan folds
  /// these into its report.
  std::vector<std::string> build_failures;
  GraphPlanStats stats;
};

struct PlanOptions {
  /// Op names whose value buffers may legitimately go unread (mirrors
  /// TapeAuditOptions::allowed_orphan_ops). Normally empty.
  std::vector<std::string> allowed_dead_stores;
};

/// Builds the liveness intervals and first-fit arena plan for the graph
/// under `loss`. Precondition: the graph was recorded by `tape` and exactly
/// one Backward() ran since the parameters were zeroed (the accumulation
/// cross-check compares the simulated schedule against Node::accum_count).
GraphPlan BuildGraphPlan(const ag::Variable& loss,
                         const std::vector<nn::NamedParameter>& params,
                         const ag::Tape& tape);

struct PlanVerifyReport {
  bool ok() const { return failures.empty(); }
  std::vector<std::string> failures;
  std::string ToString() const;
};

/// Static verifier over the plan *alone* (no graph access), so a stored or
/// mutated plan is checkable — which is what lets the planner-mutant tests
/// prove the alarm rings. Named diagnostics, each `[tag]`-prefixed:
///   [shape-rule]              carried over from build_failures
///   [accum-model]             simulated schedule disagreed with runtime
///   [malformed-interval]      inverted interval / missing offset / size 0
///   [overlapping-intervals]   two simultaneously-live buffers share bytes
///   [dead-store]              a differentiable value written, never read
///   [grad-freed-before-last-accumulation]  interval ends before a site
///   [grad-outlives-accumulation]  grad kept past its last read/accum
///   [reshape-alias-hazard]    alias views a different-sized or
///                             shorter-lived buffer (the Tensor::Reshape
///                             bug class PR 6 caught dynamically)
PlanVerifyReport VerifyGraphPlan(const GraphPlan& plan,
                                 const PlanOptions& options = {});

/// Compact JSON ({"buffers": [...], "planned_total_bytes": ...}) via
/// obs::JsonWriter; deterministic field order.
std::string PlanToJson(const GraphPlan& plan);

/// Graphviz DOT: value buffers as ellipses, grads as dashed boxes,
/// dataflow edges, one label line with interval and arena offset.
std::string PlanToDot(const GraphPlan& plan);

/// Pinned agreement bound between planned_total_bytes and the PR-6 memory
/// profiler's measured peak on the zoo models: the measured peak must lie
/// in [planned_total, planned_total * kPlannedPeakTolerance]. The lower
/// bound is exact (every planned buffer is really allocated inside the
/// measured window); the headroom covers what the static plan cannot see —
/// backward temporaries and tensors captured by op closures (softmax probs,
/// masks). Measured ratios across the 24-model zoo sit at 1.01–1.26, worst
/// case FPMC (tiny graph, so its backward temporaries weigh relatively
/// most); 1.5 leaves room for kernel-level temporaries to shift without
/// letting a whole uncaptured subgraph slip past unplanned.
constexpr double kPlannedPeakTolerance = 1.5;

/// Whole-zoo runner, mirroring RunModelAudit: builds `model` on the tiny
/// audit vocabulary, records one eval-mode forward/backward under a tape
/// *inside a fresh prof session* (restarting any active session), plans
/// and verifies the graph, and cross-checks planned vs. measured peak.
/// When EMBSR_GRAPH_DUMP_DIR is set, writes plan_<model>.json and
/// plan_<model>.dot next to the graph_<model>.* audit dumps.
struct ModelPlanOutcome {
  bool known = false;   // CreateModel recognized the name
  bool neural = false;  // memory-based baselines have no graph to plan
  GraphPlan plan;
  PlanVerifyReport verify;
  int64_t measured_peak_bytes = 0;  // prof peak delta over the run
  double measured_over_planned = 0.0;
};
ModelPlanOutcome RunModelPlan(const std::string& model);

}  // namespace analyze
}  // namespace embsr

#endif  // EMBSR_ANALYZE_GRAPH_PLAN_H_
