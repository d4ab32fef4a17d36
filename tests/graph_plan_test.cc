// Static shape/liveness analyzer and arena memory planner (src/analyze).
//
// Three layers of enforcement, mirroring graph_audit_test.cc:
//  1. Every zoo model's recorded graph gets a verified arena plan: all
//     shapes re-derive, the simulated backward schedule matches the
//     runtime's accumulation counts, no two simultaneously-live buffers
//     share arena bytes, and the planned footprint brackets the prof
//     memory tracker's measured peak within kPlannedPeakTolerance.
//  2. Shape rules: each node carries its op's OpDef, whose shape rule
//     (required by ag::OpTable's static_assert) flags a corrupted output.
//  3. Seeded mutants: a corrupted plan (overlapping intervals, dead
//     store, too-early-freed gradient, over-held gradient, bad reshape
//     alias) must each be *rejected* with its named diagnostic — the
//     verifier's alarm actually rings.

#include <string>
#include <vector>

#include "analyze/graph_plan.h"
#include "analyze/model_audits.h"
#include "autograd/op_def.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "bench/bench_common.h"
#include "gtest/gtest.h"

namespace embsr {
namespace analyze {
namespace {

bool HasFailureTagged(const std::vector<std::string>& failures,
                      const std::string& tag) {
  for (const std::string& f : failures) {
    if (f.find(tag) != std::string::npos) return true;
  }
  return false;
}

// ---- 1. Whole zoo: plan, verify, cross-check against measured peak --------

TEST(GraphPlan, EveryZooModelGetsAVerifiedPlan) {
  bench::BenchReport report("graph_plan");
  int neural_planned = 0;
  for (const ModelAuditSpec& spec : ModelAudits()) {
    const ModelPlanOutcome outcome = RunModelPlan(spec.model);
    ASSERT_TRUE(outcome.known) << spec.model;
    if (!outcome.neural) continue;  // memory-based: no graph to plan
    ++neural_planned;

    EXPECT_TRUE(outcome.verify.ok())
        << spec.model << ": " << outcome.verify.ToString();
    EXPECT_GT(outcome.plan.stats.tape_nodes, 0) << spec.model;
    EXPECT_GT(outcome.plan.stats.backward_steps, 0) << spec.model;
    EXPECT_GT(outcome.plan.stats.shapes.checked, 0) << spec.model;
    EXPECT_GT(outcome.plan.planned_total_bytes, 0) << spec.model;
    EXPECT_GE(outcome.plan.planned_total_bytes, outcome.plan.planned_peak_bytes)
        << spec.model;
    EXPECT_GE(outcome.plan.arena_extent_bytes, outcome.plan.planned_peak_bytes)
        << spec.model;

    // The planned-vs-measured bracket: every planned buffer really is
    // allocated inside the measured window (lower bound exact), and the
    // pinned tolerance covers what the static plan cannot see (backward
    // temporaries, closure-captured tensors).
    EXPECT_GE(outcome.measured_peak_bytes, outcome.plan.planned_total_bytes)
        << spec.model;
    EXPECT_LE(static_cast<double>(outcome.measured_peak_bytes),
              static_cast<double>(outcome.plan.planned_total_bytes) *
                  kPlannedPeakTolerance)
        << spec.model << ": measured " << outcome.measured_peak_bytes
        << "B is " << outcome.measured_over_planned
        << "x planned; re-pin kPlannedPeakTolerance deliberately if the "
        << "backward really grew";

    report.AddScalar("planned_peak_bytes/" + spec.model,
                     static_cast<double>(outcome.plan.planned_peak_bytes));
    report.AddScalar("planned_total_bytes/" + spec.model,
                     static_cast<double>(outcome.plan.planned_total_bytes));
    report.AddScalar("measured_over_planned/" + spec.model,
                     outcome.measured_over_planned);
  }
  // The paper's Table 3 zoo: 13+ gradient-trained models must be planned.
  EXPECT_GE(neural_planned, 13);
}

// ---- 2. Shape rules ------------------------------------------------------

TEST(GraphPlan, ShapeRuleCatchesCorruptedOutput) {
  ag::Variable x(Tensor::Full({2, 3}, 0.5f), /*requires_grad=*/true);
  ag::Variable y = ag::Mul(x, x);
  const ag::OpDef* def = y.node()->def;
  EXPECT_EQ(def->shape_rule(*y.node()), "");
  // Corrupt the recorded output in place: [2,3] * [2,3] -> [2,2] is the
  // inconsistency class the rules exist to catch.
  y.node()->value = Tensor::Zeros({2, 2});
  const std::string diag = def->shape_rule(*y.node());
  EXPECT_NE(diag.find("Mul"), std::string::npos) << diag;
}

// ---- 3. Clean graphs plan exactly ------------------------------------------

TEST(GraphPlan, CleanGraphPlansWithExactIntervals) {
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 3}, 0.5f), /*requires_grad=*/true);
  ag::Variable y = ag::Tanh(ag::Mul(x, x));
  ag::Variable loss = ag::SumAll(y);
  loss.Backward();

  const GraphPlan plan = BuildGraphPlan(loss, {{"x", x}}, tape);
  const PlanVerifyReport verify = VerifyGraphPlan(plan);
  EXPECT_TRUE(verify.ok()) << verify.ToString();

  // Forward steps 0..3 (leaf, Mul, Tanh, SumAll), seed at 4, backward
  // execs 5..7 (SumAll, Tanh, Mul), end step 8.
  EXPECT_EQ(plan.stats.tape_nodes, 4);
  EXPECT_EQ(plan.stats.forward_steps, 4);
  EXPECT_EQ(plan.stats.backward_steps, 3);
  EXPECT_EQ(plan.stats.persistent_nodes, 0);
  EXPECT_EQ(plan.end_step, 8);
  // 4 value buffers + 4 grad buffers (seeded root, Tanh, Mul, leaf).
  EXPECT_EQ(plan.buffers.size(), 8u);
  EXPECT_EQ(plan.stats.planned_buffers, 8);
  // Three [2,3] values + scalar loss, mirrored by their grads.
  EXPECT_EQ(plan.planned_total_bytes, 2 * (3 * 24 + 4));
  EXPECT_GE(plan.planned_total_bytes, plan.planned_peak_bytes);
  EXPECT_GE(plan.arena_extent_bytes, plan.planned_peak_bytes);
  EXPECT_FALSE(plan.edges.empty());

  for (const PlanBuffer& b : plan.buffers) {
    EXPECT_GE(b.offset, 0) << b.label;
    EXPECT_LE(b.def_step, b.last_use_step) << b.label;
    if (b.is_grad && b.node_id == 0) {
      // The leaf's grad: accumulated twice by Mul's backward (x appears as
      // both factors) at step 7, held for the optimizer until end step 8.
      EXPECT_EQ(b.accum_steps, (std::vector<int64_t>{7, 7}));
      EXPECT_EQ(b.def_step, 7);
      EXPECT_EQ(b.last_use_step, 8);
      EXPECT_EQ(b.label, "x");
    }
  }

  const std::string json = PlanToJson(plan);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"planned_total_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"buffers\":"), std::string::npos);
  const std::string dot = PlanToDot(plan);
  EXPECT_NE(dot.find("digraph graph_plan"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(GraphPlan, ParametersOutsideTheTapeArePersistent) {
  ag::Variable w(Tensor::Full({2, 3}, 0.5f), /*requires_grad=*/true);
  ag::Tape tape;  // opened after w: w is a persistent (parameter) node
  ag::Variable loss = ag::SumAll(ag::Mul(w, w));
  loss.Backward();

  const GraphPlan plan = BuildGraphPlan(loss, {{"w", w}}, tape);
  const PlanVerifyReport verify = VerifyGraphPlan(plan);
  EXPECT_TRUE(verify.ok()) << verify.ToString();
  EXPECT_EQ(plan.stats.persistent_nodes, 1);

  bool saw_persistent_value = false, saw_param_grad = false;
  for (const PlanBuffer& b : plan.buffers) {
    if (b.label != "w") continue;
    if (!b.is_grad) {
      saw_persistent_value = true;
      EXPECT_TRUE(b.persistent);
      EXPECT_EQ(b.offset, -1);  // persistent storage is not arena-planned
      EXPECT_GT(b.reads, 0);
    } else {
      // The parameter's gradient is transient: born in backward, read by
      // the optimizer at end-of-graph, arena-planned like any other.
      saw_param_grad = true;
      EXPECT_FALSE(b.persistent);
      EXPECT_GE(b.offset, 0);
      EXPECT_EQ(b.last_use_step, plan.end_step);
    }
  }
  EXPECT_TRUE(saw_persistent_value);
  EXPECT_TRUE(saw_param_grad);
}

TEST(GraphPlan, DetectsScheduleDriftFromRuntime) {
  // A second Backward doubles every accum_count: the simulated schedule
  // (one pass) must disagree, and the plan must say so.
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 2}, 1.0f), /*requires_grad=*/true);
  ag::Variable loss = ag::SumAll(ag::Mul(x, x));
  loss.Backward();
  loss.Backward();
  const GraphPlan plan = BuildGraphPlan(loss, {{"x", x}}, tape);
  EXPECT_TRUE(HasFailureTagged(plan.build_failures, "[accum-model]"));
  EXPECT_FALSE(VerifyGraphPlan(plan).ok());
}

// ---- 4. Seeded plan mutants: each named diagnostic must fire ---------------

/// A graph whose node z is accumulated at two *different* backward steps
/// (Add's exec and Tanh's exec), so gradient-interval mutants can sit
/// strictly between first and last accumulation.
struct TwoAccumFixture {
  ag::Tape tape;
  ag::Variable x{Tensor::Full({2, 2}, 0.5f), /*requires_grad=*/true};
  ag::Variable z, loss;
  GraphPlan plan;

  TwoAccumFixture() {
    z = ag::Mul(x, x);
    loss = ag::SumAll(ag::Add(z, ag::Tanh(z)));
    loss.Backward();
    plan = BuildGraphPlan(loss, {{"x", x}}, tape);
  }

  PlanBuffer* GradWithTwoAccumSteps() {
    for (PlanBuffer& b : plan.buffers) {
      if (b.is_grad && b.accum_steps.size() == 2 &&
          b.accum_steps[0] != b.accum_steps[1]) {
        return &b;
      }
    }
    return nullptr;
  }
};

TEST(GraphPlan, RejectsOverlappingIntervalPlan) {
  TwoAccumFixture fx;
  ASSERT_TRUE(VerifyGraphPlan(fx.plan).ok())
      << VerifyGraphPlan(fx.plan).ToString();
  // Collapse two simultaneously-live value buffers onto the same offset —
  // the exact corruption the arena verifier exists to refuse.
  PlanBuffer* a = nullptr;
  PlanBuffer* b = nullptr;
  for (PlanBuffer& buf : fx.plan.buffers) {
    if (buf.is_grad || buf.persistent) continue;
    if (a == nullptr) {
      a = &buf;
    } else if (b == nullptr && a->def_step <= buf.last_use_step &&
               buf.def_step <= a->last_use_step) {
      b = &buf;
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  b->offset = a->offset;
  const PlanVerifyReport verify = VerifyGraphPlan(fx.plan);
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(HasFailureTagged(verify.failures, "[overlapping-intervals]"))
      << verify.ToString();
}

TEST(GraphPlan, RejectsDeadStoreGraph) {
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 2}, 2.0f), /*requires_grad=*/true);
  ag::Variable y = ag::Mul(x, x);
  { ag::Variable dropped = ag::Exp(y); }  // computed, then forgotten
  ag::Variable loss = ag::SumAll(y);
  loss.Backward();

  const GraphPlan plan = BuildGraphPlan(loss, {{"x", x}}, tape);
  const PlanVerifyReport verify = VerifyGraphPlan(plan);
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(HasFailureTagged(verify.failures, "[dead-store]"))
      << verify.ToString();
  EXPECT_TRUE(HasFailureTagged(verify.failures, "Exp")) << verify.ToString();

  // The same plan with the dead op explicitly allowed is clean (mirrors
  // the tape auditor's allowed_orphan_ops escape hatch).
  PlanOptions allow;
  allow.allowed_dead_stores = {"Exp"};
  EXPECT_TRUE(VerifyGraphPlan(plan, allow).ok())
      << VerifyGraphPlan(plan, allow).ToString();
}

TEST(GraphPlan, RejectsGradFreedBeforeLastAccumulation) {
  TwoAccumFixture fx;
  PlanBuffer* g = fx.GradWithTwoAccumSteps();
  ASSERT_NE(g, nullptr);
  // Free the gradient after its first accumulation but before its second:
  // the arena would hand the bytes to someone else mid-accumulation.
  g->last_use_step = g->accum_steps.front();
  const PlanVerifyReport verify = VerifyGraphPlan(fx.plan);
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(HasFailureTagged(verify.failures,
                               "[grad-freed-before-last-accumulation]"))
      << verify.ToString();
}

TEST(GraphPlan, RejectsGradOutlivingItsLastAccumulation) {
  TwoAccumFixture fx;
  PlanBuffer* g = fx.GradWithTwoAccumSteps();
  ASSERT_NE(g, nullptr);
  // Hold the gradient past end-of-graph: planned memory the schedule can
  // never touch again — the leak-shaped smell, not a correctness bug.
  g->last_use_step = fx.plan.end_step + 3;
  const PlanVerifyReport verify = VerifyGraphPlan(fx.plan);
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(
      HasFailureTagged(verify.failures, "[grad-outlives-accumulation]"))
      << verify.ToString();
}

TEST(GraphPlan, RejectsReshapeAliasHazards) {
  TwoAccumFixture fx;
  // A well-formed view first: same bytes, lifetime inside the target's.
  const PlanBuffer* target = nullptr;
  for (const PlanBuffer& b : fx.plan.buffers) {
    if (!b.is_grad && !b.persistent && b.last_use_step > b.def_step) {
      target = &b;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  PlanBuffer view;
  view.id = static_cast<int64_t>(fx.plan.buffers.size());
  view.node_id = target->node_id;
  view.label = "view";
  view.shape = target->shape;
  view.size_bytes = target->size_bytes;
  view.def_step = target->def_step;
  view.last_use_step = target->last_use_step;
  view.reads = 1;
  view.alias_of = target->id;
  fx.plan.buffers.push_back(view);
  EXPECT_TRUE(VerifyGraphPlan(fx.plan).ok())
      << VerifyGraphPlan(fx.plan).ToString();

  // Mutant 1: the view claims more bytes than the storage it aliases —
  // the Tensor::Reshape growth bug class, caught statically this time.
  fx.plan.buffers.back().size_bytes = target->size_bytes + 4;
  PlanVerifyReport verify = VerifyGraphPlan(fx.plan);
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(HasFailureTagged(verify.failures, "[reshape-alias-hazard]"))
      << verify.ToString();

  // Mutant 2: right size, but the view outlives the aliased buffer.
  fx.plan.buffers.back().size_bytes = target->size_bytes;
  fx.plan.buffers.back().last_use_step = target->last_use_step + 1;
  verify = VerifyGraphPlan(fx.plan);
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(HasFailureTagged(verify.failures, "[reshape-alias-hazard]"))
      << verify.ToString();
}

}  // namespace
}  // namespace analyze
}  // namespace embsr
