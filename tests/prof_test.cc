// embsr::prof — per-op attribution, cost models, memory tracker, lane stats
// and their publication into the obs metrics registry.
//
// Every op's cost function lives in its ag::OpTable entry, so cost coverage
// is structural (OpTable.* in autograd_test runs each one on real shapes).
//  - CostModelPins checks three of them against hand-computed values.
//  - ProfAttribution pins the gap-based accounting: with profiling on,
//    per-op forward+backward time summed over the snapshot must land
//    within 10% of the enclosing StepScope spans.
//  - ProfPublish pins what Stop() leaves in the registry.

#include <string>
#include <vector>

#include "autograd/op_def.h"
#include "autograd/ops.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "prof/op_profiler.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace embsr {
namespace {

using ag::Variable;

prof::OpCost CostFor(ag::OpId id, const prof::ShapeInfo& info) {
  return ag::OpTable()[static_cast<size_t>(id)].cost(info);
}

TEST(CostModelPins, MatMulAgainstHandComputedValues) {
  // [3,4] x [4,5] -> [3,5]: 2*n*k*m = 2*3*4*5 = 120 flops;
  // reads (12+20) floats = 128 bytes; writes 15 floats = 60 bytes.
  prof::ShapeInfo s;
  s.inputs = {{3, 4}, {4, 5}};
  s.output = {3, 5};
  const prof::OpCost c = CostFor(ag::OpId::kMatMul, s);
  EXPECT_DOUBLE_EQ(c.flops, 120.0);
  EXPECT_DOUBLE_EQ(c.bytes_read, 128.0);
  EXPECT_DOUBLE_EQ(c.bytes_written, 60.0);
}

TEST(CostModelPins, ScoreItemsAgainstHandComputedValues) {
  // [3,4] x [5,4]^T -> [3,5]: the same 2*n*k*m = 120 flops as the MatMul
  // it replaces; reads a and the item table (12+20 floats = 128 bytes),
  // writes 15 floats = 60 bytes. No transpose is charged.
  prof::ShapeInfo s;
  s.inputs = {{3, 4}, {5, 4}};
  s.output = {3, 5};
  const prof::OpCost c = CostFor(ag::OpId::kScoreItems, s);
  EXPECT_DOUBLE_EQ(c.flops, 120.0);
  EXPECT_DOUBLE_EQ(c.bytes_read, 128.0);
  EXPECT_DOUBLE_EQ(c.bytes_written, 60.0);
}

TEST(CostModelPins, GatherRowsAgainstHandComputedValues) {
  // Embedding gather of 3 rows of width 4: touches only the gathered rows
  // (12 floats = 48 bytes read), writes the same 48 bytes, zero flops —
  // the table size must NOT appear in the cost.
  prof::ShapeInfo s;
  s.inputs = {{1000, 4}};
  s.output = {3, 4};
  const prof::OpCost c = CostFor(ag::OpId::kGatherRows, s);
  EXPECT_DOUBLE_EQ(c.flops, 0.0);
  EXPECT_DOUBLE_EQ(c.bytes_read, 48.0);
  EXPECT_DOUBLE_EQ(c.bytes_written, 48.0);
}

TEST(ProfAttribution, PerOpTimesSumToStepSpanWithinTenPercent) {
  Rng rng(17);
  const Tensor ta = Tensor::Randn({128, 128}, 0.5f, &rng);
  const Tensor tb = Tensor::Randn({128, 128}, 0.5f, &rng);
  const Tensor tc = Tensor::Randn({128, 128}, 0.5f, &rng);

  prof::Start();
  const int kSteps = 5;
  for (int i = 0; i < kSteps; ++i) {
    prof::StepScope step;
    Variable a(ta, true);
    Variable b(tb, true);
    Variable c(tc, true);
    Variable y = ag::SumAll(ag::MatMul(ag::MatMul(a, b), c));
    y.Backward();
  }
  prof::Stop();

  const prof::ProfileSnapshot snap = prof::Snapshot();
  EXPECT_EQ(snap.steps, kSteps);
  ASSERT_GT(snap.step_ns, 0);
  ASSERT_FALSE(snap.ops.empty());

  int64_t attributed = 0;
  bool saw_matmul = false;
  for (const prof::OpAgg& op : snap.ops) {
    attributed += op.forward_ns + op.backward_ns;
    if (op.name == "MatMul") {
      saw_matmul = true;
      EXPECT_EQ(op.calls, 2 * kSteps);
      EXPECT_EQ(op.backward_calls, 2 * kSteps);
      // 2 * 128^3 flops per call, both calls square.
      EXPECT_DOUBLE_EQ(op.flops, 2.0 * 128 * 128 * 128 * 2 * kSteps);
    }
  }
  EXPECT_TRUE(saw_matmul);

  // Gap-based forward charging + directly-timed backward means the per-op
  // sum can never exceed the step spans, and with 128^3 MatMuls dominating
  // the work it must reach at least 90% of them.
  const double ratio =
      static_cast<double>(attributed) / static_cast<double>(snap.step_ns);
  EXPECT_LE(ratio, 1.05) << "attributed " << attributed << "ns vs step "
                         << snap.step_ns << "ns";
  EXPECT_GE(ratio, 0.90) << "attributed " << attributed << "ns vs step "
                         << snap.step_ns << "ns";
}

TEST(ProfAttribution, ComponentScopeLabelsOps) {
  Rng rng(3);
  const Tensor t = Tensor::Randn({16, 16}, 0.5f, &rng);

  prof::Start();
  {
    prof::StepScope step;
    prof::ComponentScope component("prof_test_component");
    Variable a(t, true);
    ag::SumAll(ag::MatMul(a, a)).Backward();
  }
  prof::Stop();

  const prof::ProfileSnapshot snap = prof::Snapshot();
  bool found = false;
  for (const prof::OpAgg& c : snap.components) {
    if (c.name == "prof_test_component") {
      found = true;
      EXPECT_GT(c.calls, 0);
      EXPECT_GT(c.backward_calls, 0);
    }
  }
  EXPECT_TRUE(found) << "component rollup missing the scoped label";
}

TEST(ProfAttribution, DisabledProfilerRecordsNothing) {
  prof::Stop();  // ends the session EMBSR_PROF=1 opens at process start
  ASSERT_FALSE(prof::Enabled());
  {
    prof::StepScope step;  // must be inert when off
    Variable a(Tensor::Scalar(2.0f), true);
    ag::Mul(a, a).Backward();
  }
  // Start+Stop immediately: the session sees none of the work above.
  prof::Start();
  prof::Stop();
  const prof::ProfileSnapshot snap = prof::Snapshot();
  EXPECT_EQ(snap.steps, 0);
  EXPECT_TRUE(snap.ops.empty());
}

TEST(MemTrackerTest, LivePeakAndCountsFollowTensorLifetimes) {
  prof::Start();
  const prof::MemStats base = prof::MemSnapshot();
  {
    Tensor t = Tensor::Zeros({10, 10});  // 400 bytes
    const prof::MemStats mid = prof::MemSnapshot();
    EXPECT_EQ(mid.live_bytes - base.live_bytes, 400);
    EXPECT_GE(mid.peak_bytes, mid.live_bytes);
    EXPECT_EQ(mid.alloc_count - base.alloc_count, 1);
    EXPECT_EQ(mid.alloc_bytes_total - base.alloc_bytes_total, 400);
  }
  const prof::MemStats end = prof::MemSnapshot();
  EXPECT_EQ(end.live_bytes, base.live_bytes);
  EXPECT_EQ(end.free_count - base.free_count, 1);
  EXPECT_GE(end.peak_bytes - base.live_bytes, 400);
  prof::Stop();
}

TEST(MemTrackerTest, MoveTransfersOwnershipWithoutDoubleCounting) {
  prof::Start();
  const prof::MemStats base = prof::MemSnapshot();
  {
    Tensor t = Tensor::Zeros({8, 8});  // 256 bytes
    Tensor u = std::move(t);
    // Move transfers the buffer: still one live allocation.
    const prof::MemStats mid = prof::MemSnapshot();
    EXPECT_EQ(mid.live_bytes - base.live_bytes, 256);
    EXPECT_EQ(mid.alloc_count - base.alloc_count, 1);
  }
  const prof::MemStats end = prof::MemSnapshot();
  EXPECT_EQ(end.live_bytes, base.live_bytes);
  EXPECT_EQ(end.free_count - base.free_count, 1);
  prof::Stop();
}

TEST(ProfPoolStats, LaneAccountingRoundTrips) {
  prof::Start();
  prof::AddLaneBusy(0, 1000, 2);
  prof::AddLaneBusy(2, 500, 1);
  prof::AddLaneBusy(0, 200, 1);
  const std::vector<prof::LaneStats> lanes = prof::LaneSnapshot();
  ASSERT_EQ(lanes.size(), 3u);  // trimmed to the highest recorded lane
  EXPECT_EQ(lanes[0].busy_ns, 1200);
  EXPECT_EQ(lanes[0].chunks, 3);
  EXPECT_EQ(lanes[1].busy_ns, 0);
  EXPECT_EQ(lanes[2].busy_ns, 500);
  EXPECT_EQ(lanes[2].chunks, 1);
  prof::Stop();
}

double Gauge(const std::string& name) {
  return obs::Registry::Global().GetGauge(name)->value();
}

TEST(ProfPublish, StopPublishesTotalsAndALaterSessionZeroesThem) {
  Rng rng(5);
  const Tensor t = Tensor::Randn({32, 32}, 0.5f, &rng);
  const int kSteps = 3;
  prof::Start();
  for (int i = 0; i < kSteps; ++i) {
    prof::StepScope step;
    Variable a(t, true);
    ag::SumAll(ag::MatMul(ag::MatMul(a, a), a)).Backward();
  }
  prof::Stop();

  double matmul_flops = 0.0;
  for (const prof::OpAgg& op : prof::Snapshot().ops) {
    if (op.name == "MatMul") matmul_flops = op.flops;
  }
  ASSERT_GT(matmul_flops, 0.0);
  EXPECT_EQ(Gauge("prof/op/MatMul/calls"), 2.0 * kSteps);
  EXPECT_EQ(Gauge("prof/op/MatMul/backward_calls"), 2.0 * kSteps);
  EXPECT_EQ(Gauge("prof/op/MatMul/flops"), matmul_flops);
  EXPECT_GE(Gauge("prof/component/none/calls"), 2.0 * kSteps);
  EXPECT_EQ(Gauge("prof/steps"), kSteps);
  EXPECT_GT(Gauge("prof/step_ms"), 0.0);
  EXPECT_GT(Gauge("prof/mem/alloc_count"), 0.0);

  // A later session that runs no MatMul must not show the earlier one's.
  prof::Start();
  {
    Variable a(Tensor::Scalar(2.0f), true);
    ag::Mul(a, a).Backward();
  }
  prof::Stop();
  EXPECT_EQ(Gauge("prof/op/MatMul/calls"), 0.0);
  EXPECT_EQ(Gauge("prof/op/MatMul/flops"), 0.0);
  EXPECT_EQ(Gauge("prof/op/Mul/calls"), 1.0);
  EXPECT_EQ(Gauge("prof/steps"), 0.0);
}

}  // namespace
}  // namespace embsr
