// Perf regression guard for the parallel execution layer, ctest-labeled
// `perf` so it can be excluded on noisy machines (ctest -LE perf).
//
// The headline assertion: threaded MatMul(256^3) at the hardware thread
// count must be >= 1.5x faster than the strict-serial pool. On single-core
// hosts the speedup leg GTEST_SKIPs (there is nothing to win), but the
// BENCH_par_smoke.json sidecar is still written — with the `threads` field
// and the measured timings — so scripts/check_bench_json.py always has a
// report to validate (the par_smoke_json ctest runs this binary under
// --run).

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "bench/bench_common.h"
#include "datagen/generator.h"
#include "gtest/gtest.h"
#include "par/thread_pool.h"
#include "prof/op_profiler.h"
#include "tensor/tensor.h"
#include "train/evaluator.h"
#include "train/model_zoo.h"
#include "util/rng.h"
#include "util/timer.h"

namespace embsr {
namespace {

// Middle element of an odd-sized sample.
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median-of-reps wall time of `fn` in milliseconds, with warmup.
template <typename Fn>
double MedianMs(int reps, Fn fn) {
  fn();
  fn();  // warmup: page in, warm caches, spin up pool lanes
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    ms.push_back(t.ElapsedSeconds() * 1e3);
  }
  return Median(std::move(ms));
}

TEST(PerfRegression, ThreadedMatMulBeatsSerial) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());

  Rng rng(7);
  const Tensor a = Tensor::RandUniform({256, 256}, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::RandUniform({256, 256}, -1.0f, 1.0f, &rng);

  par::SetThreadCount(1);
  const double serial_ms = MedianMs(9, [&] { (void)MatMul(a, b); });
  par::SetThreadCount(0);  // hardware / EMBSR_THREADS default
  const double pool_ms = MedianMs(9, [&] { (void)MatMul(a, b); });
  const double speedup = serial_ms / std::max(pool_ms, 1e-9);

  {
    // Written before any skip/assert so the sidecar always exists.
    bench::BenchReport report("par_smoke");
    report.AddScalar("matmul256_serial_ms", serial_ms);
    report.AddScalar("matmul256_pool_ms", pool_ms);
    report.AddScalar("matmul256_speedup", speedup);
    report.AddScalar("hardware_concurrency", hw);
  }

  if (hw < 2) {
    GTEST_SKIP() << "single hardware thread (hw=" << hw
                 << "): the pool is serial here, no speedup to assert; "
                 << "measured speedup=" << speedup;
  }
  EXPECT_GE(speedup, 1.5)
      << "threaded MatMul(256^3) regressed: serial=" << serial_ms
      << "ms pool=" << pool_ms << "ms at " << par::ThreadCount() << " lanes";
}

TEST(PerfRegression, BatchedEvalThroughputFloorAtBatch32) {
  // The batched-execution floor: evaluating GRU4Rec at forward_batch 32
  // must clear 2x the sessions/sec of forward_batch 1 on a multi-core
  // host. Batching wins twice — the [d, V] decode transpose is
  // materialized once per forward-batch instead of once per session, and
  // 32 per-step GEMVs fuse into one GEMM — so the floor holds even though
  // both legs fan out across the pool. Both legs score the same 512 test
  // sessions: 512 chunks at b1 and 16 at b32, so either leg keeps up to
  // 16 lanes busy. The legs take turns, pass for pass, and the floor
  // compares their medians, so both see the same host state; a burst in
  // which the scheduler stacks the pool's workers on one core then lands
  // on both legs, not on one. Like the MatMul leg above, the
  // BENCH_batch_smoke.json sidecar (with the sessions_per_sec scalars) is
  // written before any skip.
  constexpr size_t kSessions = 512;
  constexpr int kPasses = 7;  // per leg; odd, so the median is one pass
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  auto data = MakeDataset(JdAppliancesConfig(0.5));
  ASSERT_TRUE(data.ok());
  const std::vector<Example>& test = data.value().test;
  // Evaluate clamps max_examples to the split, so a smaller split would
  // shrink the timed window without a word.
  ASSERT_GE(test.size(), kSessions)
      << "the floor times " << kSessions << " sessions; the split holds "
      << test.size();

  par::SetThreadCount(0);  // hardware / EMBSR_THREADS default
  // Same seed at both legs, so both models hold identical parameters.
  auto make_model = [&](int forward_batch) {
    TrainConfig cfg;
    cfg.embedding_dim = 32;
    cfg.seed = 7;
    cfg.forward_batch = forward_batch;
    std::unique_ptr<Recommender> model = CreateModel(
        "GRU4Rec", data.value().num_items, data.value().num_operations, cfg);
    EMBSR_CHECK(model != nullptr);
    model->EnsureEvalMode();
    return model;
  };
  auto pass_seconds = [&](Recommender* model) {
    WallTimer t;
    const EvalResult r = Evaluate(model, test, {20}, kSessions);
    const double wall = t.ElapsedSeconds();
    EMBSR_CHECK_EQ(r.ranks.size(), kSessions);
    return wall;
  };
  const std::unique_ptr<Recommender> b1 = make_model(1);
  const std::unique_ptr<Recommender> b32 = make_model(32);
  (void)pass_seconds(b1.get());  // warmup
  (void)pass_seconds(b32.get());
  std::vector<double> wall1, wall32;
  for (int p = 0; p < kPasses; ++p) {
    wall1.push_back(pass_seconds(b1.get()));
    wall32.push_back(pass_seconds(b32.get()));
  }
  const double sps1 = kSessions / Median(wall1);
  const double sps32 = kSessions / Median(wall32);

  {
    bench::BenchReport report("batch_smoke");
    report.AddScalar("sessions_per_sec/GRU4Rec/b1", sps1);
    report.AddScalar("sessions_per_sec/GRU4Rec/b32", sps32);
    report.AddScalar("batch32_speedup", sps32 / std::max(sps1, 1e-9));
    report.AddScalar("hardware_concurrency", hw);
  }

  if (hw < 2) {
    GTEST_SKIP() << "single hardware thread (hw=" << hw
                 << "): multi-core floor does not apply; measured "
                 << "b1=" << sps1 << " b32=" << sps32 << " sessions/sec";
  }
  EXPECT_GE(sps32, 2.0 * sps1)
      << "batch-32 evaluation regressed below the 2x floor: b1=" << sps1
      << " b32=" << sps32 << " sessions/sec at " << par::ThreadCount()
      << " lanes";
}

TEST(PerfRegression, ProfOffOverheadWithinTwoPercent) {
  // The zero-cost-when-off guarantee (ISSUE 6): with EMBSR_PROF unset,
  // embsr::prof costs one branch per recorded op (Collector::ActiveOrNull)
  // plus one per tensor alloc/free (the mem hooks). Measure that branch
  // cost directly and require it under 2% of the real per-op time of the
  // micro-substrate workload — a machine-independent form of the "<= 2%
  // on bench_micro_substrate" criterion that does not need two builds.
  if (prof::Enabled()) {
    GTEST_SKIP() << "EMBSR_PROF=1: the off-path has nothing to measure";
  }

  // 1) Per-call cost of the disabled hooks.
  constexpr int kCalls = 1 << 20;
  volatile int64_t sink = 0;
  WallTimer hook_timer;
  for (int i = 0; i < kCalls; ++i) {
    sink = sink + (prof::Collector::ActiveOrNull() != nullptr);
    const bool counted = prof::OnTensorAlloc(16);
    prof::OnTensorFree(16, counted);
  }
  const double hook_ns = hook_timer.ElapsedSeconds() * 1e9 / kCalls;

  // 2) Real per-op time of an autograd round trip (the bench_micro_substrate
  // BM_AutogradRoundTrip shape): 3 recorded ops forward + 3 backward.
  // 3) For the record (EXPERIMENTS.md): the same workload profiled.
  // The profiler-off and profiler-on round trips alternate rep by rep, so
  // a host hiccup lands on both medians instead of on one of them.
  Rng rng(11);
  const Tensor ta = Tensor::Randn({64, 64}, 0.5f, &rng);
  const Tensor tb = Tensor::Randn({64, 64}, 0.5f, &rng);
  auto round_trip = [&] {
    ag::Variable a(ta, true);
    ag::Variable b(tb, true);
    ag::SumAll(ag::MatMul(a, b)).Backward();
  };
  auto timed_ms = [&] {
    WallTimer t;
    round_trip();
    return t.ElapsedSeconds() * 1e3;
  };
  constexpr int kReps = 15;
  round_trip();
  round_trip();  // warmup, profiler off
  prof::Start();
  round_trip();
  round_trip();  // warmup, profiler on
  prof::Stop();
  std::vector<double> off_reps, on_reps;
  for (int r = 0; r < kReps; ++r) {
    off_reps.push_back(timed_ms());
    prof::Start();
    on_reps.push_back(timed_ms());
    prof::Stop();
  }
  const double off_ms = Median(off_reps);
  const double on_ms = Median(on_reps);
  const double per_op_ns = off_ms * 1e6 / 6.0;

  {
    bench::BenchReport report("prof_overhead");
    report.AddScalar("hook_off_ns_per_call", hook_ns);
    report.AddScalar("roundtrip_off_ms", off_ms);
    report.AddScalar("roundtrip_prof_on_ms", on_ms);
    report.AddScalar("prof_on_over_off_ratio",
                     on_ms / std::max(off_ms, 1e-9));
  }

  EXPECT_LT(hook_ns, 0.02 * per_op_ns)
      << "disabled-profiler hooks cost " << hook_ns << "ns/call vs "
      << per_op_ns << "ns per real op (>2%)";
  // Profiling ON may legitimately cost more, but an order-of-magnitude
  // blowup means a lock or allocation crept into the record path.
  EXPECT_LT(on_ms, off_ms * 2.0)
      << "EMBSR_PROF=1 round trip " << on_ms << "ms vs off " << off_ms
      << "ms";
}

TEST(PerfRegression, ParForOverheadIsBounded) {
  // A trivially small For must not cost more than ~1ms even with a live
  // pool: the single-chunk inline fast path short-circuits submission.
  par::SetThreadCount(0);
  const double ms = MedianMs(9, [&] {
    volatile int64_t sink = 0;
    par::For(0, 64, 4096,
             [&](int64_t lo, int64_t hi) { sink = sink + (hi - lo); });
  });
  EXPECT_LT(ms, 1.0) << "single-chunk par::For no longer runs inline?";
}

}  // namespace
}  // namespace embsr
