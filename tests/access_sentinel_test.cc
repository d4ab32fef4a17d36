// Kernel access-contract sentinel (src/par/access_check.h) under a
// contracts build. This TU compiles with EMBSR_CHECK_CONTRACTS=1 (set in
// tests/CMakeLists.txt), so ForChecked really enumerates and verifies the
// declared per-chunk access sets — including the seeded-mutant death tests
// that prove the sentinel actually fires on a DESIGN.md §11 violation.
//
// The checker runs on *declared* index sets before any chunk is dispatched,
// so every test here is deterministic at every EMBSR_THREADS value —
// including 1, where TSan by construction can't see the race.

#include <cstdint>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "par/access_check.h"
#include "par/thread_pool.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace embsr {
namespace par {
namespace {

TEST(AccessSentinel, ContractsAreEnabledInThisTu) {
  // Guards the build plumbing: if the per-TU define is dropped, every death
  // test below would silently pass by never running the checker.
  EXPECT_EQ(EMBSR_CONTRACTS_ENABLED, 1);
}

TEST(AccessSentinel, CleanPartitionRunsAndComputes) {
  const int64_t n = 103, g = 8;
  std::vector<float> out(n, 0.0f);
  ForChecked(
      "test/fill", 0, n, g,
      [&](int64_t lo, int64_t hi, AccessSet* set) {
        set->Write(out.data(), lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) out[static_cast<size_t>(i)] = 2.0f;
      });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0.0f), 2.0f * n);
}

TEST(AccessSentinel, SharedReadOnlyInputIsFine) {
  // Every chunk reading the whole of a second buffer (the MatMul / row
  // broadcast pattern) is not a violation: reads may overlap reads.
  const int64_t n = 64;
  std::vector<float> in(16, 1.0f), out(n, 0.0f);
  ForChecked(
      "test/broadcast", 0, n, 4,
      [&](int64_t lo, int64_t hi, AccessSet* set) {
        set->Write(out.data(), lo, hi);
        set->Read(in.data(), 0, static_cast<int64_t>(in.size()));
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) out[static_cast<size_t>(i)] = in[0];
      });
  EXPECT_EQ(out[0], 1.0f);
}

TEST(AccessSentinel, ChunkMayReadItsOwnWrites) {
  // In-place kernels (AddRowBroadcast's `out[i] += row[j]`) declare a read
  // and a write of the same range; same-chunk overlap is legal.
  const int64_t n = 32;
  std::vector<float> out(n, 1.0f);
  ForChecked(
      "test/in_place", 0, n, 8,
      [&](int64_t lo, int64_t hi, AccessSet* set) {
        set->Write(out.data(), lo, hi);
        set->Read(out.data(), lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) out[static_cast<size_t>(i)] += 1.0f;
      });
  EXPECT_EQ(out[0], 2.0f);
}

using AccessSentinelDeathTest = ::testing::Test;

TEST(AccessSentinelDeathTest, OverlappingWritesAbort) {
  // Seeded mutant: a kernel that partitions its output off-by-one, so
  // adjacent chunks both claim the boundary element. The classic §11 bug.
  std::vector<float> out(64, 0.0f);
  EXPECT_DEATH(
      ForChecked(
          "test/overlapping_writes", 0, 64, 8,
          [&](int64_t lo, int64_t hi, AccessSet* set) {
            set->Write(out.data(), lo, hi + 1);  // one element too far
          },
          [&](int64_t, int64_t) {}),
      "access contract violated");
}

TEST(AccessSentinelDeathTest, ForeignReadAborts) {
  // Seeded mutant: a "parallel prefix" kernel where chunk i reads the
  // element chunk i-1 writes — racy under any real schedule.
  std::vector<float> out(64, 0.0f);
  EXPECT_DEATH(
      ForChecked(
          "test/foreign_read", 0, 64, 8,
          [&](int64_t lo, int64_t hi, AccessSet* set) {
            set->Write(out.data(), lo, hi);
            if (lo > 0) set->Read(out.data(), lo - 1, lo);
          },
          [&](int64_t, int64_t) {}),
      "access contract violated");
}

TEST(AccessSentinelDeathTest, SplitReductionAborts) {
  // Seeded mutant: dispatching par::For inside a serial-by-contract
  // reduction (what a naive parallelization of SumAll would do).
  EXPECT_DEATH(
      {
        SerialReductionScope scope("test/sum_all");
        For(0, 64, 8, [](int64_t, int64_t) {});
      },
      "access contract violated");
}

TEST(AccessSentinel, SerialReductionScopeRestoresOnExit) {
  {
    SerialReductionScope scope("test/scoped");
  }
  // Outside the scope, dispatch is legal again.
  std::vector<float> out(16, 0.0f);
  For(0, 16, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[static_cast<size_t>(i)] = 1.0f;
  });
  EXPECT_EQ(out[15], 1.0f);
}

TEST(AccessSentinel, RealKernelsRunCleanUnderTheChecker) {
  // Exercises the production declarations in tensor.cc on awkward shapes
  // (sizes that don't divide the grain). tensor.cc's own ForChecked gating
  // is per-TU, so the declarations are actually verified in the
  // -DEMBSR_CHECK_CONTRACTS=ON builds run by scripts/run_sanitized_tests.sh;
  // elsewhere this is a plain smoke test of the same call paths.
  Rng rng(123);
  const Tensor a = Tensor::Randn({13, 7}, 1.0f, &rng);
  const Tensor b = Tensor::Randn({13, 7}, 1.0f, &rng);
  const Tensor w = Tensor::Randn({7, 5}, 1.0f, &rng);
  const Tensor row = Tensor::Randn({1, 7}, 1.0f, &rng);

  (void)Add(a, b);
  (void)Mul(a, b);
  (void)MatMul(a, w);
  (void)AddRowBroadcast(a, row);
  (void)MulRowBroadcast(a, row);
  (void)RowSoftmax(a);
  (void)SumColsToNx1(a);
  (void)ConcatCols(a, b);
  (void)ConcatRows(a, b);
  (void)L2NormalizeRows(a);
  (void)GatherRows(a, {0, 5, 12, 5});
  // Serial-by-contract reductions under their sentinel scopes.
  (void)SumAll(a);
  (void)SumRowsTo1xD(a);
  Tensor acc = Tensor::Zeros({13, 7});
  ScatterAddRows(Tensor::Randn({3, 7}, 1.0f, &rng), {1, 1, 4}, &acc);
  SUCCEED();
}

}  // namespace
}  // namespace par
}  // namespace embsr
