// Kernel equivalence suite: every parallel tensor kernel in src/tensor must
// match its frozen serial oracle in src/tensor/ref_kernels.* across ragged
// shapes and thread counts.
//
// The contract (DESIGN.md §11) is ≤ 1e-5 relative error; because the
// parallel kernels partition outputs only and never split or reorder a
// per-element reduction, the results are in fact BIT-IDENTICAL at every
// thread count, and that is what these tests assert (memcmp), with the
// relative-error bound as a second, looser check that documents the
// published tolerance.
//
// Coverage is enforced from the outside: gradcheck_test scans this file for
// EMBSR_KERNEL_EQUIV(Name) markers and fails if any kernel declared in
// src/tensor/tensor.h lacks one (or if a marker goes stale).

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "par/thread_pool.h"
#include "tensor/ref_kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Coverage marker scanned by verify::ScanKernelEquivCoverage. Expands to a
// SCOPED_TRACE so failures name the kernel under test.
#define EMBSR_KERNEL_EQUIV(name) SCOPED_TRACE("kernel: " #name)

namespace embsr {
namespace {

// Thread counts every comparison runs at: strict serial, the smallest truly
// parallel pool, and the hardware default. SetThreadCount(0) restores the
// EMBSR_THREADS / hardware default afterwards.
std::vector<int> ThreadCountsUnderTest() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> counts = {1, 2};
  if (hw > 2) counts.push_back(hw);
  return counts;
}

// Ragged [n, m] shapes: the 1x1 degenerate case, prime extents, extents
// around the 64-wide MatMul tile boundary, and skinny/wide extremes.
struct Shape2 {
  int64_t n, m;
};
const std::vector<Shape2>& RaggedShapes() {
  static const std::vector<Shape2> kShapes = {
      {1, 1}, {7, 13}, {1, 257}, {129, 1}, {64, 64}, {65, 66}, {31, 97},
  };
  return kShapes;
}

void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(got.size())),
            0)
      << what << ": parallel kernel diverges bitwise from the serial oracle";
  // The published (looser) contract, stated explicitly so the suite still
  // documents it even though the bitwise check above subsumes it.
  EXPECT_TRUE(got.AllClose(want, 1e-5f)) << what;
}

// Runs `compute` (which must call the production kernel) at every thread
// count under test and compares against `oracle` computed once, serially.
template <typename Fn>
void CheckAtAllThreadCounts(const Tensor& oracle, Fn compute,
                            const std::string& what) {
  for (int threads : ThreadCountsUnderTest()) {
    par::SetThreadCount(threads);
    const Tensor got = compute();
    ExpectBitIdentical(got, oracle,
                       what + " at threads=" + std::to_string(threads));
  }
  par::SetThreadCount(0);
}

std::string ShapeTag(const Shape2& s) {
  return std::to_string(s.n) + "x" + std::to_string(s.m);
}

class KernelEquivTest : public ::testing::Test {
 protected:
  void TearDown() override { par::SetThreadCount(0); }
  Rng rng_{20260806};
};

// -- Elementwise binary ---------------------------------------------------------

TEST_F(KernelEquivTest, ElementwiseBinary) {
  EMBSR_KERNEL_EQUIV(Add);
  EMBSR_KERNEL_EQUIV(Mul);
  for (const Shape2& s : RaggedShapes()) {
    const Tensor a = Tensor::RandUniform({s.n, s.m}, -2.0f, 2.0f, &rng_);
    const Tensor b = Tensor::RandUniform({s.n, s.m}, -2.0f, 2.0f, &rng_);
    CheckAtAllThreadCounts(tensor::ref::Add(a, b), [&] { return Add(a, b); },
                           "Add " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::Mul(a, b), [&] { return Mul(a, b); },
                           "Mul " + ShapeTag(s));
  }
}

TEST_F(KernelEquivTest, RowBroadcasts) {
  EMBSR_KERNEL_EQUIV(AddRowBroadcast);
  EMBSR_KERNEL_EQUIV(MulRowBroadcast);
  for (const Shape2& s : RaggedShapes()) {
    const Tensor a = Tensor::RandUniform({s.n, s.m}, -2.0f, 2.0f, &rng_);
    const Tensor row = Tensor::RandUniform({1, s.m}, -2.0f, 2.0f, &rng_);
    CheckAtAllThreadCounts(tensor::ref::AddRowBroadcast(a, row),
                           [&] { return AddRowBroadcast(a, row); },
                           "AddRowBroadcast " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::MulRowBroadcast(a, row),
                           [&] { return MulRowBroadcast(a, row); },
                           "MulRowBroadcast " + ShapeTag(s));
  }
}

// -- Elementwise unary ----------------------------------------------------------

TEST_F(KernelEquivTest, ElementwiseUnary) {
  EMBSR_KERNEL_EQUIV(Scale);
  EMBSR_KERNEL_EQUIV(AddScalar);
  EMBSR_KERNEL_EQUIV(Tanh);
  EMBSR_KERNEL_EQUIV(Sigmoid);
  EMBSR_KERNEL_EQUIV(Relu);
  for (const Shape2& s : RaggedShapes()) {
    const Tensor a = Tensor::RandUniform({s.n, s.m}, -2.0f, 2.0f, &rng_);
    CheckAtAllThreadCounts(tensor::ref::Scale(a, 1.75f),
                           [&] { return Scale(a, 1.75f); },
                           "Scale " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::AddScalar(a, -0.5f),
                           [&] { return AddScalar(a, -0.5f); },
                           "AddScalar " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::Tanh(a), [&] { return Tanh(a); },
                           "Tanh " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::Sigmoid(a), [&] { return Sigmoid(a); },
                           "Sigmoid " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::Relu(a), [&] { return Relu(a); },
                           "Relu " + ShapeTag(s));
  }
}

// -- MatMul ---------------------------------------------------------------------

TEST_F(KernelEquivTest, MatMulRaggedShapes) {
  EMBSR_KERNEL_EQUIV(MatMul);
  // [n, k] x [k, m] with extents straddling the 64-wide j-tile and the
  // row-parallel grain; includes sparse-ish input to exercise the zero-skip.
  struct Shape3 {
    int64_t n, k, m;
  };
  const std::vector<Shape3> shapes = {
      {1, 1, 1}, {7, 13, 5},  {64, 64, 64}, {65, 3, 66},
      {1, 97, 1}, {31, 64, 129}, {128, 17, 63},
  };
  for (const auto& s : shapes) {
    Tensor a = Tensor::RandUniform({s.n, s.k}, -1.0f, 1.0f, &rng_);
    const Tensor b = Tensor::RandUniform({s.k, s.m}, -1.0f, 1.0f, &rng_);
    // Zero out ~25% of A so the `av == 0` skip path runs on both sides.
    for (int64_t i = 0; i < a.size(); i += 4) a.at(i) = 0.0f;
    const std::string tag = "MatMul " + std::to_string(s.n) + "x" +
                            std::to_string(s.k) + "x" + std::to_string(s.m);
    CheckAtAllThreadCounts(tensor::ref::MatMul(a, b),
                           [&] { return MatMul(a, b); }, tag);
  }
}

// [n, k] x [m, k]^T: item counts m on both sides of every 64-wide panel
// edge (63/64/65, 127/128/129 and a ragged 300), with one-row and
// multi-chunk row counts, a quarter of A zeroed for the zero-skip. Besides
// its ref:: oracle, the kernel must equal MatMul on the transposed table
// bitwise, which is what lets the model decodes use it in place of
// MatMul(rep, Transpose(table)).
TEST_F(KernelEquivTest, MatMulTransposedBAcrossPanelEdges) {
  EMBSR_KERNEL_EQUIV(MatMulTransposedB);
  struct Shape3 {
    int64_t n, k, m;
  };
  const std::vector<Shape3> shapes = {
      {1, 1, 1},    {1, 100, 63}, {1, 100, 64},  {1, 100, 65},
      {3, 17, 127}, {16, 8, 128}, {7, 33, 129},  {65, 64, 300},
      {129, 5, 66}, {2, 97, 1},
  };
  for (const auto& s : shapes) {
    Tensor a = Tensor::RandUniform({s.n, s.k}, -1.0f, 1.0f, &rng_);
    const Tensor b = Tensor::RandUniform({s.m, s.k}, -1.0f, 1.0f, &rng_);
    for (int64_t i = 0; i < a.size(); i += 4) a.at(i) = 0.0f;
    const std::string tag = "MatMulTransposedB " + std::to_string(s.n) +
                            "x" + std::to_string(s.k) + "x" +
                            std::to_string(s.m);
    const Tensor oracle = tensor::ref::MatMulTransposedB(a, b);
    ExpectBitIdentical(tensor::ref::MatMul(a, b.Transposed()), oracle,
                       tag + " vs MatMul on the transpose");
    CheckAtAllThreadCounts(oracle, [&] { return MatMulTransposedB(a, b); },
                           tag);
  }
}

// aᵀ·b written into an existing [k, m] output (MatMul's weight gradient)
// or its [m, k] transpose (ScoreItems' table gradient), stored or added.
// Extents straddle the 64-wide tile, row counts reach several chunks, a
// quarter of A is zeroed (some of it -0.0f) for the zero-skip, B holds one
// +Inf that meets those zeros, and the output added into holds -0.0f.
// Besides its ref:: oracle, the kernel must equal the composition the
// backward passes would otherwise build, AddInPlace of
// MatMul(a.Transposed(), b) (or of its transpose), bitwise.
TEST_F(KernelEquivTest, MatMulTransposedAIntoStoresAndAdds) {
  EMBSR_KERNEL_EQUIV(MatMulTransposedAInto);
  struct Shape3 {
    int64_t n, k, m;
  };
  const std::vector<Shape3> shapes = {
      {1, 1, 1},   {1, 100, 100}, {3, 17, 127},
      {17, 65, 63}, {2, 129, 66},  {64, 7, 300},
  };
  for (const auto& s : shapes) {
    Tensor a = Tensor::RandUniform({s.n, s.k}, -1.0f, 1.0f, &rng_);
    Tensor b = Tensor::RandUniform({s.n, s.m}, -1.0f, 1.0f, &rng_);
    for (int64_t i = 0; i < a.size(); i += 4) a.at(i) = i % 8 ? -0.0f : 0.0f;
    b.at(b.size() / 2) = std::numeric_limits<float>::infinity();
    const Tensor product = tensor::ref::MatMul(a.Transposed(), b);
    for (bool transpose_out : {false, true}) {
      const Tensor stored = transpose_out ? product.Transposed() : product;
      Tensor prior = Tensor::RandUniform(stored.shape(), -1.0f, 1.0f, &rng_);
      for (int64_t i = 0; i < prior.size(); i += 3) prior.at(i) = -0.0f;
      for (bool store : {true, false}) {
        const std::string tag =
            std::string("MatMulTransposedAInto ") +
            (transpose_out ? "transposed " : "") + (store ? "store " : "add ") +
            std::to_string(s.n) + "x" + std::to_string(s.k) + "x" +
            std::to_string(s.m);
        // A stored output starts as NaN, so any element left unwritten
        // shows.
        const Tensor start =
            store ? Tensor(stored.shape(), std::nanf("")) : prior;
        Tensor composed = prior;
        composed.AddInPlace(stored);
        Tensor oracle = start;
        tensor::ref::MatMulTransposedAInto(a, b, store, transpose_out, &oracle);
        ExpectBitIdentical(oracle, store ? stored : composed,
                           tag + " vs the built product");
        CheckAtAllThreadCounts(
            oracle,
            [&] {
              Tensor got = start;
              MatMulTransposedAInto(a, b, store, transpose_out, &got);
              return got;
            },
            tag);
      }
    }
  }
}

// -- Reductions -----------------------------------------------------------------

TEST_F(KernelEquivTest, Reductions) {
  EMBSR_KERNEL_EQUIV(SumAll);
  EMBSR_KERNEL_EQUIV(SumRowsTo1xD);
  EMBSR_KERNEL_EQUIV(SumColsToNx1);
  for (const Shape2& s : RaggedShapes()) {
    const Tensor a = Tensor::RandUniform({s.n, s.m}, -2.0f, 2.0f, &rng_);
    CheckAtAllThreadCounts(tensor::ref::SumAll(a), [&] { return SumAll(a); },
                           "SumAll " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::SumRowsTo1xD(a),
                           [&] { return SumRowsTo1xD(a); },
                           "SumRowsTo1xD " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::SumColsToNx1(a),
                           [&] { return SumColsToNx1(a); },
                           "SumColsToNx1 " + ShapeTag(s));
  }
}

// -- Row kernels ----------------------------------------------------------------

TEST_F(KernelEquivTest, RowSoftmaxFamily) {
  EMBSR_KERNEL_EQUIV(RowSoftmax);
  EMBSR_KERNEL_EQUIV(RowSoftmaxMasked);
  for (const Shape2& s : RaggedShapes()) {
    const Tensor a = Tensor::RandUniform({s.n, s.m}, -5.0f, 5.0f, &rng_);
    // 0/1 mask with at least one unmasked entry per row (column 0).
    Tensor mask({s.n, s.m});
    for (int64_t i = 0; i < s.n; ++i) {
      mask.at2(i, 0) = 1.0f;
      for (int64_t j = 1; j < s.m; ++j) {
        mask.at2(i, j) = (rng_.Uniform() < 0.6) ? 1.0f : 0.0f;
      }
    }
    CheckAtAllThreadCounts(tensor::ref::RowSoftmax(a),
                           [&] { return RowSoftmax(a); },
                           "RowSoftmax " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::RowSoftmaxMasked(a, mask),
                           [&] { return RowSoftmaxMasked(a, mask); },
                           "RowSoftmaxMasked " + ShapeTag(s));
  }
}

TEST_F(KernelEquivTest, L2NormalizeRowsIncludingZeroRows) {
  EMBSR_KERNEL_EQUIV(L2NormalizeRows);
  for (const Shape2& s : RaggedShapes()) {
    Tensor a = Tensor::RandUniform({s.n, s.m}, -2.0f, 2.0f, &rng_);
    // Force a zero row so the zero-norm branch is compared too.
    for (int64_t j = 0; j < s.m; ++j) a.at2(s.n - 1, j) = 0.0f;
    CheckAtAllThreadCounts(tensor::ref::L2NormalizeRows(a),
                           [&] { return L2NormalizeRows(a); },
                           "L2NormalizeRows " + ShapeTag(s));
  }
}

// -- Gather / scatter / concat --------------------------------------------------

TEST_F(KernelEquivTest, GatherAndScatter) {
  EMBSR_KERNEL_EQUIV(GatherRows);
  EMBSR_KERNEL_EQUIV(ScatterAddRows);
  const Tensor table = Tensor::RandUniform({97, 13}, -1.0f, 1.0f, &rng_);
  // Duplicate indices on purpose: ScatterAddRows accumulates, and duplicate
  // destinations are why it stays serial (DESIGN.md §11).
  const std::vector<int64_t> indices = {0, 5, 96, 5, 42, 0, 17, 5};
  const Tensor grad_rows = Tensor::RandUniform(
      {static_cast<int64_t>(indices.size()), 13}, -1.0f, 1.0f, &rng_);

  CheckAtAllThreadCounts(tensor::ref::GatherRows(table, indices),
                         [&] { return GatherRows(table, indices); },
                         "GatherRows");

  Tensor want_table({97, 13});
  tensor::ref::ScatterAddRows(grad_rows, indices, &want_table);
  CheckAtAllThreadCounts(want_table,
                         [&] {
                           Tensor got_table({97, 13});
                           ScatterAddRows(grad_rows, indices, &got_table);
                           return got_table;
                         },
                         "ScatterAddRows");
}

TEST_F(KernelEquivTest, BatchedSelectAndSegmentSum) {
  EMBSR_KERNEL_EQUIV(SelectRowsByMask);
  EMBSR_KERNEL_EQUIV(SegmentSumRows);
  for (const Shape2& s : RaggedShapes()) {
    const Tensor a = Tensor::RandUniform({s.n, s.m}, -1.0f, 1.0f, &rng_);
    const Tensor b = Tensor::RandUniform({s.n, s.m}, -1.0f, 1.0f, &rng_);
    Tensor mask({s.n, 1});
    for (int64_t i = 0; i < s.n; ++i) {
      mask.data()[i] = rng_.Bernoulli(0.5) ? 1.0f : 0.0f;
    }
    CheckAtAllThreadCounts(tensor::ref::SelectRowsByMask(a, b, mask),
                           [&] { return SelectRowsByMask(a, b, mask); },
                           "SelectRowsByMask " + ShapeTag(s));

    // Ragged segment map: contiguous runs of random length, plus one
    // trailing empty segment — the shape the session collator emits.
    std::vector<int64_t> segments(static_cast<size_t>(s.n));
    int64_t seg = 0;
    for (int64_t i = 0; i < s.n; ++i) {
      segments[static_cast<size_t>(i)] = seg;
      if (rng_.Bernoulli(0.4)) ++seg;
    }
    const int64_t num_segments = seg + 2;
    CheckAtAllThreadCounts(
        tensor::ref::SegmentSumRows(a, segments, num_segments),
        [&] { return SegmentSumRows(a, segments, num_segments); },
        "SegmentSumRows " + ShapeTag(s));
  }
}

TEST_F(KernelEquivTest, Concats) {
  EMBSR_KERNEL_EQUIV(ConcatCols);
  EMBSR_KERNEL_EQUIV(ConcatRows);
  for (const Shape2& s : RaggedShapes()) {
    const Tensor a = Tensor::RandUniform({s.n, s.m}, -1.0f, 1.0f, &rng_);
    const Tensor bc = Tensor::RandUniform({s.n, s.m + 3}, -1.0f, 1.0f, &rng_);
    const Tensor br = Tensor::RandUniform({s.n + 2, s.m}, -1.0f, 1.0f, &rng_);
    CheckAtAllThreadCounts(tensor::ref::ConcatCols(a, bc),
                           [&] { return ConcatCols(a, bc); },
                           "ConcatCols " + ShapeTag(s));
    CheckAtAllThreadCounts(tensor::ref::ConcatRows(a, br),
                           [&] { return ConcatRows(a, br); },
                           "ConcatRows " + ShapeTag(s));
  }
}

}  // namespace
}  // namespace embsr
