#include "tensor/tensor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/buffer_pool.h"

namespace embsr {
namespace {

TEST(TensorTest, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.ndim(), 0);
  EXPECT_EQ(t.size(), 1);
  EXPECT_FLOAT_EQ(t.at(0), 0.0f);
}

TEST(TensorTest, ShapeConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, FillConstruction) {
  Tensor t({2, 2}, 3.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t.at(i), 3.5f);
}

TEST(TensorTest, ExplicitData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at2(0, 0), 1);
  EXPECT_FLOAT_EQ(t.at2(0, 1), 2);
  EXPECT_FLOAT_EQ(t.at2(1, 0), 3);
  EXPECT_FLOAT_EQ(t.at2(1, 1), 4);
}

TEST(TensorTest, RandnStats) {
  Rng rng(1);
  Tensor t = Tensor::Randn({100, 100}, 2.0f, &rng);
  double sum = 0, sq = 0;
  for (int64_t i = 0; i < t.size(); ++i) {
    sum += t.at(i);
    sq += t.at(i) * t.at(i);
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.1);
  EXPECT_NEAR(sq / t.size(), 4.0, 0.2);
}

TEST(TensorTest, RandUniformRange) {
  Rng rng(2);
  Tensor t = Tensor::RandUniform({50, 50}, -0.5f, 0.5f, &rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.at(i), -0.5f);
    EXPECT_LT(t.at(i), 0.5f);
  }
}

TEST(TensorTest, ReshapeKeepsData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_FLOAT_EQ(r.at2(2, 1), 6);
}

TEST(TensorTest, Transpose) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.Transposed();
  EXPECT_EQ(tt.dim(0), 3);
  EXPECT_EQ(tt.dim(1), 2);
  EXPECT_FLOAT_EQ(tt.at2(0, 1), 4);
  EXPECT_FLOAT_EQ(tt.at2(2, 0), 3);
  EXPECT_TRUE(tt.Transposed().AllClose(t));
}

TEST(TensorTest, SliceRows) {
  Tensor t({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = t.SliceRows(1, 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_FLOAT_EQ(s.at2(0, 0), 3);
  EXPECT_FLOAT_EQ(s.at2(1, 1), 6);
  Tensor row = t.Row(0);
  EXPECT_EQ(row.dim(0), 1);
  EXPECT_FLOAT_EQ(row.at2(0, 1), 2);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.at(0), 4);
  a.ScaleInPlace(2.0f);
  EXPECT_FLOAT_EQ(a.at(1), 12);
  a.Fill(7.0f);
  EXPECT_FLOAT_EQ(a.at(0), 7);
}

TEST(TensorTest, L2Norm) {
  Tensor t({2, 2}, {3, 0, 0, 4});
  EXPECT_FLOAT_EQ(t.L2Norm(), 5.0f);
}

// tensor_pool::HeapAcquires() counts acquisitions whose destination had to
// grow; the end-to-end benchmark reports its per-step delta.
TEST(TensorTest, HeapAcquiresCountsOnlyShortDestinations) {
  constexpr int64_t n = 96;
  const Tensor src({n}, 2.0f);

  int64_t before = tensor_pool::HeapAcquires();
  Tensor fresh({n});
  EXPECT_EQ(tensor_pool::HeapAcquires() - before, 1);

  before = tensor_pool::HeapAcquires();
  fresh = src;  // already holds n floats: reused in place
  EXPECT_EQ(tensor_pool::HeapAcquires() - before, 0);
  EXPECT_FLOAT_EQ(fresh.at(n - 1), 2.0f);

  Tensor smaller({n / 2});
  before = tensor_pool::HeapAcquires();
  smaller = src;  // short of n: grows on the heap
  EXPECT_EQ(tensor_pool::HeapAcquires() - before, 1);
  EXPECT_EQ(smaller.size(), n);
}

TEST(TensorKernels, ElementwiseBinary) {
  Tensor a({2}, {1, 2}), b({2}, {3, 5});
  EXPECT_TRUE(Add(a, b).AllClose(Tensor({2}, {4, 7})));
  EXPECT_TRUE(Mul(a, b).AllClose(Tensor({2}, {3, 10})));
}

TEST(TensorKernels, Unary) {
  Tensor a({2}, {-1, 2});
  EXPECT_TRUE(Scale(a, 2).AllClose(Tensor({2}, {-2, 4})));
  EXPECT_TRUE(AddScalar(a, 1).AllClose(Tensor({2}, {0, 3})));
  EXPECT_TRUE(Relu(a).AllClose(Tensor({2}, {0, 2})));
  EXPECT_NEAR(Sigmoid(a).at(0), 1.0f / (1.0f + std::exp(1.0f)), 1e-6);
  EXPECT_NEAR(Tanh(a).at(1), std::tanh(2.0f), 1e-6);
}

TEST(TensorKernels, AddRowBroadcast) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor row({1, 2}, {10, 20});
  EXPECT_TRUE(
      AddRowBroadcast(a, row).AllClose(Tensor({2, 2}, {11, 22, 13, 24})));
}

TEST(TensorKernels, MatMulCorrectness) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(TensorKernels, MatMulIdentity) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, 1.0f, &rng);
  Tensor eye({4, 4});
  for (int i = 0; i < 4; ++i) eye.at2(i, i) = 1.0f;
  EXPECT_TRUE(MatMul(a, eye).AllClose(a));
  EXPECT_TRUE(MatMul(eye, a).AllClose(a));
}

TEST(TensorKernels, Reductions) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(SumAll(a).at(0), 21);
  EXPECT_TRUE(SumRowsTo1xD(a).AllClose(Tensor({1, 3}, {5, 7, 9})));
  EXPECT_TRUE(SumColsToNx1(a).AllClose(Tensor({2, 1}, {6, 15})));
}

TEST(TensorKernels, RowSoftmaxSumsToOne) {
  Tensor a({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = RowSoftmax(a);
  for (int i = 0; i < 2; ++i) {
    float sum = 0;
    for (int j = 0; j < 3; ++j) {
      sum += s.at2(i, j);
      EXPECT_GT(s.at2(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // Monotone in the logits.
  EXPECT_LT(s.at2(0, 0), s.at2(0, 2));
}

TEST(TensorKernels, RowSoftmaxNumericalStability) {
  Tensor a({1, 2}, {1000.0f, 1001.0f});
  Tensor s = RowSoftmax(a);
  EXPECT_NEAR(s.at2(0, 0) + s.at2(0, 1), 1.0f, 1e-6);
  EXPECT_GT(s.at2(0, 1), s.at2(0, 0));
}

TEST(TensorKernels, RowSoftmaxMasked) {
  Tensor a({1, 3}, {5, 1, 3});
  Tensor mask({1, 3}, {1, 0, 1});
  Tensor s = RowSoftmaxMasked(a, mask);
  EXPECT_FLOAT_EQ(s.at2(0, 1), 0.0f);
  EXPECT_NEAR(s.at2(0, 0) + s.at2(0, 2), 1.0f, 1e-6);
}

TEST(TensorKernels, RowSoftmaxFullyMaskedRowIsZero) {
  Tensor a({1, 2}, {5, 1});
  Tensor mask({1, 2}, {0, 0});
  Tensor s = RowSoftmaxMasked(a, mask);
  EXPECT_FLOAT_EQ(s.at2(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(s.at2(0, 1), 0.0f);
}

TEST(TensorKernels, GatherScatterRoundTrip) {
  Tensor table({4, 2}, {0, 1, 10, 11, 20, 21, 30, 31});
  Tensor g = GatherRows(table, {2, 0, 2});
  EXPECT_TRUE(g.AllClose(Tensor({3, 2}, {20, 21, 0, 1, 20, 21})));

  Tensor grad({4, 2});
  ScatterAddRows(Tensor({3, 2}, {1, 1, 2, 2, 3, 3}), {2, 0, 2}, &grad);
  EXPECT_TRUE(grad.AllClose(Tensor({4, 2}, {2, 2, 0, 0, 4, 4, 0, 0})));
}

TEST(TensorKernels, Concat) {
  Tensor a({2, 1}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  EXPECT_TRUE(ConcatCols(a, b).AllClose(Tensor({2, 3}, {1, 3, 4, 2, 5, 6})));
  Tensor c({1, 1}, {9.0f});
  EXPECT_TRUE(ConcatRows(a, c).AllClose(Tensor({3, 1}, {1, 2, 9})));
}

TEST(TensorKernels, L2NormalizeRows) {
  Tensor a({2, 2}, {3, 4, 0, 0});
  Tensor n = L2NormalizeRows(a);
  EXPECT_NEAR(n.at2(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(n.at2(0, 1), 0.8f, 1e-6);
  // Zero rows stay zero (no NaN).
  EXPECT_FLOAT_EQ(n.at2(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(n.at2(1, 1), 0.0f);
}

TEST(TensorKernels, AllCloseRespectsShapeAndTol) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {1.0005f, 2});
  EXPECT_TRUE(a.AllClose(b, 1e-3f));
  EXPECT_FALSE(a.AllClose(b, 1e-5f));
  EXPECT_FALSE(a.AllClose(Tensor({1, 2}, {1, 2})));
}

}  // namespace
}  // namespace embsr
