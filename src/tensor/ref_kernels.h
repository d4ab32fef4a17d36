#ifndef EMBSR_TENSOR_REF_KERNELS_H_
#define EMBSR_TENSOR_REF_KERNELS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace embsr {
namespace tensor {
namespace ref {

/// The pre-parallelization serial kernels, kept verbatim as the oracle for
/// tests/kernel_equiv_test.cc. Every production kernel in tensor.cc must
/// match its `ref::` twin to <= 1e-5 relative error at every thread count —
/// and, because the parallel kernels only partition *outputs* and never
/// reorder a per-element reduction (DESIGN.md §11), they actually match
/// bit for bit. These are not for production use: they are single-threaded
/// by construction and stay frozen when the real kernels evolve.

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);
Tensor MulRowBroadcast(const Tensor& a, const Tensor& row);
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);
void MatMulTransposedAInto(const Tensor& a, const Tensor& b, bool store,
                           bool transpose_out, Tensor* out);
Tensor SumAll(const Tensor& a);
Tensor SumRowsTo1xD(const Tensor& a);
Tensor SumColsToNx1(const Tensor& a);
Tensor RowSoftmax(const Tensor& a);
Tensor RowSoftmaxMasked(const Tensor& a, const Tensor& mask);
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);
void ScatterAddRows(const Tensor& grad_rows,
                    const std::vector<int64_t>& indices, Tensor* grad_table);
Tensor SelectRowsByMask(const Tensor& a, const Tensor& b, const Tensor& mask);
Tensor SegmentSumRows(const Tensor& a, const std::vector<int64_t>& segments,
                      int64_t num_segments);
Tensor ConcatCols(const Tensor& a, const Tensor& b);
Tensor ConcatRows(const Tensor& a, const Tensor& b);
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-12f);

}  // namespace ref
}  // namespace tensor
}  // namespace embsr

#endif  // EMBSR_TENSOR_REF_KERNELS_H_
