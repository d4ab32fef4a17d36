#ifndef EMBSR_AUTOGRAD_OPS_H_
#define EMBSR_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "util/rng.h"

namespace embsr {
namespace ag {

/// Differentiable operations. Every function builds one node in the
/// computation graph (Neg, Row and MeanRowsTo1xD build the node of the op
/// they lower to); gradients flow to any input with requires_grad set.
/// Each node-building op has one entry in ag::OpTable() (op_def.h).
/// Shape contracts mirror the kernels in tensor/tensor.h.

// Elementwise; shapes must match.
Variable Add(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);

/// a: [n, d]; row: [1, d] (or rank-1 [d]); adds row to every row of a.
Variable AddRowBroadcast(const Variable& a, const Variable& row);
/// a: [n, d]; row: [1, d]; multiplies every row of a elementwise by row.
Variable MulRowBroadcast(const Variable& a, const Variable& row);
/// a: [n, d]; col: [n, 1]; scales row i of a by col[i].
Variable MulColBroadcast(const Variable& a, const Variable& col);

Variable Scale(const Variable& a, float s);
Variable AddScalar(const Variable& a, float s);
Variable Neg(const Variable& a);

/// [n, k] x [k, m] -> [n, m].
Variable MatMul(const Variable& a, const Variable& b);
/// Scores every row of `b` against every row of `a`: [n, k] x [m, k]^T ->
/// [n, m], the decode of session representations `a` against an item table
/// `b`. Bitwise equal to MatMul(a, Transpose(b)), forward and backward,
/// without materializing the [k, m] transpose.
Variable ScoreItems(const Variable& a, const Variable& b);
/// Matrix transpose (rank 2).
Variable Transpose(const Variable& a);

Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);

/// [n, d1] ++ [n, d2] -> [n, d1+d2].
Variable ConcatCols(const Variable& a, const Variable& b);
/// [n1, d] ++ [n2, d] -> [n1+n2, d].
Variable ConcatRows(const Variable& a, const Variable& b);
/// Stacks k row vectors [1, d] into [k, d].
Variable StackRows(const std::vector<Variable>& rows);
/// Rows [begin, end) of a rank-2 input.
Variable SliceRows(const Variable& a, int64_t begin, int64_t end);
/// Single row r as [1, d].
Variable Row(const Variable& a, int64_t r);

/// Embedding lookup: rows of `table` ([v, d]) at `indices`.
Variable GatherRows(const Variable& table, const std::vector<int64_t>& indices);

/// Row-wise bitwise select between same-shape a and b: output row i is a's
/// where mask[i] != 0, else b's. `mask` ([n, 1] or rank-1 [n]) is an op
/// attribute, not a differentiable input. Gradients route to the selected
/// side only — the unselected side's rows receive exactly zero, which is how
/// the batched GRU keeps padded steps out of the gradient entirely.
Variable SelectRowsByMask(const Variable& a, const Variable& b,
                          const Tensor& mask);

/// Segment sum over rows: out[segments[i]] += a[i], [n, d] ->
/// [num_segments, d], accumulating in ascending row order. The transpose of
/// GatherRows; backward gathers output grads back through `segments`.
Variable SegmentSumRows(const Variable& a,
                        const std::vector<int64_t>& segments,
                        int64_t num_segments);

/// Row-wise softmax. `mask` (same shape, 0/1) marks valid entries; fully
/// masked rows come out as all-zero. Pass an all-ones mask for plain softmax.
Variable RowSoftmaxMasked(const Variable& a, const Tensor& mask);

/// Scalar sum of all elements.
Variable SumAll(const Variable& a);
/// Column sums: [n, d] -> [1, d].
Variable SumRowsTo1xD(const Variable& a);
/// Column means: [n, d] -> [1, d].
Variable MeanRowsTo1xD(const Variable& a);

/// Repeats a [1, d] row n times -> [n, d].
Variable RepeatRow(const Variable& a, int64_t n);

/// Row-wise L2 normalization (zero rows stay zero).
Variable L2NormalizeRowsOp(const Variable& a);

/// Row-wise layer normalization to zero mean / unit variance (no affine;
/// compose with MulRowBroadcast + AddRowBroadcast for gamma/beta).
Variable LayerNormRows(const Variable& a, float eps = 1e-5f);

/// Inverted dropout. Identity when !training or p == 0.
Variable Dropout(const Variable& a, float p, bool training, Rng* rng);

/// Mean cross-entropy of row-wise softmax(logits) against integer targets.
/// logits: [n, C]; targets.size() == n. Returns a scalar.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int64_t>& targets);

}  // namespace ag
}  // namespace embsr

#endif  // EMBSR_AUTOGRAD_OPS_H_
