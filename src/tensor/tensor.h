#ifndef EMBSR_TENSOR_TENSOR_H_
#define EMBSR_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "prof/mem_tracker.h"
#include "tensor/buffer_pool.h"
#include "util/rng.h"

namespace embsr {

/// A dense, row-major, contiguous float32 tensor.
///
/// This is the storage substrate under the autograd engine: a Tensor itself
/// has no gradient and no graph — it is just shaped numeric data plus
/// kernels. All neural models in the repo ultimately bottom out in these
/// kernels, so relative benchmark comparisons between models are fair.
///
/// Shapes use int64 extents; rank 0 (scalar), 1 (vector), 2 (matrix) and 3
/// are used in practice. Copy is deep (value semantics), moves are cheap.
class Tensor {
 public:
  /// An empty (rank-0, size-1) scalar tensor holding 0.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Tensor of the given shape with every element set to `fill`.
  Tensor(std::vector<int64_t> shape, float fill);

  /// Tensor with explicit contents; `data.size()` must equal the shape size.
  Tensor(std::vector<int64_t> shape, std::vector<float> data);

  // -- Factories -------------------------------------------------------------

  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  static Tensor Scalar(float value);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(std::vector<int64_t> shape, float stddev, Rng* rng);
  /// I.i.d. Uniform(lo, hi) entries.
  static Tensor RandUniform(std::vector<int64_t> shape, float lo, float hi,
                            Rng* rng);

  // -- Special members --------------------------------------------------------
  // Spelled out (rule of five) so the memory profiler sees every buffer
  // acquisition and release; when profiling is off each alloc hook is one
  // relaxed atomic load + branch and each free is a plain branch on the
  // counted flag (DESIGN.md §13). The flag travels with the buffer: moves
  // transfer it (and explicitly empty the source) so the byte accounting
  // matches ownership exactly, and a tensor allocated before prof::Start()
  // is never subtracted from a session it was never added to. Copies fill
  // their storage through tensor_pool so HeapAcquires() counts the ones
  // that had to grow it.

  ~Tensor() { prof::OnTensorFree(size(), prof_counted_); }

  Tensor(const Tensor& other) : shape_(other.shape_) {
    tensor_pool::AcquireCopy(&data_, other.data(), other.size());
    prof_counted_ = prof::OnTensorAlloc(size());
  }

  Tensor& operator=(const Tensor& other) {
    if (this != &other) {
      prof::OnTensorFree(size(), prof_counted_);
      shape_ = other.shape_;
      tensor_pool::AcquireCopy(&data_, other.data(), other.size());
      prof_counted_ = prof::OnTensorAlloc(size());
    }
    return *this;
  }

  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        data_(std::move(other.data_)),
        prof_counted_(other.prof_counted_) {
    other.shape_.clear();
    other.data_.clear();
    other.prof_counted_ = false;
  }

  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      prof::OnTensorFree(size(), prof_counted_);
      shape_ = std::move(other.shape_);
      data_ = std::move(other.data_);
      prof_counted_ = other.prof_counted_;
      other.shape_.clear();
      other.data_.clear();
      other.prof_counted_ = false;
    }
    return *this;
  }

  // -- Introspection ----------------------------------------------------------

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  int64_t dim(int64_t axis) const;
  /// Number of rows / columns; requires rank <= 2 (rank-1 is a single row).
  int64_t rows() const;
  int64_t cols() const;

  const float* data() const { return data_.data(); }
  float* data() { return data_.data(); }
  const std::vector<float>& vec() const { return data_; }

  float at(int64_t i) const;
  float& at(int64_t i);
  float at2(int64_t i, int64_t j) const;
  float& at2(int64_t i, int64_t j);

  /// True if shapes are equal and every element differs by <= tol.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  std::string ShapeString() const;
  std::string ToString(int64_t max_elems = 64) const;

  // -- Shape ops ---------------------------------------------------------------

  /// Returns a copy with a new shape of the same total size.
  Tensor Reshape(std::vector<int64_t> new_shape) const;
  /// Matrix transpose; requires rank 2.
  Tensor Transposed() const;
  /// Copy of rows [begin, end) of a rank-2 tensor (or elements for rank-1).
  Tensor SliceRows(int64_t begin, int64_t end) const;
  /// Copy of a single row as a [1, cols] tensor.
  Tensor Row(int64_t r) const;

  // -- In-place arithmetic (gradient accumulation and clipping) -----------------

  Tensor& AddInPlace(const Tensor& other);
  Tensor& ScaleInPlace(float s);
  Tensor& Fill(float value);

  /// Frobenius (flattened L2) norm.
  float L2Norm() const;

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;
  // Whether the memory profiler counted this buffer at allocation; handed
  // back to prof::OnTensorFree so only counted buffers are subtracted.
  bool prof_counted_ = false;
};

// -- Out-of-place kernels -------------------------------------------------------

/// Elementwise; shapes must match exactly.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// Adds a [1, d] (or rank-1 length-d) bias row to every row of a [n, d].
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);

/// Multiplies every row of a [n, d] elementwise by a [1, d] (or rank-1
/// length-d) row.
Tensor MulRowBroadcast(const Tensor& a, const Tensor& row);

Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);

/// [n, k] x [k, m] -> [n, m].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// [n, k] x [m, k]^T -> [n, m]: every row of `a` against every row of `b`.
/// Bitwise equal to MatMul(a, b.Transposed()) without building the
/// transpose: each element sums over k ascending with MatMul's zero-skip
/// on `a`.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

/// aᵀ·b ([n, k] x [n, m] -> [k, m]) written into `*out`: stored when
/// `store`, else added element by element. With `transpose_out`, *out is
/// [m, k] and receives (aᵀ·b)ᵀ. Each element is summed as
/// MatMul(a.Transposed(), b) sums it, i ascending from +0.0f with the
/// zero-skip on `a`, and only then stored or added. So *out ends bitwise
/// equal to MatMul(a.Transposed(), b) (transposed when `transpose_out`),
/// or to *out's AddInPlace of it, with neither the transpose of a nor the
/// product built. Row-parallel over the rows of *out.
void MatMulTransposedAInto(const Tensor& a, const Tensor& b, bool store,
                           bool transpose_out, Tensor* out);

/// Sum of all elements as a scalar tensor.
Tensor SumAll(const Tensor& a);
/// Column sums: [n, d] -> [1, d].
Tensor SumRowsTo1xD(const Tensor& a);
/// Row sums: [n, d] -> [n, 1].
Tensor SumColsToNx1(const Tensor& a);

/// Row-wise softmax of a rank-2 tensor (numerically stabilized).
Tensor RowSoftmax(const Tensor& a);

/// Row-wise softmax with additive mask: entries where mask==0 get -inf
/// before the softmax. `mask` is [n, m] of 0/1.
Tensor RowSoftmaxMasked(const Tensor& a, const Tensor& mask);

/// Gathers rows of `table` ([v, d]) at `indices` -> [indices.size(), d].
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);

/// grad_table[indices[i]] += grad_rows[i] for each i; shapes [n,d] into [v,d].
void ScatterAddRows(const Tensor& grad_rows,
                    const std::vector<int64_t>& indices, Tensor* grad_table);

/// Row-wise bitwise select: out row i is a's row i where mask[i] != 0, else
/// b's row i. `mask` is [n, 1] (or rank-1 length-n); a and b are [n, d].
/// Rows are copied, not blended, so the selected row is bit-identical to its
/// source — the property the batched GRU's masked step updates rely on.
Tensor SelectRowsByMask(const Tensor& a, const Tensor& b, const Tensor& mask);

/// Segment sum over rows: out[segments[i]] += a[i] for each row i of a in
/// ascending order, into a zeroed [num_segments, d] output. Each segment id
/// must lie in [0, num_segments); empty segments stay zero. With rows of one
/// segment contiguous and ascending, each output row accumulates in the same
/// order as SumRowsTo1xD over that segment's slice.
Tensor SegmentSumRows(const Tensor& a, const std::vector<int64_t>& segments,
                      int64_t num_segments);

/// Concatenates rank-2 tensors along columns ([n, d1] + [n, d2] -> [n, d1+d2]).
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Concatenates rank-2 tensors along rows ([n1, d] + [n2, d] -> [n1+n2, d]).
Tensor ConcatRows(const Tensor& a, const Tensor& b);

/// L2-normalizes each row to unit norm (rows of zero norm are left zero).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-12f);

}  // namespace embsr

#endif  // EMBSR_TENSOR_TENSOR_H_
