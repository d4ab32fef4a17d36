#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "par/access_check.h"
#include "par/thread_pool.h"
#include "tensor/buffer_pool.h"
#include "util/check.h"

namespace embsr {

namespace {

int64_t ShapeSize(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    EMBSR_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor() : shape_{} {
  tensor_pool::Acquire(&data_, 1, 0.0f);
  prof_counted_ = prof::OnTensorAlloc(size());
}

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  tensor_pool::Acquire(&data_, ShapeSize(shape_), 0.0f);
  prof_counted_ = prof::OnTensorAlloc(size());
}

Tensor::Tensor(std::vector<int64_t> shape, float fill)
    : shape_(std::move(shape)) {
  tensor_pool::Acquire(&data_, ShapeSize(shape_), fill);
  prof_counted_ = prof::OnTensorAlloc(size());
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  EMBSR_CHECK_EQ(ShapeSize(shape_), static_cast<int64_t>(data_.size()));
  prof_counted_ = prof::OnTensorAlloc(size());
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Ones(std::vector<int64_t> shape) {
  return Tensor(std::move(shape), 1.0f);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  return Tensor(std::move(shape), value);
}

Tensor Tensor::Scalar(float value) {
  Tensor t;
  t.data_[0] = value;
  return t;
}

Tensor Tensor::Randn(std::vector<int64_t> shape, float stddev, Rng* rng) {
  EMBSR_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = static_cast<float>(rng->Normal(0.0, stddev));
  return t;
}

Tensor Tensor::RandUniform(std::vector<int64_t> shape, float lo, float hi,
                           Rng* rng) {
  EMBSR_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = static_cast<float>(rng->Uniform(lo, hi));
  return t;
}

int64_t Tensor::dim(int64_t axis) const {
  EMBSR_CHECK_GE(axis, 0);
  EMBSR_CHECK_LT(axis, ndim());
  return shape_[axis];
}

int64_t Tensor::rows() const {
  EMBSR_CHECK_LE(ndim(), 2);
  if (ndim() < 2) return 1;
  return shape_[0];
}

int64_t Tensor::cols() const {
  EMBSR_CHECK_LE(ndim(), 2);
  if (ndim() == 0) return 1;
  return shape_.back();
}

float Tensor::at(int64_t i) const {
  EMBSR_CHECK_GE(i, 0);
  EMBSR_CHECK_LT(i, size());
  return data_[i];
}

float& Tensor::at(int64_t i) {
  EMBSR_CHECK_GE(i, 0);
  EMBSR_CHECK_LT(i, size());
  return data_[i];
}

float Tensor::at2(int64_t i, int64_t j) const {
  EMBSR_CHECK_EQ(ndim(), 2);
  EMBSR_CHECK_GE(i, 0);
  EMBSR_CHECK_LT(i, shape_[0]);
  EMBSR_CHECK_GE(j, 0);
  EMBSR_CHECK_LT(j, shape_[1]);
  return data_[i * shape_[1] + j];
}

float& Tensor::at2(int64_t i, int64_t j) {
  EMBSR_CHECK_EQ(ndim(), 2);
  EMBSR_CHECK_GE(i, 0);
  EMBSR_CHECK_LT(i, shape_[0]);
  EMBSR_CHECK_GE(j, 0);
  EMBSR_CHECK_LT(j, shape_[1]);
  return data_[i * shape_[1] + j];
}

bool Tensor::AllClose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << "]";
  return out.str();
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream out;
  out << "Tensor" << ShapeString() << " {";
  int64_t n = std::min<int64_t>(size(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out << ", ";
    out << data_[i];
  }
  if (n < size()) out << ", ...";
  out << "}";
  return out.str();
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  EMBSR_CHECK_EQ(ShapeSize(new_shape), size());
  // Built via the shape constructor — not by assigning the private members
  // of a default Tensor — so the memory profiler counts the buffer at its
  // real size (the flag set by Tensor() would otherwise cover a 1-element
  // buffer that the destructor frees at full size).
  Tensor t(std::move(new_shape));
  std::memcpy(t.data_.data(), data_.data(), sizeof(float) * size());
  return t;
}

Tensor Tensor::Transposed() const {
  EMBSR_CHECK_EQ(ndim(), 2);
  const int64_t n = shape_[0], m = shape_[1];
  Tensor t({m, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      t.data_[j * n + i] = data_[i * m + j];
    }
  }
  return t;
}

Tensor Tensor::SliceRows(int64_t begin, int64_t end) const {
  EMBSR_CHECK_GE(begin, 0);
  EMBSR_CHECK_LE(begin, end);
  if (ndim() == 1) {
    EMBSR_CHECK_LE(end, shape_[0]);
    Tensor t({end - begin});
    std::memcpy(t.data_.data(), data_.data() + begin,
                sizeof(float) * (end - begin));
    return t;
  }
  EMBSR_CHECK_EQ(ndim(), 2);
  EMBSR_CHECK_LE(end, shape_[0]);
  const int64_t d = shape_[1];
  Tensor t({end - begin, d});
  std::memcpy(t.data_.data(), data_.data() + begin * d,
              sizeof(float) * (end - begin) * d);
  return t;
}

Tensor Tensor::Row(int64_t r) const { return SliceRows(r, r + 1); }

Tensor& Tensor::AddInPlace(const Tensor& other) {
  EMBSR_CHECK(shape_ == other.shape_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::ScaleInPlace(float s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::Fill(float value) {
  for (auto& x : data_) x = value;
  return *this;
}

float Tensor::L2Norm() const {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

// -- Free kernels ------------------------------------------------------------
//
// Parallelization contract (DESIGN.md §11): every kernel below partitions its
// OUTPUT index space across threads and never splits or reorders the
// reduction that produces a single output element. Each element is therefore
// computed by exactly one thread, in exactly the order the old serial kernel
// used — results are bit-identical to the frozen tensor::ref:: oracles at
// every thread count, including EMBSR_THREADS=1 (which runs this very code
// inline with no pool involvement at all).
//
// The contract is no longer enforced by convention alone: every parallel
// kernel dispatches through par::ForChecked with a per-chunk read/write
// declaration, and the serial-by-contract reductions are wrapped in
// EMBSR_SENTINEL_SERIAL_REDUCTION. In -DEMBSR_CHECK_CONTRACTS=ON builds the
// access sentinel (par/access_check.h, DESIGN.md §12) verifies the declared
// partition before the loop runs; release builds compile the declarations
// away.

namespace {

// Minimum elements of work per chunk. Ranges at or below one grain run
// inline (par::For never touches the pool for a single chunk), so small
// tensors pay zero synchronization overhead.
constexpr int64_t kElemGrain = 1 << 13;  // elementwise kernels
constexpr int64_t kRowGrainElems = 1 << 12;  // row kernels: grain rows = this / row width
constexpr int64_t kMatMulGrainFlops = 1 << 14;  // matmul: grain rows = this / (k * m)

int64_t RowGrain(int64_t row_width) {
  return std::max<int64_t>(1, kRowGrainElems / std::max<int64_t>(1, row_width));
}

template <typename F>
Tensor BinaryOp(const char* name, const Tensor& a, const Tensor& b, F f) {
  EMBSR_CHECK(a.shape() == b.shape());
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  par::ForChecked(
      name, 0, a.size(), kElemGrain,
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo, hi);
        acc->Read(pa, lo, hi);
        acc->Read(pb, lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
      });
  return out;
}

template <typename F>
Tensor UnaryOp(const char* name, const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  par::ForChecked(
      name, 0, a.size(), kElemGrain,
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo, hi);
        acc->Read(pa, lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
      });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp("Add", a, b, [](float x, float y) { return x + y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp("Mul", a, b, [](float x, float y) { return x * y; });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(row.size(), a.dim(1));
  Tensor out = a;
  const int64_t n = a.dim(0), d = a.dim(1);
  const float* pr = row.data();
  float* po = out.data();
  par::ForChecked(
      "AddRowBroadcast", 0, n, RowGrain(d),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * d, hi * d);
        acc->Read(po, lo * d, hi * d);  // in-place += over the copied rows
        acc->Read(pr, 0, d);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          for (int64_t j = 0; j < d; ++j) po[i * d + j] += pr[j];
        }
      });
  return out;
}

Tensor MulRowBroadcast(const Tensor& a, const Tensor& row) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(row.size(), a.dim(1));
  const int64_t n = a.dim(0), d = a.dim(1);
  Tensor out({n, d});
  const float* pa = a.data();
  const float* pr = row.data();
  float* po = out.data();
  par::ForChecked(
      "MulRowBroadcast", 0, n, RowGrain(d),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * d, hi * d);
        acc->Read(pa, lo * d, hi * d);
        acc->Read(pr, 0, d);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          for (int64_t j = 0; j < d; ++j) {
            po[i * d + j] = pa[i * d + j] * pr[j];
          }
        }
      });
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp("Scale", a, [s](float x) { return x * s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp("AddScalar", a, [s](float x) { return x + s; });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp("Tanh", a, [](float x) { return std::tanh(x); });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp("Sigmoid", a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp("Relu", a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(b.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  Tensor out({n, m});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Row-parallel, cache-blocked ikj. Each thread owns a contiguous block of
  // output rows; within a row, columns are tiled 64 wide so the active slices
  // of b and out stay cache-resident across the k sweep. Every out[i][j]
  // still accumulates av * b[kk][j] for kk ascending (with the same
  // zero-skip), so the float summation order — and hence the result — is
  // bit-identical to the serial ref:: kernel at every thread count.
  constexpr int64_t kTile = 64;
  const int64_t grain =
      std::max<int64_t>(1, kMatMulGrainFlops / std::max<int64_t>(1, k * m));
  par::ForChecked(
      "MatMul", 0, n, grain,
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * m, hi * m);
        acc->Read(pa, lo * k, hi * k);
        acc->Read(pb, 0, k * m);  // every chunk sweeps all of b
      },
      [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* arow = pa + i * k;
      float* orow = po + i * m;
      for (int64_t jb = 0; jb < m; jb += kTile) {
        const int64_t je = std::min<int64_t>(jb + kTile, m);
        for (int64_t kk = 0; kk < k; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = pb + kk * m;
          for (int64_t j = jb; j < je; ++j) orow[j] += av * brow[j];
        }
      }
    }
  });
  return out;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(b.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(0);
  Tensor out({n, m});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Row-parallel like MatMul, with MatMul's 64-wide column tiles. A chunk
  // packs the 64 rows of b behind one tile into a [k, 64] panel (the slice
  // of b^T MatMul would read), then sweeps its rows of a over the panel
  // with MatMul's inner loop. Every out[i][j] accumulates av * b[j][kk] for
  // kk ascending, skipping av == 0, so the result is bit-identical to
  // MatMul(a, b.Transposed()) and to the serial ref:: kernel at every
  // thread count. The panel is per thread and stays cache-resident.
  constexpr int64_t kTile = 64;
  const int64_t grain =
      std::max<int64_t>(1, kMatMulGrainFlops / std::max<int64_t>(1, k * m));
  par::ForChecked(
      "MatMulTransposedB", 0, n, grain,
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * m, hi * m);
        acc->Read(pa, lo * k, hi * k);
        acc->Read(pb, 0, m * k);  // every chunk packs all of b
      },
      [&](int64_t lo, int64_t hi) {
    thread_local std::vector<float> panel_buf;
    if (panel_buf.size() < static_cast<size_t>(k * kTile)) {
      panel_buf.resize(static_cast<size_t>(k * kTile));
    }
    float* panel = panel_buf.data();
    for (int64_t jb = 0; jb < m; jb += kTile) {
      const int64_t w = std::min<int64_t>(kTile, m - jb);
      for (int64_t j = 0; j < w; ++j) {
        const float* brow = pb + (jb + j) * k;
        for (int64_t kk = 0; kk < k; ++kk) panel[kk * w + j] = brow[kk];
      }
      for (int64_t i = lo; i < hi; ++i) {
        const float* arow = pa + i * k;
        float* orow = po + i * m + jb;
        for (int64_t kk = 0; kk < k; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* prow = panel + kk * w;
          for (int64_t j = 0; j < w; ++j) orow[j] += av * prow[j];
        }
      }
    }
  });
  return out;
}

namespace {

// Rows [lo, hi) of MatMulTransposedAInto's output, whose rows are `cols`
// wide. Every element sums its terms a[i][·] * b[i][·] for i ascending from
// +0.0f, skipping a's zeros, as MatMul(aᵀ, b) sums its zero-initialized
// output; only the finished sum is stored or added. A stored sum
// accumulates in place; an added one in `sum`, or, with one term per
// element (n == 1), as 0.0f + term in the same pass. In the transposed
// layout the skip is per element. Against a finite b[i][r] it needs no
// branch: a's zeros then give ±0.0f terms, and adding those leaves a sum
// begun at +0.0f (never -0.0f) bitwise alone. A function of its own, not
// the chunk lambda, so the loops see plain locals and vectorize.
void MatMulTransposedARows(const float* pa, const float* pb, float* po,
                           int64_t n, int64_t k, int64_t m, bool store,
                           bool transpose_out, int64_t lo, int64_t hi) {
  constexpr int64_t kTile = 64;
  const int64_t cols = transpose_out ? k : m;
  float sum[kTile];
  for (int64_t r = lo; r < hi; ++r) {
    float* orow = po + r * cols;
    if (!store && n == 1 && !transpose_out) {
      const float av = pa[r];
      for (int64_t c = 0; c < cols; ++c) {
        orow[c] += 0.0f + (av == 0.0f ? 0.0f : av * pb[c]);
      }
      continue;
    }
    for (int64_t cb = 0; cb < cols; cb += kTile) {
      const int64_t w = std::min<int64_t>(kTile, cols - cb);
      float* acc = store ? orow + cb : sum;
      std::fill_n(acc, w, 0.0f);
      for (int64_t i = 0; i < n; ++i) {
        if (!transpose_out) {
          // Row r of aᵀ·b: a[i][r] scales row i of b.
          const float av = pa[i * k + r];
          if (av == 0.0f) continue;
          const float* brow = pb + i * m + cb;
          for (int64_t j = 0; j < w; ++j) acc[j] += av * brow[j];
        } else {
          // Row r of (aᵀ·b)ᵀ: b[i][r] scales row i of a.
          const float bv = pb[i * m + r];
          const float* arow = pa + i * k + cb;
          if (std::isfinite(bv)) {
            for (int64_t j = 0; j < w; ++j) acc[j] += arow[j] * bv;
          } else {
            for (int64_t j = 0; j < w; ++j) {
              if (arow[j] != 0.0f) acc[j] += arow[j] * bv;
            }
          }
        }
      }
      if (!store) {
        for (int64_t j = 0; j < w; ++j) orow[cb + j] += sum[j];
      }
    }
  }
}

}  // namespace

void MatMulTransposedAInto(const Tensor& a, const Tensor& b, bool store,
                           bool transpose_out, Tensor* out) {
  EMBSR_CHECK(out != nullptr);
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(b.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  const int64_t rows = transpose_out ? m : k;
  const int64_t cols = transpose_out ? k : m;
  EMBSR_CHECK(out->shape() == std::vector<int64_t>({rows, cols}));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  // Row-parallel over *out; each element is summed by one thread in one
  // order, so *out gets the bits AccumulateGrad of the built product would
  // give it at every thread count.
  const int64_t grain =
      std::max<int64_t>(1, kMatMulGrainFlops / std::max<int64_t>(1, n * cols));
  par::ForChecked(
      "MatMulTransposedAInto", 0, rows, grain,
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * cols, hi * cols);
        if (!store) acc->Read(po, lo * cols, hi * cols);
        acc->Read(pa, 0, n * k);  // every row reads a column (or all) of a
        acc->Read(pb, 0, n * m);
      },
      [&](int64_t lo, int64_t hi) {
        MatMulTransposedARows(pa, pb, po, n, k, m, store, transpose_out, lo,
                              hi);
      });
}

// SumAll / SumRowsTo1xD reduce ACROSS the would-be partition axis,
// so any split would reorder the float summation; they stay serial by the
// kernel contract (DESIGN.md §11).
Tensor SumAll(const Tensor& a) {
  EMBSR_SENTINEL_SERIAL_REDUCTION("SumAll");
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += a.data()[i];
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor SumRowsTo1xD(const Tensor& a) {
  EMBSR_SENTINEL_SERIAL_REDUCTION("SumRowsTo1xD");
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), d = a.dim(1);
  Tensor out({1, d});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) out.data()[j] += a.data()[i * d + j];
  }
  return out;
}

Tensor SumColsToNx1(const Tensor& a) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), d = a.dim(1);
  Tensor out({n, 1});
  const float* pa = a.data();
  float* po = out.data();
  par::ForChecked(
      "SumColsToNx1", 0, n, RowGrain(d),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo, hi);
        acc->Read(pa, lo * d, hi * d);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          for (int64_t j = 0; j < d; ++j) acc += pa[i * d + j];
          po[i] = static_cast<float>(acc);
        }
      });
  return out;
}

Tensor RowSoftmax(const Tensor& a) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), m = a.dim(1);
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  par::ForChecked(
      "RowSoftmax", 0, n, RowGrain(m),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * m, hi * m);
        acc->Read(pa, lo * m, hi * m);
      },
      [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = pa + i * m;
      float* orow = po + i * m;
      float mx = row[0];
      for (int64_t j = 1; j < m; ++j) mx = std::max(mx, row[j]);
      double z = 0.0;
      for (int64_t j = 0; j < m; ++j) {
        orow[j] = std::exp(row[j] - mx);
        z += orow[j];
      }
      const float inv = static_cast<float>(1.0 / z);
      for (int64_t j = 0; j < m; ++j) orow[j] *= inv;
    }
  });
  return out;
}

Tensor RowSoftmaxMasked(const Tensor& a, const Tensor& mask) {
  EMBSR_CHECK(a.shape() == mask.shape());
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), m = a.dim(1);
  // Rows that are entirely masked produce uniform outputs over zero weight;
  // guard by checking the max.
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pm = mask.data();
  float* po = out.data();
  par::ForChecked(
      "RowSoftmaxMasked", 0, n, RowGrain(m),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * m, hi * m);
        acc->Read(pa, lo * m, hi * m);
        acc->Read(pm, lo * m, hi * m);
      },
      [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* arow = pa + i * m;
      const float* mrow = pm + i * m;
      float* orow = po + i * m;
      float mx = kNegInf;
      for (int64_t j = 0; j < m; ++j) {
        if (mrow[j] != 0.0f) mx = std::max(mx, arow[j]);
      }
      if (mx == kNegInf) {
        for (int64_t j = 0; j < m; ++j) orow[j] = 0.0f;
        continue;
      }
      double z = 0.0;
      for (int64_t j = 0; j < m; ++j) {
        orow[j] = mrow[j] == 0.0f ? 0.0f : std::exp(arow[j] - mx);
        z += orow[j];
      }
      const float inv = static_cast<float>(1.0 / z);
      for (int64_t j = 0; j < m; ++j) orow[j] *= inv;
    }
  });
  return out;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices) {
  EMBSR_CHECK_EQ(table.ndim(), 2);
  const int64_t d = table.dim(1);
  const int64_t n = static_cast<int64_t>(indices.size());
  Tensor out({n, d});
  const float* pt = table.data();
  float* po = out.data();
  par::ForChecked(
      "GatherRows", 0, n, RowGrain(d),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * d, hi * d);
        // Which table rows get read depends on the (data-dependent)
        // indices; declare the whole table — reads never conflict anyway.
        acc->Read(pt, 0, table.size());
        acc->Read(indices.data(), lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t r = indices[static_cast<size_t>(i)];
          EMBSR_CHECK_GE(r, 0);
          EMBSR_CHECK_LT(r, table.dim(0));
          std::memcpy(po + i * d, pt + r * d, sizeof(float) * d);
        }
      });
  return out;
}

// ScatterAddRows stays serial: duplicate indices make destination rows
// overlap across iterations, so a partition over i would race and a
// partition over table rows would still need the full index scan per chunk.
void ScatterAddRows(const Tensor& grad_rows,
                    const std::vector<int64_t>& indices, Tensor* grad_table) {
  EMBSR_SENTINEL_SERIAL_REDUCTION("ScatterAddRows");
  EMBSR_CHECK(grad_table != nullptr);
  EMBSR_CHECK_EQ(grad_rows.ndim(), 2);
  EMBSR_CHECK_EQ(grad_table->ndim(), 2);
  EMBSR_CHECK_EQ(grad_rows.dim(0), static_cast<int64_t>(indices.size()));
  EMBSR_CHECK_EQ(grad_rows.dim(1), grad_table->dim(1));
  const int64_t d = grad_rows.dim(1);
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    EMBSR_CHECK_GE(r, 0);
    EMBSR_CHECK_LT(r, grad_table->dim(0));
    float* dst = grad_table->data() + r * d;
    const float* src = grad_rows.data() + static_cast<int64_t>(i) * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
}

Tensor SelectRowsByMask(const Tensor& a, const Tensor& b, const Tensor& mask) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK(a.shape() == b.shape());
  const int64_t n = a.dim(0), d = a.dim(1);
  EMBSR_CHECK_EQ(mask.size(), n);
  Tensor out({n, d});
  const float* pa = a.data();
  const float* pb = b.data();
  const float* pm = mask.data();
  float* po = out.data();
  par::ForChecked(
      "SelectRowsByMask", 0, n, RowGrain(d),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * d, hi * d);
        acc->Read(pa, lo * d, hi * d);
        acc->Read(pb, lo * d, hi * d);
        acc->Read(pm, lo, hi);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float* src = pm[i] != 0.0f ? pa : pb;
          std::memcpy(po + i * d, src + i * d, sizeof(float) * d);
        }
      });
  return out;
}

// SegmentSumRows stays serial for the same reason as ScatterAddRows:
// repeated segment ids make output rows overlap across iterations. The
// ascending-i accumulation order is part of the kernel's contract — with a
// segment's rows contiguous, its output row adds up in exactly the order
// SumRowsTo1xD would over that slice.
Tensor SegmentSumRows(const Tensor& a, const std::vector<int64_t>& segments,
                      int64_t num_segments) {
  EMBSR_SENTINEL_SERIAL_REDUCTION("SegmentSumRows");
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(0), static_cast<int64_t>(segments.size()));
  EMBSR_CHECK_GT(num_segments, 0);
  const int64_t d = a.dim(1);
  Tensor out({num_segments, d});
  for (size_t i = 0; i < segments.size(); ++i) {
    const int64_t s = segments[i];
    EMBSR_CHECK_GE(s, 0);
    EMBSR_CHECK_LT(s, num_segments);
    float* dst = out.data() + s * d;
    const float* src = a.data() + static_cast<int64_t>(i) * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(b.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t n = a.dim(0), da = a.dim(1), db = b.dim(1);
  Tensor out({n, da + db});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  par::ForChecked(
      "ConcatCols", 0, n, RowGrain(da + db),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * (da + db), hi * (da + db));
        acc->Read(pa, lo * da, hi * da);
        acc->Read(pb, lo * db, hi * db);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          std::memcpy(po + i * (da + db), pa + i * da, sizeof(float) * da);
          std::memcpy(po + i * (da + db) + da, pb + i * db,
                      sizeof(float) * db);
        }
      });
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(b.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t d = a.dim(1);
  const int64_t na = a.dim(0), nb = b.dim(0);
  Tensor out({na + nb, d});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Row-parallel pure copy: output row i comes from a (i < na) or b.
  par::ForChecked(
      "ConcatRows", 0, na + nb, RowGrain(d),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * d, hi * d);
        const int64_t a_hi = hi < na ? hi : na;
        if (lo < a_hi) acc->Read(pa, lo * d, a_hi * d);
        const int64_t b_lo = lo > na ? lo : na;
        if (b_lo < hi) acc->Read(pb, (b_lo - na) * d, (hi - na) * d);
      },
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float* src = i < na ? pa + i * d : pb + (i - na) * d;
          std::memcpy(po + i * d, src, sizeof(float) * d);
        }
      });
  return out;
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), d = a.dim(1);
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  par::ForChecked(
      "L2NormalizeRows", 0, n, RowGrain(d),
      [&](int64_t lo, int64_t hi, par::AccessSet* acc) {
        acc->Write(po, lo * d, hi * d);
        acc->Read(pa, lo * d, hi * d);
      },
      [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* row = pa + i * d;
      float* orow = po + i * d;
      double acc = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        acc += static_cast<double>(row[j]) * row[j];
      }
      const double norm = std::sqrt(acc);
      if (norm < eps) continue;  // leave the zero row zero
      const float inv = static_cast<float>(1.0 / norm);
      for (int64_t j = 0; j < d; ++j) orow[j] = row[j] * inv;
    }
  });
  return out;
}

}  // namespace embsr
