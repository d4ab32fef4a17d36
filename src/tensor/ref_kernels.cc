#include "tensor/ref_kernels.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace embsr {
namespace tensor {
namespace ref {

namespace {

template <typename F>
Tensor BinaryOp(const Tensor& a, const Tensor& b, F f) {
  EMBSR_CHECK(a.shape() == b.shape());
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

template <typename F>
Tensor UnaryOp(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x + y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x * y; });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(row.size(), a.dim(1));
  Tensor out = a;
  const int64_t n = a.dim(0), d = a.dim(1);
  const float* pr = row.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) po[i * d + j] += pr[j];
  }
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
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) po[i * d + j] = pa[i * d + j] * pr[j];
  }
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? x : 0.0f; });
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
  // ikj loop order for cache-friendly access to b and out.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * m;
      float* orow = po + i * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
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
  // One dot product per output element, k ascending, skipping zeros of a:
  // MatMul's per-element order, written without any packing.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = pa[i * k + kk];
        if (av == 0.0f) continue;
        acc += av * pb[j * k + kk];
      }
      po[i * m + j] = acc;
    }
  }
  return out;
}

void MatMulTransposedAInto(const Tensor& a, const Tensor& b, bool store,
                           bool transpose_out, Tensor* out) {
  EMBSR_CHECK(out != nullptr);
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(b.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  EMBSR_CHECK(out->shape() == (transpose_out ? std::vector<int64_t>{m, k}
                                             : std::vector<int64_t>{k, m}));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  // One sum per element of aᵀ·b in MatMul(a.Transposed(), b)'s order: i
  // ascending from +0.0f, skipping zeros of a. Then stored or added.
  for (int64_t r = 0; r < k; ++r) {
    for (int64_t c = 0; c < m; ++c) {
      float acc = 0.0f;
      for (int64_t i = 0; i < n; ++i) {
        const float av = pa[i * k + r];
        if (av == 0.0f) continue;
        acc += av * pb[i * m + c];
      }
      float& o = transpose_out ? po[c * k + r] : po[r * m + c];
      o = store ? acc : o + acc;
    }
  }
}

Tensor SumAll(const Tensor& a) {
  double acc = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) acc += a.data()[i];
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor SumRowsTo1xD(const Tensor& a) {
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
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) acc += a.data()[i * d + j];
    out.data()[i] = static_cast<float>(acc);
  }
  return out;
}

Tensor RowSoftmax(const Tensor& a) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), m = a.dim(1);
  Tensor out(a.shape());
  for (int64_t i = 0; i < n; ++i) {
    const float* row = a.data() + i * m;
    float* orow = out.data() + i * m;
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
  return out;
}

Tensor RowSoftmaxMasked(const Tensor& a, const Tensor& mask) {
  EMBSR_CHECK(a.shape() == mask.shape());
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), m = a.dim(1);
  Tensor masked = a;
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  for (int64_t i = 0; i < n * m; ++i) {
    if (mask.data()[i] == 0.0f) masked.data()[i] = kNegInf;
  }
  Tensor out(a.shape());
  for (int64_t i = 0; i < n; ++i) {
    const float* row = masked.data() + i * m;
    float* orow = out.data() + i * m;
    float mx = kNegInf;
    for (int64_t j = 0; j < m; ++j) mx = std::max(mx, row[j]);
    if (mx == kNegInf) {
      for (int64_t j = 0; j < m; ++j) orow[j] = 0.0f;
      continue;
    }
    double z = 0.0;
    for (int64_t j = 0; j < m; ++j) {
      orow[j] = row[j] == kNegInf ? 0.0f : std::exp(row[j] - mx);
      z += orow[j];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (int64_t j = 0; j < m; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices) {
  EMBSR_CHECK_EQ(table.ndim(), 2);
  const int64_t d = table.dim(1);
  Tensor out({static_cast<int64_t>(indices.size()), d});
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    EMBSR_CHECK_GE(r, 0);
    EMBSR_CHECK_LT(r, table.dim(0));
    std::memcpy(out.data() + static_cast<int64_t>(i) * d,
                table.data() + r * d, sizeof(float) * d);
  }
  return out;
}

void ScatterAddRows(const Tensor& grad_rows,
                    const std::vector<int64_t>& indices, Tensor* grad_table) {
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
  for (int64_t i = 0; i < n; ++i) {
    const float* src = mask.data()[i] != 0.0f ? a.data() : b.data();
    std::memcpy(out.data() + i * d, src + i * d, sizeof(float) * d);
  }
  return out;
}

Tensor SegmentSumRows(const Tensor& a, const std::vector<int64_t>& segments,
                      int64_t num_segments) {
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
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * (da + db), a.data() + i * da,
                sizeof(float) * da);
    std::memcpy(out.data() + i * (da + db) + da, b.data() + i * db,
                sizeof(float) * db);
  }
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  EMBSR_CHECK_EQ(b.ndim(), 2);
  EMBSR_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t d = a.dim(1);
  Tensor out({a.dim(0) + b.dim(0), d});
  std::memcpy(out.data(), a.data(), sizeof(float) * a.size());
  std::memcpy(out.data() + a.size(), b.data(), sizeof(float) * b.size());
  return out;
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  EMBSR_CHECK_EQ(a.ndim(), 2);
  const int64_t n = a.dim(0), d = a.dim(1);
  Tensor out(a.shape());
  for (int64_t i = 0; i < n; ++i) {
    const float* row = a.data() + i * d;
    float* orow = out.data() + i * d;
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) acc += static_cast<double>(row[j]) * row[j];
    const double norm = std::sqrt(acc);
    if (norm < eps) continue;  // leave the zero row zero
    const float inv = static_cast<float>(1.0 / norm);
    for (int64_t j = 0; j < d; ++j) orow[j] = row[j] * inv;
  }
  return out;
}

}  // namespace ref
}  // namespace tensor
}  // namespace embsr
