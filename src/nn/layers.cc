#include "nn/layers.h"

#include <cmath>

#include "prof/op_profiler.h"
#include "util/check.h"

namespace embsr {
namespace nn {

float InitBound(int64_t hidden_dim) {
  EMBSR_CHECK_GT(hidden_dim, 0);
  return 1.0f / std::sqrt(static_cast<float>(hidden_dim));
}

// -- Linear -------------------------------------------------------------------

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng* rng, bool bias)
    : has_bias_(bias) {
  const float b = InitBound(out_dim);
  weight_ = RegisterParameter(
      "weight", Tensor::RandUniform({in_dim, out_dim}, -b, b, rng));
  if (has_bias_) {
    bias_ = RegisterParameter("bias",
                              Tensor::RandUniform({1, out_dim}, -b, b, rng));
  }
}

ag::Variable Linear::Forward(const ag::Variable& x) const {
  // Layer-boundary contracts: ops check their own outputs (MakeOp), layers
  // check what callers feed them, so a bad input is reported at the layer
  // the caller actually wrote.
  EMBSR_CHECK_FINITE(x.value());
  ag::Variable y = ag::MatMul(x, weight_);
  if (has_bias_) y = ag::AddRowBroadcast(y, bias_);
  return y;
}

// -- Embedding ----------------------------------------------------------------

Embedding::Embedding(int64_t count, int64_t dim, Rng* rng)
    : count_(count), dim_(dim) {
  const float b = InitBound(dim);
  table_ = RegisterParameter("table",
                             Tensor::RandUniform({count, dim}, -b, b, rng));
}

ag::Variable Embedding::Forward(const std::vector<int64_t>& indices) const {
#if EMBSR_CONTRACTS_ENABLED
  for (const int64_t idx : indices) EMBSR_CHECK_BOUNDS(idx, 0, count_);
#endif
  prof::ComponentScope prof_component("embedding");
  return ag::GatherRows(table_, indices);
}

ag::Variable Embedding::Scores(const ag::Variable& rep) const {
  return Decode(rep, count_, /*normalized=*/false);
}

ag::Variable Embedding::Scores(const ag::Variable& rep, int64_t rows) const {
  return Decode(rep, rows, /*normalized=*/false);
}

ag::Variable Embedding::CosineScores(const ag::Variable& rep) const {
  return Decode(rep, count_, /*normalized=*/true);
}

ag::Variable Embedding::Decode(const ag::Variable& rep, int64_t rows,
                               bool normalized) const {
  EMBSR_CHECK_GT(rows, 0);
  EMBSR_CHECK_LE(rows, count_);
  if (ag::NoGradScope::Active()) {
    return ag::MatMul(rep, DecodeTable(rows, normalized));
  }
  ag::Variable table =
      rows == count_ ? table_ : ag::SliceRows(table_, 0, rows);
  if (normalized) table = ag::L2NormalizeRowsOp(table);
  return ag::ScoreItems(rep, table);
}

ag::Variable Embedding::DecodeTable(int64_t rows, bool normalized) const {
  std::lock_guard<std::mutex> lock(decode_mu_);
  const uint64_t version = table_.version();
  if (!decode_table_.defined() || decode_version_ != version ||
      decode_rows_ != rows || decode_normalized_ != normalized) {
    Tensor t = rows == count_ ? table_.value()
                              : table_.value().SliceRows(0, rows);
    if (normalized) t = L2NormalizeRows(t);
    // A handle swap: a decode still holding the old T keeps it alive.
    decode_table_ = ag::Constant(t.Transposed());
    decode_version_ = version;
    decode_rows_ = rows;
    decode_normalized_ = normalized;
  }
  return decode_table_;
}

// -- GRUCell ------------------------------------------------------------------

GRUCell::GRUCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : hidden_dim_(hidden_dim) {
  const float b = InitBound(hidden_dim);
  auto mk = [&](const char* name, int64_t r, int64_t c) {
    return RegisterParameter(name, Tensor::RandUniform({r, c}, -b, b, rng));
  };
  w_ir_ = mk("w_ir", input_dim, hidden_dim);
  w_iz_ = mk("w_iz", input_dim, hidden_dim);
  w_in_ = mk("w_in", input_dim, hidden_dim);
  w_hr_ = mk("w_hr", hidden_dim, hidden_dim);
  w_hz_ = mk("w_hz", hidden_dim, hidden_dim);
  w_hn_ = mk("w_hn", hidden_dim, hidden_dim);
  b_r_ = mk("b_r", 1, hidden_dim);
  b_z_ = mk("b_z", 1, hidden_dim);
  b_in_ = mk("b_in", 1, hidden_dim);
  b_hn_ = mk("b_hn", 1, hidden_dim);
}

ag::Variable GRUCell::Forward(const ag::Variable& x,
                              const ag::Variable& h) const {
  EMBSR_CHECK_FINITE(x.value());
  EMBSR_CHECK_FINITE(h.value());
  using namespace ag;  // NOLINT: local readability for the math
  Variable r = Sigmoid(AddRowBroadcast(
      Add(MatMul(x, w_ir_), MatMul(h, w_hr_)), b_r_));
  Variable z = Sigmoid(AddRowBroadcast(
      Add(MatMul(x, w_iz_), MatMul(h, w_hz_)), b_z_));
  Variable n = Tanh(Add(
      AddRowBroadcast(MatMul(x, w_in_), b_in_),
      Mul(r, AddRowBroadcast(MatMul(h, w_hn_), b_hn_))));
  // h' = (1 - z) * n + z * h
  Variable one_minus_z = AddScalar(Neg(z), 1.0f);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

// -- GRU ----------------------------------------------------------------------

GRU::GRU(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : cell_(input_dim, hidden_dim, rng) {
  RegisterModule("cell", &cell_);
}

ag::Variable GRU::Forward(const ag::Variable& xs) const {
  const int64_t t = xs.value().dim(0);
  EMBSR_CHECK_GT(t, 0);
  prof::ComponentScope prof_component("gru");
  ag::Variable h = ag::Constant(Tensor::Zeros({1, cell_.hidden_dim()}));
  std::vector<ag::Variable> states;
  states.reserve(t);
  for (int64_t i = 0; i < t; ++i) {
    h = cell_.Forward(ag::Row(xs, i), h);
    states.push_back(h);
  }
  return ag::StackRows(states);
}

ag::Variable GRU::ForwardLast(const ag::Variable& xs) const {
  ag::Variable all = Forward(xs);
  const int64_t t = all.value().dim(0);
  return ag::Row(all, t - 1);
}

ag::Variable GRU::ForwardBatchedLast(
    const ag::Variable& xs, int64_t batch,
    const std::vector<Tensor>& step_masks,
    const std::vector<uint8_t>& step_all_valid) const {
  EMBSR_CHECK_GT(batch, 0);
  const int64_t rows = xs.value().dim(0);
  EMBSR_CHECK_EQ(rows % batch, 0);
  const int64_t t = rows / batch;
  EMBSR_CHECK_GT(t, 0);
  EMBSR_CHECK_EQ(static_cast<int64_t>(step_masks.size()), t);
  EMBSR_CHECK_EQ(static_cast<int64_t>(step_all_valid.size()), t);
  prof::ComponentScope prof_component("gru");
  ag::Variable h = ag::Constant(Tensor::Zeros({batch, cell_.hidden_dim()}));
  for (int64_t i = 0; i < t; ++i) {
    ag::Variable h_new =
        cell_.Forward(ag::SliceRows(xs, i * batch, (i + 1) * batch), h);
    // Padded steps keep h by bitwise row copy; the blend is skipped
    // entirely when every session is live at this step (always at batch 1).
    h = step_all_valid[i] != 0
            ? h_new
            : ag::SelectRowsByMask(h_new, h, step_masks[i]);
  }
  return h;
}

// -- LayerNorm ----------------------------------------------------------------

LayerNorm::LayerNorm(int64_t dim) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({1, dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({1, dim}));
}

ag::Variable LayerNorm::Forward(const ag::Variable& x) const {
  EMBSR_CHECK_FINITE(x.value());
  return ag::AddRowBroadcast(
      ag::MulRowBroadcast(ag::LayerNormRows(x), gamma_), beta_);
}

// -- FeedForward ----------------------------------------------------------------

FeedForward::FeedForward(int64_t dim, int64_t hidden_dim, Rng* rng)
    : fc1_(dim, hidden_dim, rng), fc2_(hidden_dim, dim, rng) {
  RegisterModule("fc1", &fc1_);
  RegisterModule("fc2", &fc2_);
}

ag::Variable FeedForward::Forward(const ag::Variable& x) const {
  EMBSR_CHECK_FINITE(x.value());
  return fc2_.Forward(ag::Relu(fc1_.Forward(x)));
}

}  // namespace nn
}  // namespace embsr
