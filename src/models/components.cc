#include "models/components.h"

#include <cmath>

#include "prof/op_profiler.h"
#include "util/check.h"

namespace embsr {

using ag::Variable;

GgnnLayer::GgnnLayer(int64_t dim, Rng* rng)
    : in_proj_(dim, dim, rng), out_proj_(dim, dim, rng) {
  RegisterModule("in_proj", &in_proj_);
  RegisterModule("out_proj", &out_proj_);
  const float b = nn::InitBound(dim);
  auto mk = [&](const char* name, int64_t r, int64_t c) {
    return RegisterParameter(name, Tensor::RandUniform({r, c}, -b, b, rng));
  };
  w_z_ = mk("w_z", 2 * dim, dim);
  u_z_ = mk("u_z", dim, dim);
  w_r_ = mk("w_r", 2 * dim, dim);
  u_r_ = mk("u_r", dim, dim);
  w_h_ = mk("w_h", 2 * dim, dim);
  u_h_ = mk("u_h", dim, dim);
}

Variable GatedUpdate(const Variable& a, const Variable& h,
                     const Variable& w_z, const Variable& u_z,
                     const Variable& w_r, const Variable& u_r,
                     const Variable& w_h, const Variable& u_h) {
  using namespace ag;  // NOLINT
  Variable z = Sigmoid(Add(MatMul(a, w_z), MatMul(h, u_z)));
  Variable r = Sigmoid(Add(MatMul(a, w_r), MatMul(h, u_r)));
  Variable cand = Tanh(Add(MatMul(a, w_h), MatMul(Mul(r, h), u_h)));
  Variable one_minus_z = AddScalar(Neg(z), 1.0f);
  return Add(Mul(one_minus_z, h), Mul(z, cand));
}

namespace {

float InvSqrtDim(const Variable& x) {
  return 1.0f / std::sqrt(static_cast<float>(x.value().dim(1)));
}

}  // namespace

Variable StarGate(const Variable& h_hat, const Variable& star,
                  const Variable& wq1, const Variable& wk1) {
  using namespace ag;  // NOLINT
  Variable alpha = Sigmoid(Scale(
      MatMul(MatMul(h_hat, wq1), Transpose(MatMul(star, wk1))),
      InvSqrtDim(h_hat)));  // [n, 1]
  Variable one_minus_alpha = AddScalar(Neg(alpha), 1.0f);
  return Add(MulColBroadcast(h_hat, one_minus_alpha),
             MulColBroadcast(RepeatRow(star, h_hat.value().dim(0)), alpha));
}

Variable StarAttention(const Variable& h, const Variable& star,
                       const Variable& wq2, const Variable& wk2) {
  using namespace ag;  // NOLINT
  Variable beta = RowSoftmaxMasked(
      Scale(Transpose(MatMul(MatMul(h, wk2), Transpose(MatMul(star, wq2)))),
            InvSqrtDim(h)),
      Tensor::Ones({1, h.value().dim(0)}));  // [1, n]
  return MatMul(beta, h);
}

Variable HighwayMix(const Variable& h0, const Variable& h, const Variable& w) {
  using namespace ag;  // NOLINT
  Variable g = Sigmoid(MatMul(ConcatCols(h0, h), w));
  Variable one_minus_g = AddScalar(Neg(g), 1.0f);
  return Add(Mul(g, h0), Mul(one_minus_g, h));
}

Variable GgnnLayer::Forward(const Variable& h, const Tensor& a_in,
                            const Tensor& a_out) const {
  using namespace ag;  // NOLINT
  prof::ComponentScope prof_component("ggnn");
  Variable m_in = MatMul(Constant(a_in), in_proj_.Forward(h));
  Variable m_out = MatMul(Constant(a_out), out_proj_.Forward(h));
  return GatedUpdate(ConcatCols(m_in, m_out), h, w_z_, u_z_, w_r_, u_r_,
                     w_h_, u_h_);
}

SoftAttentionReadout::SoftAttentionReadout(int64_t dim, Rng* rng)
    : w1_(dim, dim, rng, /*bias=*/false),
      w2_(dim, dim, rng, /*bias=*/true),
      w3_(2 * dim, dim, rng, /*bias=*/false) {
  RegisterModule("w1", &w1_);
  RegisterModule("w2", &w2_);
  RegisterModule("w3", &w3_);
  const float b = nn::InitBound(dim);
  q_ = RegisterParameter("q", Tensor::RandUniform({dim, 1}, -b, b, rng));
}

Variable SoftAttentionReadout::Forward(const Variable& seq) const {
  using namespace ag;  // NOLINT
  prof::ComponentScope prof_component("attention_readout");
  const int64_t t = seq.value().dim(0);
  Variable h_last = Row(seq, t - 1);
  Variable query = RepeatRow(w1_.Forward(h_last), t);
  Variable keys = w2_.Forward(seq);
  Variable alpha = MatMul(Sigmoid(Add(query, keys)), q_);  // [t, 1]
  Variable s_g = MatMul(Transpose(alpha), seq);            // [1, d]
  return w3_.Forward(ConcatCols(h_last, s_g));
}

SelfAttentionBlock::SelfAttentionBlock(int64_t dim, Rng* rng, float dropout)
    : wq_(dim, dim, rng, /*bias=*/false),
      wk_(dim, dim, rng, /*bias=*/false),
      wv_(dim, dim, rng, /*bias=*/false),
      ffn_(dim, dim, rng),
      ln1_(dim),
      ln2_(dim),
      dropout_(dropout) {
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("ln1", &ln1_);
  RegisterModule("ln2", &ln2_);
}

Variable SelfAttentionBlock::Forward(const Variable& x, const Tensor& mask,
                                     bool training, Rng* dropout_rng) const {
  using namespace ag;  // NOLINT
  prof::ComponentScope prof_component("self_attention");
  const int64_t d = x.value().dim(1);
  Variable q = wq_.Forward(x);
  Variable k = wk_.Forward(x);
  Variable v = wv_.Forward(x);
  Variable scores =
      Scale(MatMul(q, Transpose(k)), 1.0f / std::sqrt(static_cast<float>(d)));
  Variable alpha = RowSoftmaxMasked(scores, mask);
  Variable attn = MatMul(alpha, v);
  attn = Dropout(attn, dropout_, training, dropout_rng);
  Variable h = ln1_.Forward(Add(x, attn));
  Variable f = Dropout(ffn_.Forward(h), dropout_, training, dropout_rng);
  return ln2_.Forward(Add(h, f));
}

int64_t ClampPosition(int64_t pos, int64_t max_positions) {
  EMBSR_CHECK_GT(max_positions, 0);
  return pos < max_positions ? pos : max_positions - 1;
}

}  // namespace embsr
