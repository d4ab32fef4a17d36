#include "models/baselines_seq.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace embsr {

using ag::Variable;

// -- NARM ----------------------------------------------------------------------

Narm::Narm(int64_t num_items, int64_t num_operations, const TrainConfig& cfg)
    : PerSessionModel("NARM", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      gru_(cfg.embedding_dim, cfg.embedding_dim, rng()),
      a1_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      a2_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      decode_(2 * cfg.embedding_dim, cfg.embedding_dim, rng(),
              /*bias=*/false) {
  RegisterModule("items", &items_);
  RegisterModule("gru", &gru_);
  RegisterModule("a1", &a1_);
  RegisterModule("a2", &a2_);
  RegisterModule("decode", &decode_);
  const float b = nn::InitBound(cfg.embedding_dim);
  v_ = RegisterParameter("v",
                         Tensor::RandUniform({cfg.embedding_dim, 1}, -b, b,
                                             rng()));
}

Variable Narm::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("narm/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const auto seq = Tail(ex.macro_items, config().max_positions);
  Variable x = items_.Forward(seq);
  x = Dropout(x, config().dropout, training(), rng());
  Variable h = gru_.Forward(x);  // [t, d]
  const int64_t t = h.value().dim(0);
  Variable h_t = Row(h, t - 1);
  Variable att = MatMul(
      Sigmoid(Add(RepeatRow(a1_.Forward(h_t), t), a2_.Forward(h))), v_);
  Variable c_local = MatMul(Transpose(att), h);  // [1, d]
  Variable c = ConcatCols(h_t, c_local);
  c = Dropout(c, config().dropout, training(), rng());
  Variable rep = decode_.Forward(c);
  return items_.Scores(rep);
}

// -- STAMP ----------------------------------------------------------------------

Stamp::Stamp(int64_t num_items, int64_t num_operations,
             const TrainConfig& cfg)
    : NeuralSessionModel("STAMP", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      w1_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      w2_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      w3_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      mlp_s_(cfg.embedding_dim, cfg.embedding_dim, rng()),
      mlp_t_(cfg.embedding_dim, cfg.embedding_dim, rng()) {
  RegisterModule("items", &items_);
  RegisterModule("w1", &w1_);
  RegisterModule("w2", &w2_);
  RegisterModule("w3", &w3_);
  RegisterModule("mlp_s", &mlp_s_);
  RegisterModule("mlp_t", &mlp_t_);
  const float b = nn::InitBound(cfg.embedding_dim);
  w0_ = RegisterParameter(
      "w0", Tensor::RandUniform({cfg.embedding_dim, 1}, -b, b, rng()));
  ba_ = RegisterParameter(
      "ba", Tensor::Zeros({1, cfg.embedding_dim}));
}

Variable Stamp::BatchedLogits(const SessionBatch& batch) {
  EMBSR_TIMED_SPAN("stamp/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  Variable x = items_.Forward(batch.flat_items);  // [N, d], no padding
  x = Dropout(x, config().dropout, training(), rng());
  Variable x_t = GatherRows(x, batch.last_row_index);  // [B, d]
  // Per-session mean: segment sums over each session's contiguous rows,
  // scaled by the 1/len column.
  Variable m_s = MulColBroadcast(
      SegmentSumRows(x, batch.segment_ids, batch.batch),
      Constant(batch.inv_len_col));  // [B, d]
  // Each session's query rows broadcast to its own rows through
  // segment_ids.
  Variable pre = AddRowBroadcast(
      Add(w1_.Forward(x),
          Add(GatherRows(w2_.Forward(x_t), batch.segment_ids),
              GatherRows(w3_.Forward(m_s), batch.segment_ids))),
      ba_);
  Variable att = MatMul(Sigmoid(pre), w0_);  // [N, 1]
  // att^T x per session. Segment sums run in ascending row order, so a
  // session's row is the same at any batch size.
  Variable m_a = SegmentSumRows(MulColBroadcast(x, att), batch.segment_ids,
                                batch.batch);  // [B, d]
  Variable h_s = Tanh(mlp_s_.Forward(m_a));
  Variable h_t = Tanh(mlp_t_.Forward(x_t));
  Variable rep = Mul(h_s, h_t);
  return items_.Scores(rep);
}

// -- RIB ----------------------------------------------------------------------

Rib::Rib(int64_t num_items, int64_t num_operations, const TrainConfig& cfg)
    : PerSessionModel("RIB", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      ops_(num_operations, cfg.embedding_dim, rng()),
      gru_(cfg.embedding_dim, cfg.embedding_dim, rng()),
      att_proj_(cfg.embedding_dim, cfg.embedding_dim, rng()) {
  RegisterModule("items", &items_);
  RegisterModule("ops", &ops_);
  RegisterModule("gru", &gru_);
  RegisterModule("att_proj", &att_proj_);
  const float b = nn::InitBound(cfg.embedding_dim);
  att_v_ = RegisterParameter(
      "att_v", Tensor::RandUniform({cfg.embedding_dim, 1}, -b, b, rng()));
}

Variable Rib::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("rib/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const auto flat_items = Tail(ex.flat_items, config().max_positions);
  const auto flat_ops = Tail(ex.flat_ops, config().max_positions);
  Variable x = Add(items_.Forward(flat_items), ops_.Forward(flat_ops));
  x = Dropout(x, config().dropout, training(), rng());
  Variable h = gru_.Forward(x);
  Variable att = RowSoftmaxMasked(
      Transpose(MatMul(Tanh(att_proj_.Forward(h)), att_v_)),
      Tensor::Ones({1, h.value().dim(0)}));  // [1, t]
  Variable rep = MatMul(att, h);
  rep = Dropout(rep, config().dropout, training(), rng());
  return items_.Scores(rep);
}

// -- HUP ----------------------------------------------------------------------

Hup::Hup(int64_t num_items, int64_t num_operations, const TrainConfig& cfg)
    : PerSessionModel("HUP", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      ops_(num_operations, cfg.embedding_dim, rng()),
      micro_gru_(cfg.embedding_dim, cfg.embedding_dim, rng()),
      fuse_(2 * cfg.embedding_dim, cfg.embedding_dim, rng()),
      macro_gru_(cfg.embedding_dim, cfg.embedding_dim, rng()),
      a1_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      a2_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      decode_(2 * cfg.embedding_dim, cfg.embedding_dim, rng(),
              /*bias=*/false) {
  RegisterModule("items", &items_);
  RegisterModule("ops", &ops_);
  RegisterModule("micro_gru", &micro_gru_);
  RegisterModule("fuse", &fuse_);
  RegisterModule("macro_gru", &macro_gru_);
  RegisterModule("a1", &a1_);
  RegisterModule("a2", &a2_);
  RegisterModule("decode", &decode_);
  const float b = nn::InitBound(cfg.embedding_dim);
  v_ = RegisterParameter(
      "v", Tensor::RandUniform({cfg.embedding_dim, 1}, -b, b, rng()));
}

Variable Hup::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("hup/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const size_t max_items = static_cast<size_t>(config().max_positions) / 2;
  const size_t start =
      ex.macro_items.size() > max_items ? ex.macro_items.size() - max_items
                                        : 0;
  std::vector<int64_t> macro(ex.macro_items.begin() + start,
                             ex.macro_items.end());
  Variable item_emb = items_.Forward(macro);
  std::vector<Variable> op_summaries;
  op_summaries.reserve(macro.size());
  for (size_t i = start; i < ex.macro_ops.size(); ++i) {
    Variable oe = ops_.Forward(ex.macro_ops[i]);
    op_summaries.push_back(micro_gru_.ForwardLast(oe));
  }
  Variable op_mat = StackRows(op_summaries);
  Variable x = fuse_.Forward(ConcatCols(item_emb, op_mat));
  x = Dropout(x, config().dropout, training(), rng());
  Variable h = macro_gru_.Forward(x);
  const int64_t t = h.value().dim(0);
  Variable h_t = Row(h, t - 1);
  Variable att = MatMul(
      Sigmoid(Add(RepeatRow(a1_.Forward(h_t), t), a2_.Forward(h))), v_);
  Variable c_local = MatMul(Transpose(att), h);
  Variable rep = decode_.Forward(ConcatCols(h_t, c_local));
  return items_.Scores(rep);
}

// -- BERT4Rec --------------------------------------------------------------------

Bert4Rec::Bert4Rec(int64_t num_items, int64_t num_operations,
                   const TrainConfig& cfg, int num_layers)
    : PerSessionModel("BERT4Rec", num_items, num_operations, cfg),
      items_(num_items + 1, cfg.embedding_dim, rng()),
      positions_(cfg.max_positions + 1, cfg.embedding_dim, rng()) {
  RegisterModule("items", &items_);
  RegisterModule("positions", &positions_);
  for (int i = 0; i < num_layers; ++i) {
    blocks_.push_back(
        std::make_unique<SelfAttentionBlock>(cfg.embedding_dim, rng(),
                                             cfg.dropout));
    RegisterModule("block" + std::to_string(i), blocks_.back().get());
  }
}

Variable Bert4Rec::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("bert4rec/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  std::vector<int64_t> seq = Tail(ex.macro_items, config().max_positions);
  seq.push_back(num_items());  // [MASK] token at the target position
  std::vector<int64_t> pos(seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    pos[i] = ClampPosition(static_cast<int64_t>(i), config().max_positions + 1);
  }
  Variable x = Add(items_.Forward(seq), positions_.Forward(pos));
  x = Dropout(x, config().dropout, training(), rng());
  const int64_t t = x.value().dim(0);
  Tensor mask = Tensor::Ones({t, t});  // fully bidirectional
  for (auto& block : blocks_) {
    x = block->Forward(x, mask, training(), rng());
  }
  Variable z = Row(x, t - 1);
  // Tied output weights over the real items (excluding [MASK]).
  return items_.Scores(z, num_items());
}

}  // namespace embsr
