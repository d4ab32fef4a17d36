#include "models/baselines_gnn.h"

#include "obs/trace.h"
#include "util/check.h"

namespace embsr {

using ag::Variable;

// -- SR-GNN ---------------------------------------------------------------------

SrGnn::SrGnn(int64_t num_items, int64_t num_operations,
             const TrainConfig& cfg)
    : PerSessionModel("SR-GNN", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      ggnn_(cfg.embedding_dim, rng()),
      readout_(cfg.embedding_dim, rng()) {
  RegisterModule("items", &items_);
  RegisterModule("ggnn", &ggnn_);
  RegisterModule("readout", &readout_);
}

Variable SrGnn::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("srgnn/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const auto seq = Tail(ex.macro_items, config().max_positions);
  SrgnnAdjacency adj = BuildSrgnnAdjacency(seq);
  Variable h = items_.Forward(adj.nodes);
  h = Dropout(h, config().dropout, training(), rng());
  h = ggnn_.Forward(h, adj.a_in, adj.a_out);
  Variable states = GatherRows(h, adj.alias);
  Variable rep = readout_.Forward(states);
  return items_.Scores(rep);
}

// -- GC-SAN ---------------------------------------------------------------------

GcSan::GcSan(int64_t num_items, int64_t num_operations,
             const TrainConfig& cfg, int num_attention_layers, float omega)
    : PerSessionModel("GC-SAN", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      ggnn_(cfg.embedding_dim, rng()),
      omega_(omega) {
  RegisterModule("items", &items_);
  RegisterModule("ggnn", &ggnn_);
  for (int i = 0; i < num_attention_layers; ++i) {
    blocks_.push_back(std::make_unique<SelfAttentionBlock>(
        cfg.embedding_dim, rng(), cfg.dropout));
    RegisterModule("block" + std::to_string(i), blocks_.back().get());
  }
}

Variable GcSan::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("gcsan/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const auto seq = Tail(ex.macro_items, config().max_positions);
  SrgnnAdjacency adj = BuildSrgnnAdjacency(seq);
  Variable h = items_.Forward(adj.nodes);
  h = Dropout(h, config().dropout, training(), rng());
  h = ggnn_.Forward(h, adj.a_in, adj.a_out);
  Variable states = GatherRows(h, adj.alias);
  const int64_t t = states.value().dim(0);
  Variable h_last = Row(states, t - 1);
  Tensor mask = Tensor::Ones({t, t});
  Variable x = states;
  for (auto& block : blocks_) {
    x = block->Forward(x, mask, training(), rng());
  }
  Variable e_f = Row(x, t - 1);
  Variable rep = Add(Scale(e_f, omega_), Scale(h_last, 1.0f - omega_));
  return items_.Scores(rep);
}

// -- MKM-SR ---------------------------------------------------------------------

MkmSr::MkmSr(int64_t num_items, int64_t num_operations,
             const TrainConfig& cfg)
    : PerSessionModel("MKM-SR", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      ops_(num_operations, cfg.embedding_dim, rng()),
      ggnn_(cfg.embedding_dim, rng()),
      op_gru_(cfg.embedding_dim, cfg.embedding_dim, rng()),
      readout_(cfg.embedding_dim, rng()),
      combine_(2 * cfg.embedding_dim, cfg.embedding_dim, rng(),
               /*bias=*/false) {
  RegisterModule("items", &items_);
  RegisterModule("ops", &ops_);
  RegisterModule("ggnn", &ggnn_);
  RegisterModule("op_gru", &op_gru_);
  RegisterModule("readout", &readout_);
  RegisterModule("combine", &combine_);
}

Variable MkmSr::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("mkmsr/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const auto seq = Tail(ex.macro_items, config().max_positions);
  SrgnnAdjacency adj = BuildSrgnnAdjacency(seq);
  Variable h = items_.Forward(adj.nodes);
  h = Dropout(h, config().dropout, training(), rng());
  h = ggnn_.Forward(h, adj.a_in, adj.a_out);
  Variable states = GatherRows(h, adj.alias);
  Variable item_rep = readout_.Forward(states);

  const auto flat_ops = Tail(ex.flat_ops, config().max_positions);
  Variable op_rep = op_gru_.ForwardLast(ops_.Forward(flat_ops));

  Variable rep = combine_.Forward(ConcatCols(item_rep, op_rep));
  return items_.Scores(rep);
}

// -- SGNN-HN --------------------------------------------------------------------

SgnnHn::SgnnHn(int64_t num_items, int64_t num_operations,
               const TrainConfig& cfg, int num_layers, float wk)
    : PerSessionModel("SGNN-HN", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      positions_(cfg.max_positions + 1, cfg.embedding_dim, rng()),
      ggnn_(cfg.embedding_dim, rng()),
      highway_(2 * cfg.embedding_dim, cfg.embedding_dim, rng(),
               /*bias=*/false),
      att_w1_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      att_w2_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/false),
      att_w3_(cfg.embedding_dim, cfg.embedding_dim, rng(), /*bias=*/true),
      combine_(2 * cfg.embedding_dim, cfg.embedding_dim, rng(),
               /*bias=*/false),
      num_layers_(num_layers),
      wk_(wk) {
  RegisterModule("items", &items_);
  RegisterModule("positions", &positions_);
  RegisterModule("ggnn", &ggnn_);
  RegisterModule("highway", &highway_);
  RegisterModule("att_w1", &att_w1_);
  RegisterModule("att_w2", &att_w2_);
  RegisterModule("att_w3", &att_w3_);
  RegisterModule("combine", &combine_);
  const float b = nn::InitBound(cfg.embedding_dim);
  auto mk = [&](const char* name) {
    return RegisterParameter(
        name, Tensor::RandUniform({cfg.embedding_dim, cfg.embedding_dim},
                                  -b, b, rng()));
  };
  wq1_ = mk("wq1");
  wk1_ = mk("wk1");
  wq2_ = mk("wq2");
  wk2_ = mk("wk2");
  att_q_ = RegisterParameter(
      "att_q", Tensor::RandUniform({cfg.embedding_dim, 1}, -b, b, rng()));
}

Variable SgnnHn::Logits(const Example& ex) {
  EMBSR_TIMED_SPAN("sgnnhn/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const auto seq = Tail(ex.macro_items, config().max_positions);
  SrgnnAdjacency adj = BuildSrgnnAdjacency(seq);

  Variable h0 = items_.Forward(adj.nodes);
  h0 = Dropout(h0, config().dropout, training(), rng());
  Variable h = h0;
  Variable star = MeanRowsTo1xD(h0);

  for (int layer = 0; layer < num_layers_; ++layer) {
    Variable h_hat = ggnn_.Forward(h, adj.a_in, adj.a_out);  // Eq. 8
    h = StarGate(h_hat, star, wq1_, wk1_);                    // Eq. 9
    star = StarAttention(h, star, wq2_, wk2_);                // Eq. 10
  }

  // Highway between pre- and post-GNN node embeddings (Eq. 11).
  Variable hf = HighwayMix(h0, h, highway_.weight());

  // Position-aware attention readout against last item + star.
  Variable states = GatherRows(hf, adj.alias);
  const int64_t t = states.value().dim(0);
  std::vector<int64_t> pos(t);
  for (int64_t i = 0; i < t; ++i) {
    pos[i] = ClampPosition(t - 1 - i, config().max_positions + 1);
  }
  Variable states_pos = Add(states, positions_.Forward(pos));
  Variable h_last = Row(states, t - 1);
  Variable att_in =
      Add(att_w1_.Forward(states_pos),
          Add(RepeatRow(att_w2_.Forward(h_last), t),
              RepeatRow(att_w3_.Forward(star), t)));
  Variable gamma = MatMul(Sigmoid(att_in), att_q_);  // [t, 1]
  Variable s_g = MatMul(Transpose(gamma), states);
  Variable rep = combine_.Forward(ConcatCols(s_g, h_last));

  // NISER-style normalized scoring.
  Variable m_hat = Scale(L2NormalizeRowsOp(rep), wk_);
  return items_.CosineScores(m_hat);
}

}  // namespace embsr
