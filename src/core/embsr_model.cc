#include "core/embsr_model.h"

#include <algorithm>
#include <cmath>

#include "graph/session_graph.h"
#include "obs/trace.h"
#include "util/check.h"

namespace embsr {

using ag::Variable;

namespace {

template <typename T>
std::vector<T> Tail(const std::vector<T>& v, size_t max_len) {
  if (v.size() <= max_len) return v;
  return std::vector<T>(v.end() - max_len, v.end());
}

/// 0/1 scatter matrix S [num_nodes, num_edges] with S[node_of(e), e] = 1;
/// multiplying S by per-edge messages sums them per node.
Tensor ScatterMatrix(int64_t num_nodes, const std::vector<int>& edge_nodes) {
  Tensor s({num_nodes, static_cast<int64_t>(edge_nodes.size())});
  for (size_t e = 0; e < edge_nodes.size(); ++e) {
    s.at2(edge_nodes[e], static_cast<int64_t>(e)) = 1.0f;
  }
  return s;
}

}  // namespace

EmbsrModel::EmbsrModel(std::string name, int64_t num_items,
                       int64_t num_operations, const TrainConfig& train_cfg,
                       const EmbsrConfig& cfg)
    : NeuralSessionModel(std::move(name), num_items, num_operations,
                         train_cfg),
      cfg_(cfg),
      virtual_op_(num_operations),
      items_(num_items, train_cfg.embedding_dim, rng()),
      ops_(num_operations + 1, train_cfg.embedding_dim, rng()),
      relations_((num_operations + 1) * (num_operations + 1),
                 train_cfg.embedding_dim, rng()),
      positions_(train_cfg.max_positions + 1, train_cfg.embedding_dim,
                 rng()),
      micro_gru_(train_cfg.embedding_dim, train_cfg.embedding_dim, rng()),
      msg_in_(2 * train_cfg.embedding_dim, train_cfg.embedding_dim, rng()),
      msg_out_(2 * train_cfg.embedding_dim, train_cfg.embedding_dim, rng()),
      highway_(2 * train_cfg.embedding_dim, train_cfg.embedding_dim, rng(),
               /*bias=*/false),
      ffn_(train_cfg.embedding_dim, train_cfg.embedding_dim, rng()),
      ln1_(train_cfg.embedding_dim),
      ln2_(train_cfg.embedding_dim),
      fusion_(2 * train_cfg.embedding_dim, train_cfg.embedding_dim, rng()),
      rnn_backbone_gru_(train_cfg.embedding_dim, train_cfg.embedding_dim,
                        rng()),
      rnn_fuse_(2 * train_cfg.embedding_dim, train_cfg.embedding_dim,
                rng()) {
  // Every component is constructed, in one fixed order, whatever the
  // config, so each weight draws the same initial values in every variant.
  // Only the components the config wires into the forward are registered:
  // the parameter list is exactly what training can move, and the tape
  // audit can demand a gradient for every entry (DESIGN.md §12).
  const bool gnn = cfg.use_gnn && !cfg.rnn_backbone;
  const bool attention = cfg.use_self_attention;
  const bool uses_ops = cfg.rnn_backbone || cfg.use_op_in_attention ||
                        (cfg.use_gnn && cfg.use_op_gru_edges);
  const bool gated_fusion = cfg.fixed_beta < 0.0f;
  auto wire = [this](bool wired, const char* name, nn::Module* child) {
    if (wired) RegisterModule(name, child);
  };
  RegisterModule("items", &items_);
  wire(uses_ops, "ops", &ops_);
  wire(attention && cfg.use_dyadic, "relations", &relations_);
  wire(attention, "positions", &positions_);
  wire(gnn && cfg.use_op_gru_edges, "micro_gru", &micro_gru_);
  wire(gnn, "msg_in", &msg_in_);
  wire(gnn, "msg_out", &msg_out_);
  wire(gnn, "highway", &highway_);
  wire(attention, "ffn", &ffn_);
  wire(attention, "ln1", &ln1_);
  wire(attention, "ln2", &ln2_);
  wire(gated_fusion, "fusion", &fusion_);
  wire(cfg.rnn_backbone, "rnn_backbone_gru", &rnn_backbone_gru_);
  wire(cfg.rnn_backbone, "rnn_fuse", &rnn_fuse_);

  const int64_t d = train_cfg.embedding_dim;
  const float b = nn::InitBound(d);
  // An unwired weight still takes its draw and is left undefined.
  auto mk = [&](bool wired, const char* pname, int64_t r, int64_t c) {
    Tensor init = Tensor::RandUniform({r, c}, -b, b, rng());
    return wired ? RegisterParameter(pname, std::move(init)) : Variable();
  };
  w_z_ = mk(gnn, "w_z", 2 * d, d);
  u_z_ = mk(gnn, "u_z", d, d);
  w_r_ = mk(gnn, "w_r", 2 * d, d);
  u_r_ = mk(gnn, "u_r", d, d);
  w_u_ = mk(gnn, "w_u", 2 * d, d);
  u_u_ = mk(gnn, "u_u", d, d);
  if (cfg.weight_operations) {
    op_importance_ = RegisterParameter(
        "op_importance", Tensor::Zeros({num_operations + 1, 1}));
  }
  wq1_ = mk(gnn, "wq1", d, d);
  wk1_ = mk(gnn, "wk1", d, d);
  wq2_ = mk(gnn, "wq2", d, d);
  wk2_ = mk(gnn, "wk2", d, d);
  w_q_attn_ = mk(attention, "w_q_attn", d, d);
}

ag::Variable EmbsrModel::OpEmbedding(
    const std::vector<int64_t>& ops) const {
  Variable e = ops_.Forward(ops);
  if (!cfg_.weight_operations) return e;
  // sigmoid(0) = 0.5 at init: all operations start equally half-weighted,
  // and training moves informative ones up and noise ones down.
  Variable gate = ag::Sigmoid(ag::GatherRows(op_importance_, ops));
  return ag::MulColBroadcast(e, gate);
}

int64_t EmbsrModel::RelationId(int64_t op_a, int64_t op_b) const {
  const int64_t base = num_operations() + 1;
  EMBSR_CHECK_GE(op_a, 0);
  EMBSR_CHECK_LT(op_a, base);
  EMBSR_CHECK_GE(op_b, 0);
  EMBSR_CHECK_LT(op_b, base);
  return op_a * base + op_b;
}

Variable EmbsrModel::EncodeOpSequences(
    const std::vector<std::vector<int64_t>>& macro_ops) {
  EMBSR_TRACE_SPAN("embsr/micro_gru");
  std::vector<Variable> encodings;
  encodings.reserve(macro_ops.size());
  for (const auto& ops : macro_ops) {
    EMBSR_CHECK(!ops.empty());
    encodings.push_back(micro_gru_.ForwardLast(OpEmbedding(ops)));
  }
  return ag::StackRows(encodings);
}

void EmbsrModel::RunGnn(const Example& ex,
                        const std::vector<int64_t>& macro_items,
                        const std::vector<std::vector<int64_t>>& macro_ops,
                        Variable* satellites, Variable* star) {
  EMBSR_TRACE_SPAN("embsr/gnn");
  using namespace ag;  // NOLINT
  (void)ex;
  const int64_t d = config().embedding_dim;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  const SessionMultigraph graph = SessionMultigraph::Build(macro_items);
  const int64_t c = graph.num_nodes();
  const int64_t n = static_cast<int64_t>(macro_items.size());

  Variable h0 = items_.Forward(graph.nodes());
  h0 = Dropout(h0, config().dropout, training(), rng());
  Variable star_v = MeanRowsTo1xD(h0);

  if (!cfg_.use_gnn) {
    *satellites = h0;
    *star = star_v;
    return;
  }

  // Sequential encodings h~^i of each macro position's operation run.
  // Only edges consume them (Eq. 5–6), so a single-item session — whose
  // multigraph has no edges — skips the micro GRU entirely instead of
  // growing an orphaned subgraph (no RNG is drawn on this path, so the
  // skip is bitwise-neutral for every session that does have edges).
  const bool has_edges = !graph.edges().empty();
  Variable h_seq = cfg_.use_op_gru_edges && has_edges
                       ? EncodeOpSequences(macro_ops)
                       : Constant(Tensor::Zeros({n, d}));

  // Edge index lists. Edge e goes from position `order` to `order + 1`;
  // per Eq. 5 the message along an edge carries the *other* endpoint's
  // embedding and that endpoint's operation encoding at the transition.
  std::vector<int64_t> in_src, in_ord, out_dst, out_ord;
  std::vector<int> in_dst_nodes, out_src_nodes;
  for (const auto& e : graph.edges()) {
    in_src.push_back(e.src);
    in_ord.push_back(e.order);
    in_dst_nodes.push_back(e.dst);
    out_dst.push_back(e.dst);
    out_ord.push_back(e.order + 1);
    out_src_nodes.push_back(e.src);
  }
  Tensor s_in = has_edges ? ScatterMatrix(c, in_dst_nodes) : Tensor();
  Tensor s_out = has_edges ? ScatterMatrix(c, out_src_nodes) : Tensor();

  Variable h = h0;
  for (int layer = 0; layer < cfg_.gnn_layers; ++layer) {
    Variable a_in, a_out;
    if (has_edges) {
      Variable msg_in = msg_in_.Forward(
          ConcatCols(GatherRows(h, in_src), GatherRows(h_seq, in_ord)));
      a_in = MatMul(Constant(s_in), msg_in);
      Variable msg_out = msg_out_.Forward(
          ConcatCols(GatherRows(h, out_dst), GatherRows(h_seq, out_ord)));
      a_out = MatMul(Constant(s_out), msg_out);
    } else {
      a_in = Constant(Tensor::Zeros({c, d}));
      a_out = Constant(Tensor::Zeros({c, d}));
    }
    Variable a = ConcatCols(a_in, a_out);  // Eq. 7

    // Gated update (Eq. 8).
    Variable z = Sigmoid(Add(MatMul(a, w_z_), MatMul(h, u_z_)));
    Variable r = Sigmoid(Add(MatMul(a, w_r_), MatMul(h, u_r_)));
    Variable cand = Tanh(Add(MatMul(a, w_u_), MatMul(Mul(r, h), u_u_)));
    Variable one_minus_z = AddScalar(Neg(z), 1.0f);
    Variable h_hat = Add(Mul(one_minus_z, h), Mul(z, cand));

    // Satellite <- star gate (Eq. 9; sigmoid added for stability).
    Variable alpha = Sigmoid(Scale(
        MatMul(MatMul(h_hat, wq1_), Transpose(MatMul(star_v, wk1_))),
        inv_sqrt_d));  // [c, 1]
    Variable one_minus_a = AddScalar(Neg(alpha), 1.0f);
    h = Add(MulColBroadcast(h_hat, one_minus_a),
            MulColBroadcast(RepeatRow(star_v, c), alpha));

    // Star update by attention over satellites (Eq. 10).
    Variable beta = RowSoftmaxMasked(
        Scale(Transpose(MatMul(MatMul(h, wk2_),
                               Transpose(MatMul(star_v, wq2_)))),
              inv_sqrt_d),
        Tensor::Ones({1, c}));
    star_v = MatMul(beta, h);
  }

  // Highway network (Eq. 11).
  Variable g = Sigmoid(highway_.Forward(ConcatCols(h0, h)));
  Variable one_minus_g = AddScalar(Neg(g), 1.0f);
  *satellites = Add(Mul(g, h0), Mul(one_minus_g, h));
  *star = star_v;
}

Variable EmbsrModel::SessionRepr(const Example& ex) {
  EMBSR_TIMED_SPAN("embsr/logits", "model/forward_ms");
  using namespace ag;  // NOLINT
  const int64_t d = config().embedding_dim;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  // Keep one position free for the star/target slot.
  const size_t max_flat = static_cast<size_t>(config().max_positions) - 1;

  Variable x;    // [t, d] attention inputs for the micro-behaviors
  Variable x_s;  // [1, d] star/target slot input
  std::vector<int64_t> flat_ops;

  if (cfg_.rnn_backbone) {
    // RNN-Self: GRU over [item ; operation] embeddings of the flat stream.
    const auto flat_items = Tail(ex.flat_items, max_flat);
    flat_ops = Tail(ex.flat_ops, max_flat);
    Variable in = rnn_fuse_.Forward(
        ConcatCols(items_.Forward(flat_items), OpEmbedding(flat_ops)));
    in = Dropout(in, config().dropout, training(), rng());
    x = rnn_backbone_gru_.Forward(in);
    x_s = MeanRowsTo1xD(x);
  } else {
    // Macro sequence bounded to keep the flat stream within positions.
    std::vector<int64_t> macro_items = ex.macro_items;
    std::vector<std::vector<int64_t>> macro_ops = ex.macro_ops;
    std::vector<int64_t> flat_items = ex.flat_items;
    flat_ops = ex.flat_ops;
    while (flat_items.size() > max_flat && macro_items.size() > 1) {
      const size_t drop = macro_ops.front().size();
      macro_items.erase(macro_items.begin());
      macro_ops.erase(macro_ops.begin());
      flat_items.erase(flat_items.begin(), flat_items.begin() + drop);
      flat_ops.erase(flat_ops.begin(), flat_ops.begin() + drop);
    }

    Variable satellites, star;
    RunGnn(ex, macro_items, macro_ops, &satellites, &star);

    const SessionMultigraph graph = SessionMultigraph::Build(macro_items);
    // Variants without any operation information in the attention stage
    // (SGNN-Self, SGNN-Seq-Self) attend over *macro items*, as in the
    // paper's description ("can only learn the representation of the
    // session by macro-items"); otherwise a micro-behavior sequence would
    // still leak operation counts through its length.
    const bool attend_micro = cfg_.use_op_in_attention || cfg_.use_dyadic;
    if (attend_micro) {
      // Map each flat micro-behavior to its item's satellite row.
      std::vector<int64_t> node_of_flat;
      node_of_flat.reserve(flat_items.size());
      size_t macro_pos = 0, left = macro_ops[0].size();
      for (size_t i = 0; i < flat_items.size(); ++i) {
        if (left == 0) {
          ++macro_pos;
          EMBSR_CHECK_LT(macro_pos, macro_ops.size());
          left = macro_ops[macro_pos].size();
        }
        node_of_flat.push_back(graph.alias()[macro_pos]);
        --left;
      }
      Variable item_part = GatherRows(satellites, node_of_flat);
      if (cfg_.use_op_in_attention) {
        x = Add(item_part, OpEmbedding(flat_ops));  // Eq. 12
      } else {
        x = item_part;
      }
    } else {
      std::vector<int64_t> node_of_macro(graph.alias().begin(),
                                         graph.alias().end());
      x = GatherRows(satellites, node_of_macro);
      flat_ops.clear();  // no operation inputs downstream
    }
    // Eq. 13 with a learned virtual operation in place of o_{t+1}.
    if (cfg_.use_op_in_attention) {
      x_s = Add(star, OpEmbedding({virtual_op_}));
    } else {
      x_s = star;
    }
  }

  const int64_t t = x.value().dim(0);
  Variable z_s;
  if (!cfg_.use_self_attention) {
    z_s = x_s;  // EMBSR-NS
  } else {
    EMBSR_TRACE_SPAN("embsr/attention");
    // Operation-aware self-attention, computed for the star query only
    // (the downstream fusion uses z_s alone).
    Variable kv_base = ConcatRows(x, x_s);  // [t+1, d]
    std::vector<int64_t> pos_ids(t + 1);
    for (int64_t j = 0; j <= t; ++j) {
      pos_ids[j] = ClampPosition(j, config().max_positions + 1);
    }
    Variable kv = Add(kv_base, positions_.Forward(pos_ids));
    if (cfg_.use_dyadic) {
      std::vector<int64_t> rel_ids(t + 1);
      for (int64_t j = 0; j < t; ++j) {
        rel_ids[j] = RelationId(virtual_op_, flat_ops[j]);
      }
      rel_ids[t] = RelationId(virtual_op_, virtual_op_);
      kv = Add(kv, relations_.Forward(rel_ids));  // Eq. 14/16
    }
    Variable q = MatMul(x_s, w_q_attn_);
    Variable scores = Scale(MatMul(q, Transpose(kv)), inv_sqrt_d);  // Eq. 16
    Variable alpha = RowSoftmaxMasked(scores, Tensor::Ones({1, t + 1}));
    Variable attn = MatMul(alpha, kv);  // Eq. 14
    attn = Dropout(attn, config().dropout, training(), rng());
    Variable a = ln1_.Forward(Add(x_s, attn));
    Variable f = Dropout(ffn_.Forward(a), config().dropout, training(),
                         rng());
    z_s = ln2_.Forward(Add(a, f));  // Eq. 17 + residual/LN
  }

  Variable x_t = Row(x, t - 1);  // recent interest
  Variable m;
  if (cfg_.fixed_beta >= 0.0f) {
    m = Add(Scale(z_s, cfg_.fixed_beta), Scale(x_t, 1.0f - cfg_.fixed_beta));
  } else if (cfg_.use_fusion_gate) {
    Variable beta = Sigmoid(fusion_.Forward(ConcatCols(z_s, x_t)));  // Eq. 18
    Variable one_minus_b = AddScalar(Neg(beta), 1.0f);
    m = Add(Mul(beta, z_s), Mul(one_minus_b, x_t));
  } else {
    m = fusion_.Forward(ConcatCols(z_s, x_t));  // EMBSR-NF MLP
  }
  return m;
}

Variable EmbsrModel::DecodeRepr(const Variable& m) {
  using namespace ag;  // NOLINT
  // Normalized scoring (Eq. 19).
  Variable m_hat = Scale(L2NormalizeRowsOp(m), cfg_.wk);
  Variable items_norm = L2NormalizeRowsOp(items_.table());
  return MatMul(m_hat, Transpose(items_norm));
}

Variable EmbsrModel::BatchedLogits(const SessionBatch& batch) {
  using namespace ag;  // NOLINT
  std::vector<Variable> reprs;
  reprs.reserve(batch.examples.size());
  for (const Example* ex : batch.examples) reprs.push_back(SessionRepr(*ex));
  return DecodeRepr(reprs.size() == 1 ? reprs[0] : StackRows(reprs));
}

EmbsrConfig EmbsrVariants::Full() { return {}; }

EmbsrConfig EmbsrVariants::NoSelfAttention() {
  EmbsrConfig c;
  c.use_self_attention = false;
  return c;
}

EmbsrConfig EmbsrVariants::NoGnn() {
  EmbsrConfig c;
  c.use_gnn = false;
  c.use_op_gru_edges = false;
  return c;
}

EmbsrConfig EmbsrVariants::NoFusionGate() {
  EmbsrConfig c;
  c.use_fusion_gate = false;
  return c;
}

EmbsrConfig EmbsrVariants::SgnnSelf() {
  EmbsrConfig c;
  c.use_op_gru_edges = false;
  c.use_op_in_attention = false;
  c.use_dyadic = false;
  return c;
}

EmbsrConfig EmbsrVariants::SgnnSeqSelf() {
  EmbsrConfig c;
  c.use_op_in_attention = false;
  c.use_dyadic = false;
  return c;
}

EmbsrConfig EmbsrVariants::RnnSelf() {
  EmbsrConfig c;
  c.rnn_backbone = true;
  c.use_gnn = false;
  c.use_op_gru_edges = false;
  c.use_op_in_attention = false;
  c.use_dyadic = false;
  return c;
}

EmbsrConfig EmbsrVariants::SgnnAbsSelf() {
  EmbsrConfig c;
  c.use_op_gru_edges = false;
  c.use_op_in_attention = true;
  c.use_dyadic = false;
  return c;
}

EmbsrConfig EmbsrVariants::SgnnDyadic() {
  EmbsrConfig c;
  c.use_op_gru_edges = false;
  c.use_op_in_attention = true;
  c.use_dyadic = true;
  return c;
}

EmbsrConfig EmbsrVariants::FixedBeta(float beta) {
  EmbsrConfig c;
  c.fixed_beta = beta;
  return c;
}

EmbsrConfig EmbsrVariants::WeightedOps() {
  EmbsrConfig c;
  c.weight_operations = true;
  return c;
}

}  // namespace embsr
