#ifndef EMBSR_CORE_EMBSR_MODEL_H_
#define EMBSR_CORE_EMBSR_MODEL_H_

#include <string>

#include "models/components.h"
#include "models/neural_model.h"

namespace embsr {

/// Architectural switches of EMBSR. The full model enables everything;
/// the paper's ablations and variants flip individual flags (see the
/// factory functions below, which match the names used in Tables IV,
/// Figs. 4–6 and the supplement).
struct EmbsrConfig {
  /// Encode sequential patterns with the star multigraph GNN (Sec. IV-B).
  /// When false (EMBSR-NG) items are plain embeddings and the "star" is the
  /// mean item embedding.
  bool use_gnn = true;
  /// Feed the per-item micro-operation GRU encodings into the GNN messages
  /// (Eq. 5–6). When false the message functions see zeros in place of the
  /// operation encoding (the SGNN-* variants of Fig. 4/5).
  bool use_op_gru_edges = true;
  /// Apply the operation-aware self-attention (Sec. IV-C). When false
  /// (EMBSR-NS) the global preference is the star-node input x_s directly.
  bool use_self_attention = true;
  /// Add absolute operation embeddings into the attention inputs x_i
  /// (Eq. 12). Off for SGNN-Self / SGNN-Seq-Self.
  bool use_op_in_attention = true;
  /// Add dyadic relation embeddings e_r_ij into attention keys/values
  /// (Eq. 14/16). Off for SGNN-Abs-Self (absolute encoding only).
  bool use_dyadic = true;
  /// Fuse global preference and recent interest with the learned gate
  /// (Eq. 18). When false (EMBSR-NF) an MLP on the concatenation is used.
  bool use_fusion_gate = true;
  /// RNN-Self: replace the whole GNN stage by a GRU over item+operation
  /// embeddings of the flat micro-behavior sequence (Fig. 4's variant).
  bool rnn_backbone = false;
  /// If in [0, 1], bypass the fusion gate with this constant beta (Fig. 6).
  float fixed_beta = -1.0f;
  /// Number of stacked GNN layers.
  int gnn_layers = 1;
  /// Normalized-scoring scale w_k (Eq. 19); the paper uses 12.
  float wk = 12.0f;
  /// Future-work extension from the paper's conclusion: learn a scalar
  /// importance gate per operation and scale every operation embedding by
  /// sigmoid(importance[op]) before it enters the micro-op GRU and the
  /// attention inputs. Lets the model down-weight noise operations (hover,
  /// filter browsing) without discarding them.
  bool weight_operations = false;
};

/// EMBSR: Encoding Micro-Behaviors in Session-based Recommendation.
///
/// Pipeline (paper Fig. 2): the macro-item sequence becomes a directed
/// multigraph with ordered edges plus a star node; a GRU encodes each item's
/// micro-operation run and its encoding rides on the graph edges; gated
/// message passing + star gating + a highway network produce item states;
/// an operation-aware self-attention with dyadic operation-pair embeddings
/// produces the global preference; a fusion gate mixes it with the recent
/// interest; scoring is L2-normalized dot product scaled by w_k.
class EmbsrModel : public NeuralSessionModel {
 public:
  EmbsrModel(std::string name, int64_t num_items, int64_t num_operations,
             const TrainConfig& train_cfg, const EmbsrConfig& cfg = {});

  const EmbsrConfig& embsr_config() const { return cfg_; }

 protected:
  /// Batched decode: the per-session pipeline up to the fused session
  /// representation stays serial (each session owns its own multigraph),
  /// but the normalized-scoring stage — the L2 normalizations, the w_k
  /// scale and the [B, d] x [d, V] decode GEMM that dominates the forward —
  /// runs once over the stacked representations. Every decode op is
  /// row-independent, so a session's row is the same at any batch size.
  ag::Variable BatchedLogits(const SessionBatch& batch) override;

 private:
  /// The fused session representation m ([1, d], Eq. 18) of one session.
  ag::Variable SessionRepr(const Example& ex);

  /// Normalized scoring (Eq. 19) over [n, d] session representations.
  ag::Variable DecodeRepr(const ag::Variable& m);
  /// Runs the star-multigraph GNN; returns final satellite states h^f
  /// ([c, d], rows indexed like graph nodes) and the final star node
  /// ([1, d]) through the output parameters.
  void RunGnn(const Example& ex, const std::vector<int64_t>& macro_items,
              const std::vector<std::vector<int64_t>>& macro_ops,
              ag::Variable* satellites, ag::Variable* star);

  /// Encodes each macro item's operation run with the micro GRU (Eq. 3–4).
  ag::Variable EncodeOpSequences(
      const std::vector<std::vector<int64_t>>& macro_ops);

  /// Dyadic relation id of the ordered operation pair (a, b).
  int64_t RelationId(int64_t op_a, int64_t op_b) const;

  /// Operation embeddings, optionally scaled by the learned importance gate
  /// (the weight_operations extension).
  ag::Variable OpEmbedding(const std::vector<int64_t>& ops) const;

  EmbsrConfig cfg_;
  /// The id of the virtual operation assigned to the star/target position.
  /// The paper assumes the target's operation is known (Eq. 13); we use a
  /// learned placeholder instead so train and test see the same input —
  /// documented as a substitution in DESIGN.md.
  int64_t virtual_op_;

  // Every component below is constructed whatever the config; the ones
  // the config leaves out of the forward are not registered, and their
  // raw weights are undefined Variables.
  nn::Embedding items_;      // M^V
  nn::Embedding ops_;        // M^O (num_operations + 1: virtual op)
  nn::Embedding relations_;  // M^R ((|O|+1)^2 dyadic pairs)
  nn::Embedding positions_;  // M^P

  nn::GRU micro_gru_;      // sequential pattern of micro-operations
  nn::Linear msg_in_;      // f_m^+ : [e_u ; h~] -> d
  nn::Linear msg_out_;     // f_m^- : [e_u ; h~] -> d
  ag::Variable w_z_, u_z_, w_r_, u_r_, w_u_, u_u_;  // Eq. 8 gates
  ag::Variable wq1_, wk1_, wq2_, wk2_;              // Eq. 9–10
  nn::Linear highway_;                              // Eq. 11
  ag::Variable w_q_attn_;                           // W^Q of Eq. 16
  nn::FeedForward ffn_;                             // Eq. 17
  nn::LayerNorm ln1_;
  nn::LayerNorm ln2_;
  nn::Linear fusion_;      // Eq. 18 gate (or the NF MLP)
  nn::GRU rnn_backbone_gru_;  // only used when cfg.rnn_backbone
  nn::Linear rnn_fuse_;       // item||op -> d for the RNN backbone
  ag::Variable op_importance_;  // [|O|+1, 1], weight_operations extension
};

/// Factory helpers matching the paper's variant names.
struct EmbsrVariants {
  static EmbsrConfig Full();
  static EmbsrConfig NoSelfAttention();   // EMBSR-NS (Table IV)
  static EmbsrConfig NoGnn();             // EMBSR-NG (Table IV)
  static EmbsrConfig NoFusionGate();      // EMBSR-NF (Table IV)
  static EmbsrConfig SgnnSelf();          // Fig. 4/5
  static EmbsrConfig SgnnSeqSelf();       // Fig. 4
  static EmbsrConfig RnnSelf();           // Fig. 4/5
  static EmbsrConfig SgnnAbsSelf();       // Fig. 5
  static EmbsrConfig SgnnDyadic();        // Fig. 5 / supplement Table II
  static EmbsrConfig FixedBeta(float beta);  // Fig. 6
  static EmbsrConfig WeightedOps();          // future-work extension (EMBSR-W)
};

}  // namespace embsr

#endif  // EMBSR_CORE_EMBSR_MODEL_H_
