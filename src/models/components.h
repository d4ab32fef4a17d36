#ifndef EMBSR_MODELS_COMPONENTS_H_
#define EMBSR_MODELS_COMPONENTS_H_

#include <vector>

#include "autograd/ops.h"
#include "graph/session_graph.h"
#include "nn/layers.h"

namespace embsr {

/// Truncates a sequence to its most recent `max_len` entries.
template <typename T>
std::vector<T> Tail(const std::vector<T>& v, size_t max_len) {
  if (v.size() <= max_len) return v;
  return std::vector<T>(v.end() - max_len, v.end());
}

// -- The session-GNN equations (paper Sec. IV-B), one function each ----------
//
// EMBSR (core/embsr_model.cc), SGNN-HN and the GgnnLayer below share these.
// Each takes its weights as Variables; the caller registers them, so
// parameter names and init draws stay with the model that owns them.

/// Eq. 8, the gated update of node states h [n, d] from their aggregated
/// in/out messages a [n, 2d]:
///   z = sigmoid(a W_z + h U_z),  r = sigmoid(a W_r + h U_r),
///   h~ = tanh(a W_h + (r * h) U_h),  h' = (1 - z) * h + z * h~.
ag::Variable GatedUpdate(const ag::Variable& a, const ag::Variable& h,
                         const ag::Variable& w_z, const ag::Variable& u_z,
                         const ag::Variable& w_r, const ag::Variable& u_r,
                         const ag::Variable& w_h, const ag::Variable& u_h);

/// Eq. 9, the satellite <- star gate over node states h_hat [n, d] and the
/// star node [1, d]: alpha_i = sigmoid((h_hat_i W_q1)(star W_k1)^T / sqrt(d))
/// (the sigmoid is a deviation, DESIGN.md §6), h_i = (1 - alpha_i) h_hat_i +
/// alpha_i star.
ag::Variable StarGate(const ag::Variable& h_hat, const ag::Variable& star,
                      const ag::Variable& wq1, const ag::Variable& wk1);

/// Eq. 10, the star update by attention over node states h [n, d]:
/// beta = softmax((h W_k2)(star W_q2)^T / sqrt(d)), star' = beta^T h [1, d].
ag::Variable StarAttention(const ag::Variable& h, const ag::Variable& star,
                           const ag::Variable& wq2, const ag::Variable& wk2);

/// Eq. 11, the highway mix of the pre-GNN states h0 and the post-GNN states
/// h ([n, d] each): g = sigmoid([h0 ; h] W), out = g * h0 + (1 - g) * h.
/// `w` is the [2d, d] weight of a bias-free nn::Linear.
ag::Variable HighwayMix(const ag::Variable& h0, const ag::Variable& h,
                        const ag::Variable& w);

/// One gated-GNN propagation step over the *collapsed* weighted session
/// graph (Li et al. 2016 as used by SR-GNN): messages flow along the
/// row-normalized in/out adjacency, then Eq. 8's gate updates each node.
/// Used by the SR-GNN, GC-SAN, MKM-SR and SGNN-HN baselines.
class GgnnLayer : public nn::Module {
 public:
  GgnnLayer(int64_t dim, Rng* rng);

  /// h: [n, d] node embeddings; adjacency from BuildSrgnnAdjacency.
  ag::Variable Forward(const ag::Variable& h, const Tensor& a_in,
                       const Tensor& a_out) const;

 private:
  nn::Linear in_proj_;
  nn::Linear out_proj_;
  ag::Variable w_z_, u_z_, w_r_, u_r_, w_h_, u_h_;  // gate weights
};

/// SR-GNN's soft-attention session readout: attends node embeddings against
/// the last item's embedding and mixes the global vector with the local one.
///   alpha_i = q^T sigmoid(W1 h_last + W2 h_i + c)
///   s_g = sum_i alpha_i h_i ;  s = W3 [h_last ; s_g]
class SoftAttentionReadout : public nn::Module {
 public:
  SoftAttentionReadout(int64_t dim, Rng* rng);

  /// seq: [t, d] position-ordered item states. Returns [1, d].
  ag::Variable Forward(const ag::Variable& seq) const;

 private:
  nn::Linear w1_;
  nn::Linear w2_;
  ag::Variable q_;
  nn::Linear w3_;
};

/// A standard single-head transformer encoder block: scaled dot-product
/// self-attention + position-wise FFN, both with residual connections and
/// layer normalization. Used by GC-SAN, BERT4Rec and the EMBSR ablations
/// with *standard* (non-operation-aware) attention.
class SelfAttentionBlock : public nn::Module {
 public:
  SelfAttentionBlock(int64_t dim, Rng* rng, float dropout = 0.0f);

  /// x: [t, d] -> [t, d]. `mask` (t x t of 0/1) marks allowed attention
  /// edges; pass an all-ones tensor for full bidirectional attention.
  ag::Variable Forward(const ag::Variable& x, const Tensor& mask,
                       bool training, Rng* dropout_rng) const;

 private:
  nn::Linear wq_;
  nn::Linear wk_;
  nn::Linear wv_;
  nn::FeedForward ffn_;
  nn::LayerNorm ln1_;
  nn::LayerNorm ln2_;
  float dropout_;
};

/// Clamps position index to the embedding table size.
int64_t ClampPosition(int64_t pos, int64_t max_positions);

}  // namespace embsr

#endif  // EMBSR_MODELS_COMPONENTS_H_
