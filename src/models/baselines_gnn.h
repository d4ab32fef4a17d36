#ifndef EMBSR_MODELS_BASELINES_GNN_H_
#define EMBSR_MODELS_BASELINES_GNN_H_

#include <memory>
#include <vector>

#include "models/components.h"
#include "models/neural_model.h"

namespace embsr {

/// SR-GNN (Wu et al. 2019): gated GNN over the collapsed session graph with
/// a soft-attention readout against the last item.
class SrGnn : public PerSessionModel {
 public:
  SrGnn(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding items_;
  GgnnLayer ggnn_;
  SoftAttentionReadout readout_;
};

/// GC-SAN (Xu et al. 2019): SR-GNN's gated GNN followed by self-attention
/// blocks; the session embedding mixes the attention output with the last
/// item state (weight omega as in the paper).
class GcSan : public PerSessionModel {
 public:
  GcSan(int64_t num_items, int64_t num_operations, const TrainConfig& cfg,
        int num_attention_layers = 1, float omega = 0.6f);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding items_;
  GgnnLayer ggnn_;
  std::vector<std::unique_ptr<SelfAttentionBlock>> blocks_;
  float omega_;
};

/// MKM-SR (Meng et al. 2020), without the knowledge-graph auxiliary task
/// (the variant the paper compares against): gated GNN for the item
/// sequence, a GRU over the flat operation sequence, and a session
/// representation formed from both.
class MkmSr : public PerSessionModel {
 public:
  MkmSr(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding items_;
  nn::Embedding ops_;
  GgnnLayer ggnn_;
  nn::GRU op_gru_;
  SoftAttentionReadout readout_;
  nn::Linear combine_;
};

/// SGNN-HN (Pan et al. 2020): star graph neural network with highway
/// networks. A star node connected to every satellite propagates long-range
/// information; a highway gate mixes pre-/post-GNN embeddings; readout is
/// position-aware attention; scoring uses NISER-style L2 normalization with
/// scale factor w_k.
class SgnnHn : public PerSessionModel {
 public:
  SgnnHn(int64_t num_items, int64_t num_operations, const TrainConfig& cfg,
         int num_layers = 1, float wk = 12.0f);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  friend class SgnnHnStarTest;

  nn::Embedding items_;
  nn::Embedding positions_;
  GgnnLayer ggnn_;
  ag::Variable wq1_, wk1_, wq2_, wk2_;  // star gating / update projections
  nn::Linear highway_;
  nn::Linear att_w1_;
  nn::Linear att_w2_;
  nn::Linear att_w3_;
  ag::Variable att_q_;
  nn::Linear combine_;
  int num_layers_;
  float wk_;
};

}  // namespace embsr

#endif  // EMBSR_MODELS_BASELINES_GNN_H_
