#ifndef EMBSR_MODELS_BASELINES_SEQ_H_
#define EMBSR_MODELS_BASELINES_SEQ_H_

#include "models/components.h"
#include "models/neural_model.h"

namespace embsr {

/// NARM (Li et al. 2017): GRU encoder with an attention mechanism combining
/// the user's global purpose (attended hidden states) and sequential
/// behaviour (last hidden state); bilinear decoding.
class Narm : public PerSessionModel {
 public:
  Narm(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding items_;
  nn::GRU gru_;
  nn::Linear a1_;
  nn::Linear a2_;
  ag::Variable v_;
  nn::Linear decode_;  // B: [2d -> d]
};

/// STAMP (Liu et al. 2018): short-term attention/memory priority — attention
/// over item embeddings keyed by the last click and the session mean, with
/// trilinear composition scoring.
class Stamp : public NeuralSessionModel {
 public:
  Stamp(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  /// Batched forward over the collator's session-major flat layout: no
  /// padding exists, the per-session mean and attention sums reduce with
  /// SegmentSumRows, and the decode GEMM runs once per batch.
  ag::Variable BatchedLogits(const SessionBatch& batch) override;

 private:
  nn::Embedding items_;
  nn::Linear w1_, w2_, w3_;
  ag::Variable w0_;
  ag::Variable ba_;
  nn::Linear mlp_s_, mlp_t_;
};

/// RIB (Zhou et al. 2018): the first micro-behavior SR model — a GRU over
/// (item + operation) embeddings of the flat micro-behavior sequence with an
/// attention pooling layer.
class Rib : public PerSessionModel {
 public:
  Rib(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding items_;
  nn::Embedding ops_;
  nn::GRU gru_;
  nn::Linear att_proj_;
  ag::Variable att_v_;
};

/// HUP (Gu et al. 2020), simplified to its session-scoped pyramid: a micro
/// GRU summarizes each item's operation sequence, an item-level GRU consumes
/// [item embedding ; operation summary], and attention pools item states.
class Hup : public PerSessionModel {
 public:
  Hup(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding items_;
  nn::Embedding ops_;
  nn::GRU micro_gru_;
  nn::Linear fuse_;
  nn::GRU macro_gru_;
  nn::Linear a1_;
  nn::Linear a2_;
  ag::Variable v_;
  nn::Linear decode_;
};

/// BERT4Rec (Sun et al. 2019), adapted to the session setting: bidirectional
/// transformer blocks over item+position embeddings with a [MASK] token
/// appended at the target position (the cloze objective degenerates to
/// next-item prediction when only the last position is masked, which is the
/// evaluation protocol here).
class Bert4Rec : public PerSessionModel {
 public:
  Bert4Rec(int64_t num_items, int64_t num_operations, const TrainConfig& cfg,
           int num_layers = 2);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding items_;  // num_items + 1 rows; last row is [MASK]
  nn::Embedding positions_;
  std::vector<std::unique_ptr<SelfAttentionBlock>> blocks_;
};

}  // namespace embsr

#endif  // EMBSR_MODELS_BASELINES_SEQ_H_
