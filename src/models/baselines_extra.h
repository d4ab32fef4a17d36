#ifndef EMBSR_MODELS_BASELINES_EXTRA_H_
#define EMBSR_MODELS_BASELINES_EXTRA_H_

#include "nn/layers.h"
#include "models/neural_model.h"
#include "models/recommender.h"

namespace embsr {

/// Additional classic baselines discussed in the paper's related work but
/// not part of its Table III. They round out the comparison for downstream
/// users (and serve as sanity anchors: anything in Table III should beat
/// a first-order Markov model).

/// GRU4Rec (Hidasi et al. 2016), simplified to whole-session training:
/// a GRU over item embeddings; the last hidden state scores all items by
/// dot product with the (tied) item embedding table.
class Gru4Rec : public NeuralSessionModel {
 public:
  Gru4Rec(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  /// Session-parallel batched forward: one embedding gather over the
  /// padded time-major items, one masked GRU unroll, one decode GEMM
  /// against the item table (transposed once per batch, not per session).
  ag::Variable BatchedLogits(const SessionBatch& batch) override;

 private:
  nn::Embedding items_;
  nn::GRU gru_;
};

/// FPMC (Rendle et al. 2010) restricted to the session setting: a
/// factorized first-order Markov chain. score(next = j | last = i) =
/// <e_IL(i), e_LI(j)> with two learned embedding tables (there is no user
/// factor because sessions are anonymous).
class Fpmc : public PerSessionModel {
 public:
  Fpmc(int64_t num_items, int64_t num_operations, const TrainConfig& cfg);

 protected:
  ag::Variable Logits(const Example& ex) override;

 private:
  nn::Embedding item_to_latent_;  // e_IL, indexed by the last item
  nn::Embedding latent_to_item_;  // e_LI, the candidate side
};

/// STAN (Garg et al. 2019): sequence- and time-aware neighborhood — SKNN
/// with (1) recency-weighted session similarity (recent items of the
/// current session count more) and (2) neighbor items weighted by their
/// distance from the matched item inside the neighbor session.
class Stan : public Recommender {
 public:
  Stan(int64_t num_items, int k = 100, float lambda_recency = 0.5f,
       float lambda_distance = 0.5f);

  std::string name() const override { return "STAN"; }
  Status Fit(const ProcessedDataset& data) override;
  std::vector<float> ScoreAll(const Example& ex) override;

 private:
  int64_t num_items_;
  int k_;
  float lambda_recency_;
  float lambda_distance_;
  /// Ordered item sequences (input + target) of the training sessions.
  std::vector<std::vector<int64_t>> session_seqs_;
  std::vector<std::vector<int32_t>> item_to_sessions_;
};

}  // namespace embsr

#endif  // EMBSR_MODELS_BASELINES_EXTRA_H_
