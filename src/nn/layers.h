#ifndef EMBSR_NN_LAYERS_H_
#define EMBSR_NN_LAYERS_H_

#include <mutex>
#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace embsr {
namespace nn {

/// All layers initialize weights Uniform(-1/sqrt(d), 1/sqrt(d)) where d is
/// the hidden size, matching the initialization the paper inherits from
/// MKM-SR ("the parameters are initialized the same with [12]").
float InitBound(int64_t hidden_dim);

/// y = x W + b, with W: [in, out].
class Linear : public Module {
 public:
  Linear(int64_t in_dim, int64_t out_dim, Rng* rng, bool bias = true);

  /// x: [n, in] -> [n, out].
  ag::Variable Forward(const ag::Variable& x) const;

  const ag::Variable& weight() const { return weight_; }

 private:
  ag::Variable weight_;
  ag::Variable bias_;
  bool has_bias_;
};

/// A lookup table of `count` embeddings of dimension `dim`.
///
/// It is also the candidate side of the decodes: Scores and CosineScores
/// score session representations against every row. With the graph on they
/// build the differentiable ag::ScoreItems(rep, table). Under an
/// ag::NoGradScope they run MatMul(rep, T) on a cached [dim, rows]
/// transpose T of the table, which tensor.h's MatMulTransposedB contract
/// makes bitwise the same scores. T is rebuilt on the first decode after
/// the table's version moves (any mutable_value() write). The check and
/// the rebuild hold a mutex, so scoring threads may meet a stale T together.
class Embedding : public Module {
 public:
  Embedding(int64_t count, int64_t dim, Rng* rng);

  /// indices -> [indices.size(), dim].
  ag::Variable Forward(const std::vector<int64_t>& indices) const;

  /// rep · tableᵀ over the first `rows` embeddings: [n, dim] -> [n, rows].
  /// The one-argument form scores all `count` of them.
  ag::Variable Scores(const ag::Variable& rep) const;
  ag::Variable Scores(const ag::Variable& rep, int64_t rows) const;
  /// Eq. 19's cosine decode: rep · L2Normalize(table)ᵀ -> [n, count]. The
  /// caller normalizes and scales `rep`.
  ag::Variable CosineScores(const ag::Variable& rep) const;

  /// The full table as a variable.
  const ag::Variable& table() const { return table_; }

  int64_t count() const { return count_; }
  int64_t dim() const { return dim_; }

 private:
  ag::Variable Decode(const ag::Variable& rep, int64_t rows,
                      bool normalized) const;
  /// The cached T for (rows, normalized), rebuilt if stale.
  ag::Variable DecodeTable(int64_t rows, bool normalized) const;

  ag::Variable table_;
  int64_t count_;
  int64_t dim_;

  mutable std::mutex decode_mu_;
  mutable ag::Variable decode_table_;  // undefined until the first build
  mutable uint64_t decode_version_ = 0;
  mutable int64_t decode_rows_ = 0;
  mutable bool decode_normalized_ = false;
};

/// A single GRU step (cho et al. 2014 formulation, PyTorch gate layout).
class GRUCell : public Module {
 public:
  GRUCell(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  /// x: [n, input_dim], h: [n, hidden_dim] -> [n, hidden_dim].
  ag::Variable Forward(const ag::Variable& x, const ag::Variable& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  ag::Variable w_ir_, w_iz_, w_in_;  // input->gate weights [in, hid]
  ag::Variable w_hr_, w_hz_, w_hn_;  // hidden->gate weights [hid, hid]
  ag::Variable b_r_, b_z_, b_in_, b_hn_;
};

/// Unrolled GRU over a sequence whose rows are time steps.
class GRU : public Module {
 public:
  GRU(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  /// xs: [t, input_dim]; returns all hidden states [t, hidden_dim].
  /// The initial hidden state is zero.
  ag::Variable Forward(const ag::Variable& xs) const;

  /// Convenience: just the final hidden state [1, hidden_dim].
  ag::Variable ForwardLast(const ag::Variable& xs) const;

  /// Batched masked unroll over `batch` right-aligned (front-padded)
  /// sequences in one time-major tensor: xs row t*batch + b is session b's
  /// input at step t. `step_masks[t]` is a [batch, 1] 0/1 column marking
  /// which sessions are live at step t; `step_all_valid[t]` short-circuits
  /// the masked blend on steps where every session is live. Padded steps
  /// update h by bitwise identity (SelectRowsByMask), so with front padding
  /// the state stays exactly zero until a session starts and the returned
  /// final state [batch, hidden_dim] is each session's last step — no
  /// gather needed. At batch == 1 (never padded) this computes bit-for-bit
  /// the same floats as ForwardLast.
  ag::Variable ForwardBatchedLast(
      const ag::Variable& xs, int64_t batch,
      const std::vector<Tensor>& step_masks,
      const std::vector<uint8_t>& step_all_valid) const;

  int64_t hidden_dim() const { return cell_.hidden_dim(); }

 private:
  GRUCell cell_;
};

/// Row-wise layer normalization with learned affine (gamma, beta).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim);

  ag::Variable Forward(const ag::Variable& x) const;

 private:
  ag::Variable gamma_;
  ag::Variable beta_;
};

/// Position-wise feed-forward network: max(0, x W1 + b1) W2 + b2 (Eq. 17).
class FeedForward : public Module {
 public:
  FeedForward(int64_t dim, int64_t hidden_dim, Rng* rng);

  ag::Variable Forward(const ag::Variable& x) const;

 private:
  Linear fc1_;
  Linear fc2_;
};

}  // namespace nn
}  // namespace embsr

#endif  // EMBSR_NN_LAYERS_H_
