#include "models/baselines_extra.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace embsr {

using ag::Variable;

// -- GRU4Rec --------------------------------------------------------------------

Gru4Rec::Gru4Rec(int64_t num_items, int64_t num_operations,
                 const TrainConfig& cfg)
    : NeuralSessionModel("GRU4Rec", num_items, num_operations, cfg),
      items_(num_items, cfg.embedding_dim, rng()),
      gru_(cfg.embedding_dim, cfg.embedding_dim, rng()) {
  RegisterModule("items", &items_);
  RegisterModule("gru", &gru_);
}

Variable Gru4Rec::BatchedLogits(const SessionBatch& batch) {
  using namespace ag;  // NOLINT
  Variable x = items_.Forward(batch.time_major_items);  // [T*B, d]
  x = Dropout(x, config().dropout, training(), rng());
  Variable h = gru_.ForwardBatchedLast(x, batch.batch, batch.step_masks,
                                       batch.step_all_valid);  // [B, d]
  return items_.Scores(h);
}

// -- FPMC -----------------------------------------------------------------------

Fpmc::Fpmc(int64_t num_items, int64_t num_operations, const TrainConfig& cfg)
    : PerSessionModel("FPMC", num_items, num_operations, cfg),
      item_to_latent_(num_items, cfg.embedding_dim, rng()),
      latent_to_item_(num_items, cfg.embedding_dim, rng()) {
  RegisterModule("item_to_latent", &item_to_latent_);
  RegisterModule("latent_to_item", &latent_to_item_);
}

Variable Fpmc::Logits(const Example& ex) {
  using namespace ag;  // NOLINT
  EMBSR_CHECK(!ex.macro_items.empty());
  Variable last = item_to_latent_.Forward({ex.macro_items.back()});
  return latent_to_item_.Scores(last);
}

// -- STAN -----------------------------------------------------------------------

Stan::Stan(int64_t num_items, int k, float lambda_recency,
           float lambda_distance)
    : num_items_(num_items),
      k_(k),
      lambda_recency_(lambda_recency),
      lambda_distance_(lambda_distance) {}

Status Stan::Fit(const ProcessedDataset& data) {
  session_seqs_.clear();
  item_to_sessions_.assign(num_items_, {});
  session_seqs_.reserve(data.train.size());
  for (const auto& ex : data.train) {
    std::vector<int64_t> seq = ex.macro_items;
    seq.push_back(ex.target);
    const int32_t sid = static_cast<int32_t>(session_seqs_.size());
    std::unordered_set<int64_t> distinct(seq.begin(), seq.end());
    for (int64_t item : distinct) {
      EMBSR_CHECK_LT(item, num_items_);
      item_to_sessions_[item].push_back(sid);
    }
    session_seqs_.push_back(std::move(seq));
  }
  return Status::OK();
}

std::vector<float> Stan::ScoreAll(const Example& ex) {
  std::vector<float> scores(num_items_, 0.0f);
  const auto& cur = ex.macro_items;
  if (cur.empty()) return scores;

  // Recency weight of each current-session item: items near the end count
  // more when measuring similarity (STAN's first extension over SKNN).
  std::unordered_map<int64_t, float> cur_weight;
  const size_t t = cur.size();
  for (size_t i = 0; i < t; ++i) {
    const float w = std::exp(-lambda_recency_ *
                             static_cast<float>(t - 1 - i));
    auto [it, inserted] = cur_weight.try_emplace(cur[i], w);
    if (!inserted) it->second = std::max(it->second, w);
  }

  // Candidate neighbours and their recency-weighted overlap.
  std::unordered_map<int32_t, float> overlap;
  for (const auto& [item, w] : cur_weight) {
    const auto& sessions = item_to_sessions_[item];
    const size_t limit = std::min<size_t>(sessions.size(), 1000);
    for (size_t i = 0; i < limit; ++i) overlap[sessions[i]] += w;
  }
  if (overlap.empty()) return scores;

  struct Neighbour {
    int32_t sid;
    float sim;
  };
  std::vector<Neighbour> neighbours;
  neighbours.reserve(overlap.size());
  for (const auto& [sid, shared] : overlap) {
    const float sim =
        shared / std::sqrt(static_cast<float>(cur.size()) *
                           static_cast<float>(session_seqs_[sid].size()));
    neighbours.push_back({sid, sim});
  }
  const size_t k = std::min<size_t>(k_, neighbours.size());
  std::partial_sort(
      neighbours.begin(), neighbours.begin() + k, neighbours.end(),
      [](const Neighbour& a, const Neighbour& b) { return a.sim > b.sim; });

  // Score neighbor items, decayed by distance from the position of the
  // *most recent shared item* in the neighbor session (second extension).
  for (size_t ni = 0; ni < k; ++ni) {
    const auto& seq = session_seqs_[neighbours[ni].sid];
    int match_pos = -1;
    // Walk the current session from its end to find the freshest match.
    for (auto it = cur.rbegin(); it != cur.rend() && match_pos < 0; ++it) {
      for (size_t p = 0; p < seq.size(); ++p) {
        if (seq[p] == *it) match_pos = static_cast<int>(p);
      }
    }
    if (match_pos < 0) continue;
    for (size_t p = 0; p < seq.size(); ++p) {
      const float dist =
          std::fabs(static_cast<float>(p) - static_cast<float>(match_pos));
      scores[seq[p]] +=
          neighbours[ni].sim * std::exp(-lambda_distance_ * dist);
    }
  }
  return scores;
}

}  // namespace embsr
