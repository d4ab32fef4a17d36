#include "graph/session_graph.h"

#include <unordered_map>

#include "util/check.h"

namespace embsr {

SessionMultigraph SessionMultigraph::Build(
    const std::vector<int64_t>& macro_items) {
  EMBSR_CHECK(!macro_items.empty());
  SessionMultigraph g;
  std::unordered_map<int64_t, int64_t> index;
  g.alias_.reserve(macro_items.size());
  for (int64_t item : macro_items) {
    auto [it, inserted] = index.try_emplace(
        item, static_cast<int64_t>(g.nodes_.size()));
    if (inserted) g.nodes_.push_back(item);
    g.alias_.push_back(it->second);
  }
  return g;
}

SrgnnAdjacency BuildSrgnnAdjacency(const std::vector<int64_t>& macro_items) {
  const SessionMultigraph graph = SessionMultigraph::Build(macro_items);
  SrgnnAdjacency adj;
  adj.nodes = graph.nodes();
  adj.alias = graph.alias();
  const int64_t n = graph.num_nodes();
  Tensor counts_out({n, n});
  for (size_t e = 0; e + 1 < adj.alias.size(); ++e) {
    counts_out.at2(adj.alias[e], adj.alias[e + 1]) += 1.0f;
  }
  // Row-normalize outgoing counts; incoming matrix is the transpose of the
  // counts, row-normalized over *incoming* degree (as in SR-GNN).
  adj.a_out = Tensor({n, n});
  adj.a_in = Tensor({n, n});
  Tensor counts_in = counts_out.Transposed();
  for (int64_t i = 0; i < n; ++i) {
    float out_deg = 0.0f, in_deg = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      out_deg += counts_out.at2(i, j);
      in_deg += counts_in.at2(i, j);
    }
    for (int64_t j = 0; j < n; ++j) {
      if (out_deg > 0.0f) {
        adj.a_out.at2(i, j) = counts_out.at2(i, j) / out_deg;
      }
      if (in_deg > 0.0f) {
        adj.a_in.at2(i, j) = counts_in.at2(i, j) / in_deg;
      }
    }
  }
  return adj;
}

}  // namespace embsr
