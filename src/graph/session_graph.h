#ifndef EMBSR_GRAPH_SESSION_GRAPH_H_
#define EMBSR_GRAPH_SESSION_GRAPH_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace embsr {

/// The directed multigraph a session is converted into (paper Sec. IV-B-1,
/// Fig. 3, "the second way").
///
/// Nodes are the *distinct* items of the macro sequence, in order of first
/// appearance, and `alias()[i]` is the node of macro position i. Every
/// transition v^i -> v^{i+1} is its own edge: edge e runs
/// alias[e] -> alias[e + 1] and carries the order e, so the message passed
/// along it can use the micro-operation sequence the source item had *at
/// that position* — exactly what a collapsed weighted graph (Fig. 3's first
/// way) loses. A session of n macro items has n - 1 edges, repeated
/// transitions kept as separate edges; the alias is the whole edge list.
/// The star node of SGNN-HN is implicit: it is handled by the model, not
/// stored here, because it connects to every satellite bidirectionally.
class SessionMultigraph {
 public:
  /// Builds the multigraph of a macro-item sequence.
  static SessionMultigraph Build(const std::vector<int64_t>& macro_items);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Distinct items, indexable by node id.
  const std::vector<int64_t>& nodes() const { return nodes_; }

  /// Maps each macro-sequence position to its node index, in the index type
  /// GatherRows and SegmentSumRows take.
  const std::vector<int64_t>& alias() const { return alias_; }

 private:
  std::vector<int64_t> nodes_;
  std::vector<int64_t> alias_;
};

/// The collapsed weighted session graph of SR-GNN (Fig. 3's first way):
/// row-normalized in/out adjacency over distinct items. Returned matrices
/// are [n, n] with n = number of distinct items; `nodes` and `alias` are
/// the multigraph's.
struct SrgnnAdjacency {
  std::vector<int64_t> nodes;
  std::vector<int64_t> alias;
  Tensor a_in;
  Tensor a_out;
};

SrgnnAdjacency BuildSrgnnAdjacency(const std::vector<int64_t>& macro_items);

}  // namespace embsr

#endif  // EMBSR_GRAPH_SESSION_GRAPH_H_
