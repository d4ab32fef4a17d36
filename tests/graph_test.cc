#include "graph/session_graph.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "par/thread_pool.h"
#include "util/rng.h"

namespace embsr {
namespace {

/// The transitions of a multigraph, read off its alias: edge e runs
/// alias[e] -> alias[e + 1].
std::vector<std::pair<int64_t, int64_t>> Edges(const SessionMultigraph& g) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (size_t e = 0; e + 1 < g.alias().size(); ++e) {
    edges.emplace_back(g.alias()[e], g.alias()[e + 1]);
  }
  return edges;
}

TEST(SessionMultigraphTest, PaperFigure3Construction) {
  // S^v = {v1, v2, v3, v2, v3, v4} (Fig. 3, second construction).
  const std::vector<int64_t> seq = {1, 2, 3, 2, 3, 4};
  auto g = SessionMultigraph::Build(seq);
  EXPECT_EQ(g.num_nodes(), 4);  // distinct: v1 v2 v3 v4
  EXPECT_EQ(Edges(g).size(), 5u);  // one edge per transition, multi-edges kept
  EXPECT_EQ(g.nodes(), (std::vector<int64_t>{1, 2, 3, 4}));
  // alias maps positions to node ids.
  EXPECT_EQ(g.alias(), (std::vector<int64_t>{0, 1, 2, 1, 2, 3}));
}

TEST(SessionMultigraphTest, EdgesPreserveOrderAttribute) {
  // Edge e is the transition at position e, so the order attribute is the
  // edge index and repeated transitions stay distinct edges.
  const auto edges = Edges(SessionMultigraph::Build({1, 2, 3, 2, 3, 4}));
  ASSERT_EQ(edges.size(), 5u);
  using E = std::pair<int64_t, int64_t>;
  EXPECT_EQ(edges[0], E(0, 1));  // v1 -> v2 at position 0
  EXPECT_EQ(edges[1], E(1, 2));  // v2 -> v3 at position 1
  EXPECT_EQ(edges[2], E(2, 1));  // v3 -> v2 at position 2
  EXPECT_EQ(edges[3], E(1, 2));  // the second v2 -> v3, at position 3
  EXPECT_EQ(edges[4], E(2, 3));  // v3 -> v4 at position 4
}

TEST(SessionMultigraphTest, InOutDegreesFromAliasPairs) {
  const auto g = SessionMultigraph::Build({1, 2, 3, 2, 3, 4});
  std::vector<int> in_deg(g.num_nodes()), out_deg(g.num_nodes());
  for (const auto& [src, dst] : Edges(g)) {
    ++out_deg[src];
    ++in_deg[dst];
  }
  // Node 2 (= item v3) has two incoming edges (both from v2) and two
  // outgoing (to v2 and to v4); node 0 (= v1) has no incoming, one
  // outgoing; node 3 (= v4) is terminal.
  EXPECT_EQ(in_deg, (std::vector<int>{0, 2, 2, 1}));
  EXPECT_EQ(out_deg, (std::vector<int>{1, 2, 2, 0}));
}

TEST(SessionMultigraphTest, SingleItemSession) {
  auto g = SessionMultigraph::Build({7});
  EXPECT_EQ(g.num_nodes(), 1);
  EXPECT_TRUE(Edges(g).empty());
  EXPECT_EQ(g.alias(), (std::vector<int64_t>{0}));
}

TEST(SessionMultigraphTest, RepeatedItemIsOneNode) {
  auto g = SessionMultigraph::Build({5, 9, 5, 9, 5});
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(Edges(g).size(), 4u);
  // Self-transitions never occur (successive duplicates are merged
  // upstream), but a cycle 5->9->5 is fine.
  for (const auto& [src, dst] : Edges(g)) EXPECT_NE(src, dst);
}

TEST(SrgnnAdjacencyTest, RowNormalization) {
  auto adj = BuildSrgnnAdjacency({1, 2, 3, 2, 3, 4});
  const int64_t n = static_cast<int64_t>(adj.nodes.size());
  ASSERT_EQ(n, 4);
  for (int64_t i = 0; i < n; ++i) {
    float out_sum = 0.0f, in_sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      out_sum += adj.a_out.at2(i, j);
      in_sum += adj.a_in.at2(i, j);
      EXPECT_GE(adj.a_out.at2(i, j), 0.0f);
      EXPECT_GE(adj.a_in.at2(i, j), 0.0f);
    }
    // Rows with any outgoing/incoming edges sum to 1; others to 0.
    EXPECT_TRUE(std::abs(out_sum - 1.0f) < 1e-5 || out_sum == 0.0f);
    EXPECT_TRUE(std::abs(in_sum - 1.0f) < 1e-5 || in_sum == 0.0f);
  }
}

TEST(SrgnnAdjacencyTest, CollapsesMultiEdges) {
  // v2 -> v3 occurs twice; the collapsed graph weights, it does not
  // duplicate: out row of v2 has v3 at 2/3 and v... wait: v2's outgoing
  // transitions are v3 (twice). From seq {1,2,3,2,3,4}: v2 -> v3 twice,
  // so out(v2) = {v3: 1.0}.
  auto adj = BuildSrgnnAdjacency({1, 2, 3, 2, 3, 4});
  const int v2 = 1, v3 = 2, v4 = 3;
  EXPECT_FLOAT_EQ(adj.a_out.at2(v2, v3), 1.0f);
  // v3's outgoing: to v2 once, to v4 once -> 0.5 each.
  EXPECT_FLOAT_EQ(adj.a_out.at2(v3, v2), 0.5f);
  EXPECT_FLOAT_EQ(adj.a_out.at2(v3, v4), 0.5f);
}

TEST(SrgnnAdjacencyTest, AliasMatchesMultigraph) {
  const std::vector<int64_t> seq = {4, 2, 4, 7};
  auto adj = BuildSrgnnAdjacency(seq);
  auto g = SessionMultigraph::Build(seq);
  EXPECT_EQ(adj.alias, g.alias());
  EXPECT_EQ(adj.nodes, g.nodes());
}

// EMBSR sums each node's edge messages with SegmentSumRows over the alias
// (core/embsr_model.cc) where it once multiplied them by a dense 0/1 scatter
// matrix S [nodes, edges], S[node, e] = 1 iff edge e ends (in-messages) or
// starts (out-messages) at the node. Both add each message to 0.0f in
// ascending edge order, so they agree bit for bit, forward and in the
// gradient into the messages; this pins that, on multigraphs with repeated
// transitions, a node without in-edges and a single transition.

Tensor ScatterMatrix(int64_t num_nodes, const std::vector<int64_t>& node_of) {
  Tensor s({num_nodes, static_cast<int64_t>(node_of.size())});
  for (size_t e = 0; e < node_of.size(); ++e) {
    s.at2(node_of[e], static_cast<int64_t>(e)) = 1.0f;
  }
  return s;
}

struct SumResult {
  Tensor out;
  Tensor msg_grad;
};

/// Sums `msg` per node with `sum` and backs a weighted sum of the result.
template <typename SumFn>
SumResult SumAndBackward(const Tensor& msg, const Tensor& w, SumFn sum) {
  ag::Variable leaf(msg, /*requires_grad=*/true);
  ag::Variable out = sum(leaf);
  ag::SumAll(ag::Mul(out, ag::Constant(w))).Backward();
  return {out.value(), leaf.GradOrZeros()};
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

TEST(MultigraphMessageSum, SegmentSumEqualsScatterMatMulBitwise) {
  std::vector<std::vector<int64_t>> sessions = {
      {1, 2, 3, 2, 3, 4},  // v2 -> v3 twice; v1 has no in-edges
      {5, 9},              // a single transition
  };
  // Seeded walks with no immediate repeats: 40 steps over 6 items revisit
  // transitions often; 200 steps over 40 items give the dense MatMul, and
  // its backward, enough rows to split across chunks at 4 lanes.
  Rng rng(20261019);
  for (const auto& [steps, items] : {std::pair<size_t, uint64_t>{40, 6},
                                     {40, 6}, {200, 40}, {200, 40}}) {
    std::vector<int64_t> seq = {static_cast<int64_t>(rng.UniformInt(items))};
    while (seq.size() < steps) {
      const int64_t next = static_cast<int64_t>(rng.UniformInt(items));
      if (next != seq.back()) seq.push_back(next);
    }
    sessions.push_back(seq);
  }
  constexpr int64_t kDim = 64;
  for (const int lanes : {1, 4}) {
    par::SetThreadCount(lanes);
    for (const auto& seq : sessions) {
      const SessionMultigraph g = SessionMultigraph::Build(seq);
      const std::vector<int64_t>& alias = g.alias();
      const int64_t c = g.num_nodes();
      const std::vector<int64_t> src(alias.begin(), alias.end() - 1);
      const std::vector<int64_t> dst(alias.begin() + 1, alias.end());
      for (const auto* node_of : {&dst, &src}) {
        SCOPED_TRACE("session of " + std::to_string(seq.size()) + " at " +
                     std::to_string(lanes) + " lanes, " +
                     (node_of == &dst ? "in" : "out") + "-messages");
        const int64_t edges = static_cast<int64_t>(node_of->size());
        const Tensor msg = Tensor::RandUniform({edges, kDim}, -1, 1, &rng);
        const Tensor w = Tensor::RandUniform({c, kDim}, -1, 1, &rng);
        const SumResult seg = SumAndBackward(msg, w, [&](const auto& m) {
          return ag::SegmentSumRows(m, *node_of, c);
        });
        const SumResult dense = SumAndBackward(msg, w, [&](const auto& m) {
          return ag::MatMul(ag::Constant(ScatterMatrix(c, *node_of)), m);
        });
        EXPECT_TRUE(SameBits(seg.out, dense.out));
        EXPECT_TRUE(SameBits(seg.msg_grad, dense.msg_grad));
      }
    }
  }
  par::SetThreadCount(0);
}

}  // namespace
}  // namespace embsr
