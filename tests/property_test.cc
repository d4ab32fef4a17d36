// Property-style randomized invariant tests, parameterized over seeds.
// Each test states an invariant that must hold for *any* input drawn from
// the generators, not a hand-picked example.

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/embsr_model.h"
#include "graph/session_graph.h"
#include "metrics/metrics.h"
#include "optim/optimizer.h"
#include "test_util.h"
#include "util/rng.h"

namespace embsr {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

TEST_P(SeededProperty, SoftmaxRowsAreDistributions) {
  const int64_t n = 1 + rng_.UniformInt(6);
  const int64_t m = 2 + rng_.UniformInt(30);
  Tensor x = Tensor::Randn({n, m}, 5.0f, &rng_);
  Tensor s = RowSoftmax(x);
  for (int64_t i = 0; i < n; ++i) {
    double sum = 0;
    for (int64_t j = 0; j < m; ++j) {
      EXPECT_GE(s.at2(i, j), 0.0f);
      sum += s.at2(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST_P(SeededProperty, SoftmaxIsShiftInvariant) {
  const int64_t m = 2 + rng_.UniformInt(10);
  Tensor x = Tensor::Randn({1, m}, 2.0f, &rng_);
  Tensor shifted = AddScalar(x, static_cast<float>(rng_.Uniform(-50, 50)));
  EXPECT_TRUE(RowSoftmax(x).AllClose(RowSoftmax(shifted), 1e-5f));
}

TEST_P(SeededProperty, MatMulDistributesOverAddition) {
  const int64_t n = 1 + rng_.UniformInt(5);
  const int64_t k = 1 + rng_.UniformInt(5);
  const int64_t m = 1 + rng_.UniformInt(5);
  Tensor a = Tensor::Randn({n, k}, 1.0f, &rng_);
  Tensor b = Tensor::Randn({k, m}, 1.0f, &rng_);
  Tensor c = Tensor::Randn({k, m}, 1.0f, &rng_);
  Tensor left = MatMul(a, Add(b, c));
  Tensor right = Add(MatMul(a, b), MatMul(a, c));
  EXPECT_TRUE(left.AllClose(right, 1e-4f));
}

TEST_P(SeededProperty, TransposeIsInvolution) {
  const int64_t n = 1 + rng_.UniformInt(8);
  const int64_t m = 1 + rng_.UniformInt(8);
  Tensor a = Tensor::Randn({n, m}, 1.0f, &rng_);
  EXPECT_TRUE(a.Transposed().Transposed().AllClose(a, 0.0f));
}

TEST_P(SeededProperty, L2NormalizedRowsHaveUnitNorm) {
  const int64_t n = 1 + rng_.UniformInt(6);
  const int64_t d = 2 + rng_.UniformInt(20);
  Tensor a = Tensor::Randn({n, d}, 2.0f, &rng_);
  Tensor norm = L2NormalizeRows(a);
  for (int64_t i = 0; i < n; ++i) {
    double acc = 0;
    for (int64_t j = 0; j < d; ++j) {
      acc += static_cast<double>(norm.at2(i, j)) * norm.at2(i, j);
    }
    EXPECT_NEAR(acc, 1.0, 1e-4);
  }
}

TEST_P(SeededProperty, MultigraphStructuralInvariants) {
  // Random macro sequence with no immediate duplicates (preprocessing
  // guarantees that), arbitrary revisits otherwise.
  const int len = 1 + static_cast<int>(rng_.UniformInt(20));
  std::vector<int64_t> seq;
  int64_t prev = -1;
  for (int i = 0; i < len; ++i) {
    int64_t item = rng_.UniformInt(8);
    if (item == prev) item = (item + 1) % 8;
    seq.push_back(item);
    prev = item;
  }
  auto g = SessionMultigraph::Build(seq);
  // One alias entry per position, so one edge per transition (edge e runs
  // alias[e] -> alias[e + 1] at order e); multi-edges preserved.
  ASSERT_EQ(g.alias().size(), seq.size());
  // Nodes are exactly the distinct items.
  std::vector<int64_t> distinct = seq;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(g.num_nodes(), static_cast<int>(distinct.size()));
  // Alias maps every position to the node holding its item, so the edge
  // at order e is the transition at position e: seq[e] -> seq[e + 1].
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(g.nodes()[g.alias()[i]], seq[i]);
  }
  // In/out degrees recounted from alias pairs match the sequence's own
  // transition counts, and each sums to the edge count.
  std::vector<int> in_deg(g.num_nodes()), out_deg(g.num_nodes());
  for (size_t e = 0; e + 1 < seq.size(); ++e) {
    ++out_deg[g.alias()[e]];
    ++in_deg[g.alias()[e + 1]];
  }
  int in_total = 0, out_total = 0;
  for (int v = 0; v < g.num_nodes(); ++v) {
    const int64_t item = g.nodes()[v];
    int in_want = 0, out_want = 0;
    for (size_t e = 0; e + 1 < seq.size(); ++e) {
      out_want += seq[e] == item;
      in_want += seq[e + 1] == item;
    }
    EXPECT_EQ(in_deg[v], in_want);
    EXPECT_EQ(out_deg[v], out_want);
    in_total += in_deg[v];
    out_total += out_deg[v];
  }
  EXPECT_EQ(in_total, static_cast<int>(seq.size()) - 1);
  EXPECT_EQ(out_total, static_cast<int>(seq.size()) - 1);
}

TEST_P(SeededProperty, RankOfTargetMatchesReferenceSort) {
  const int64_t n = 3 + rng_.UniformInt(50);
  std::vector<float> scores(n);
  for (auto& s : scores) {
    // Coarse quantization to force ties.
    s = static_cast<float>(rng_.UniformInt(6));
  }
  const int64_t target = rng_.UniformInt(n);
  // Reference: stable sort of (score desc, id asc); rank = index + 1.
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  const int expected =
      static_cast<int>(std::find(order.begin(), order.end(), target) -
                       order.begin()) +
      1;
  EXPECT_EQ(RankOfTarget(scores, target), expected);
}

TEST_P(SeededProperty, WilcoxonPValueIsAProbability) {
  const size_t n = 3 + rng_.UniformInt(100);
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng_.Normal();
    b[i] = rng_.Normal() + rng_.Uniform(-0.5, 0.5);
  }
  const double p = WilcoxonSignedRankP(a, b);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST_P(SeededProperty, OneAdamStepReducesLossOnRandomLinearModel) {
  // For a freshly initialized linear softmax classifier and any batch, a
  // small Adam step on the batch gradient must reduce the batch loss.
  const int64_t d = 4 + rng_.UniformInt(8);
  const int64_t c = 3 + rng_.UniformInt(8);
  ag::Variable w(Tensor::Randn({d, c}, 0.3f, &rng_), true);
  Tensor x = Tensor::Randn({5, d}, 1.0f, &rng_);
  std::vector<int64_t> targets(5);
  for (auto& t : targets) t = rng_.UniformInt(c);

  auto loss_fn = [&]() {
    return ag::SoftmaxCrossEntropy(ag::MatMul(ag::Constant(x), w), targets);
  };
  optim::Adam opt({w}, 1e-3f);
  const float before = loss_fn().value().at(0);
  opt.ZeroGrad();
  loss_fn().Backward();
  opt.Step();
  const float after = loss_fn().value().at(0);
  EXPECT_LT(after, before);
}

TEST_P(SeededProperty, EmbsrScoresFiniteOnRandomSessions) {
  TrainConfig cfg;
  cfg.embedding_dim = 12;
  cfg.seed = GetParam();
  EmbsrModel model("EMBSR", 40, 6, cfg);
  model.SetTraining(false);
  // Random well-formed example.
  Example ex;
  const int len = 1 + static_cast<int>(rng_.UniformInt(8));
  int64_t prev = -1;
  for (int i = 0; i < len; ++i) {
    int64_t item = rng_.UniformInt(40);
    if (item == prev) item = (item + 1) % 40;
    prev = item;
    const int k = 1 + static_cast<int>(rng_.UniformInt(3));
    std::vector<int64_t> ops;
    for (int j = 0; j < k; ++j) ops.push_back(rng_.UniformInt(6));
    ex.macro_items.push_back(item);
    ex.macro_ops.push_back(ops);
    for (int64_t op : ops) {
      ex.flat_items.push_back(item);
      ex.flat_ops.push_back(op);
    }
  }
  ex.target = rng_.UniformInt(40);
  const auto scores = model.ScoreAll(ex);
  ASSERT_EQ(scores.size(), 40u);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

}  // namespace
}  // namespace embsr
