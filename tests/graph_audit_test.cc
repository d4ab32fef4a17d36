// Structural audit of every zoo model's autograd graph (src/analyze).
//
// Two layers of enforcement, mirroring gradcheck_test.cc:
//  1. Every zoo model (ZooModelNames) passes its audit with no allowance
//     of any kind: all trainable parameters reach the loss, every trainable
//     leaf is a registered parameter, accumulation counts match graph
//     fan-out, no orphaned ops, no aliased parameters, every op node passes
//     its shape rule, and the memory profiler's measured peak lies between
//     the graph's recorded bytes and 1.5x that. The zoo table is the only
//     model list, so a new model is audited the moment it is added. The
//     Fig. 6 fixed-beta variant, which is not in the zoo, is audited too.
//  2. Seeded mutants: a deliberately miswired model (disconnected
//     embedding, unregistered trainable weight, double-accumulating
//     backward, dropped op output, aliased parameter, wrong-shaped op
//     output) must be *detected* — the auditor's alarm actually rings.

#include <memory>
#include <string>
#include <vector>

#include "analyze/graph_dump.h"
#include "analyze/model_audits.h"
#include "analyze/tape_audit.h"
#include "autograd/op_def.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "core/embsr_model.h"
#include "gtest/gtest.h"
#include "models/neural_model.h"
#include "train/model_zoo.h"

namespace embsr {
namespace analyze {
namespace {

// ---- 1. Every zoo model passes ---------------------------------------------

TEST(GraphAudit, EveryZooModelPassesItsTapeAudit) {
  int neural_audited = 0;
  for (const std::string& name : ZooModelNames()) {
    const ModelAuditOutcome outcome = RunModelAudit(name);
    ASSERT_TRUE(outcome.known) << name;
    if (!outcome.neural) continue;
    ++neural_audited;
    EXPECT_TRUE(outcome.report.ok())
        << name << ": " << outcome.report.ToString();
    EXPECT_GT(outcome.report.stats.reachable_nodes, 0) << name;
    EXPECT_GT(outcome.report.stats.parameters, 0) << name;
    EXPECT_GT(outcome.report.stats.shapes_checked, 0) << name;
    EXPECT_GT(outcome.report.stats.recorded_bytes, 0) << name;
  }
  EXPECT_EQ(neural_audited, 21);
}

// Fig. 6's fixed-beta variant replaces the Eq. 18 gate by a constant, so
// its fusion layer is unwired; it must register only what it uses.
TEST(GraphAudit, FixedBetaVariantPassesItsTapeAudit) {
  EmbsrModel model("EMBSR-beta0.3", kTinyZooItems, kTinyZooOperations,
                   TinyZooConfig(), EmbsrVariants::FixedBeta(0.3f));
  const TapeAuditReport report = AuditModel(&model);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---- 2. Seeded mutants: the alarm must ring -------------------------------

/// A deliberately miswired model: registers an item table AND an operation
/// table, but Logits never touches the operation table — exactly the
/// silent dead-embedding failure the auditor exists to catch.
class DisconnectedOpsModel : public PerSessionModel {
 public:
  DisconnectedOpsModel(int64_t num_items, int64_t num_ops,
                       const TrainConfig& cfg)
      : PerSessionModel("DisconnectedOps", num_items, num_ops, cfg) {
    items_ = RegisterParameter(
        "items", Tensor::Randn({num_items, cfg.embedding_dim}, 0.1f, rng()));
    ops_ = RegisterParameter(
        "ops", Tensor::Randn({num_ops, cfg.embedding_dim}, 0.1f, rng()));
    proj_ = RegisterParameter(
        "proj",
        Tensor::Randn({cfg.embedding_dim, num_items}, 0.1f, rng()));
  }

 protected:
  ag::Variable Logits(const Example& ex) override {
    ag::Variable rows = ag::GatherRows(items_, ex.macro_items);
    ag::Variable pooled = ag::MeanRowsTo1xD(rows);
    return ag::MatMul(pooled, proj_);  // ops_ never consulted
  }

 private:
  ag::Variable items_, ops_, proj_;
};

TEST(GraphAudit, DetectsDisconnectedEmbedding) {
  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.seed = 17;
  DisconnectedOpsModel model(12, 4, cfg);
  model.SetTraining(false);

  Example ex;
  ex.macro_items = {3, 7, 5};
  ex.target = 9;

  ag::Tape tape;
  ag::Variable loss = model.LossOn(ex);
  loss.Backward();
  const TapeAuditReport report =
      AuditTape(loss, model.NamedParameters(), tape);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const std::string& f : report.failures) {
    found = found || f.find("dead parameter 'ops'") != std::string::npos;
  }
  EXPECT_TRUE(found) << report.ToString();
}

/// A deliberately miswired model: its bias is a trainable leaf that the
/// loss reaches, but it was never registered, so no optimizer would step
/// it and no checkpoint would save it.
class UnregisteredBiasModel : public PerSessionModel {
 public:
  UnregisteredBiasModel(int64_t num_items, const TrainConfig& cfg)
      : PerSessionModel("UnregisteredBias", num_items, 1, cfg),
        bias_(Tensor::Zeros({1, num_items}), /*requires_grad=*/true) {
    items_ = RegisterParameter(
        "items", Tensor::Randn({num_items, cfg.embedding_dim}, 0.1f, rng()));
    proj_ = RegisterParameter(
        "proj",
        Tensor::Randn({cfg.embedding_dim, num_items}, 0.1f, rng()));
  }

 protected:
  ag::Variable Logits(const Example& ex) override {
    ag::Variable pooled =
        ag::MeanRowsTo1xD(ag::GatherRows(items_, ex.macro_items));
    return ag::Add(ag::MatMul(pooled, proj_), bias_);
  }

 private:
  ag::Variable items_, proj_;
  ag::Variable bias_;  // trainable, never registered
};

TEST(GraphAudit, DetectsUnregisteredTrainableLeaf) {
  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.seed = 17;
  UnregisteredBiasModel model(12, cfg);
  model.SetTraining(false);

  Example ex;
  ex.macro_items = {3, 7, 5};
  ex.target = 9;

  ag::Tape tape;
  ag::Variable loss = model.LossOn(ex);
  loss.Backward();
  const TapeAuditReport report =
      AuditTape(loss, model.NamedParameters(), tape);
  ASSERT_EQ(report.failures.size(), 1u) << report.ToString();
  EXPECT_NE(report.failures[0].find("unregistered leaf producing [1, 12]"),
            std::string::npos)
      << report.ToString();
}

TEST(GraphAudit, DetectsDoubleAccumulation) {
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 2}, 1.0f), /*requires_grad=*/true);
  // A test-local table entry; the auditor reads its name and runs its
  // shape rule, which accepts any shape.
  static const ag::OpDef kBuggyOp{
      ag::OpId::kCount, "BuggyOp",
      [](const ag::Node&) { return std::string(); }, nullptr,
      {nullptr, nullptr}};
  // Hand-built op whose backward accumulates into its parent twice — the
  // kind of bug a refactored backward_fn can introduce silently, since the
  // doubled gradient still has the right shape.
  auto buggy = std::make_shared<ag::Node>();
  buggy->def = &kBuggyOp;
  buggy->value = Tensor::Scalar(4.0f);
  buggy->requires_grad = true;
  buggy->parents = {x.node()};
  auto xn = x.node();
  buggy->backward_fn = [xn](ag::Node* o) {
    xn->AccumulateGrad(Tensor::Full(xn->value.shape(), o->grad.at(0)));
    xn->AccumulateGrad(Tensor::Full(xn->value.shape(), o->grad.at(0)));
  };
  ag::Variable root = ag::Variable::FromNode(buggy);
  root.Backward();

  const TapeAuditReport report =
      AuditTape(root, {{"x", x}}, tape);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const std::string& f : report.failures) {
    found =
        found || f.find("gradient accumulation mismatch") != std::string::npos;
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST(GraphAudit, DetectsOrphanedOp) {
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 2}, 2.0f), /*requires_grad=*/true);
  ag::Variable y = ag::Mul(x, x);
  { ag::Variable dropped = ag::Exp(y); }  // computed, then forgotten
  ag::Variable loss = ag::SumAll(y);
  loss.Backward();

  const TapeAuditReport report = AuditTape(loss, {{"x", x}}, tape);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const std::string& f : report.failures) {
    found = found || f.find("orphaned op 'Exp'") != std::string::npos;
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST(GraphAudit, DetectsAliasedParameters) {
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 2}, 1.0f), /*requires_grad=*/true);
  ag::Variable loss = ag::SumAll(ag::Mul(x, x));
  loss.Backward();

  const TapeAuditReport report =
      AuditTape(loss, {{"a", x}, {"b", x}}, tape);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].find("aliased parameters"), std::string::npos)
      << report.ToString();
}

TEST(GraphAudit, DetectsShapeRuleViolation) {
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 3}, 0.5f), /*requires_grad=*/true);
  ag::Variable y = ag::Mul(x, x);
  ag::Variable loss = ag::SumAll(y);
  loss.Backward();
  ASSERT_TRUE(AuditTape(loss, {{"x", x}}, tape).ok());

  // Corrupt the recorded output in place: [2,3] * [2,3] -> [2,2] is the
  // inconsistency class the shape rules exist to catch.
  y.node()->value = Tensor::Zeros({2, 2});
  const TapeAuditReport report = AuditTape(loss, {{"x", x}}, tape);
  ASSERT_EQ(report.failures.size(), 1u) << report.ToString();
  EXPECT_NE(report.failures[0].find("op 'Mul'"), std::string::npos)
      << report.ToString();
}

// ---- Clean graphs, stats and dumps ----------------------------------------

TEST(GraphAudit, CleanGraphAuditsCleanWithExactStats) {
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 3}, 0.5f), /*requires_grad=*/true);
  ag::Variable y = ag::Tanh(ag::Mul(x, x));
  ag::Variable loss = ag::SumAll(y);
  loss.Backward();

  const TapeAuditReport report = AuditTape(loss, {{"x", x}}, tape);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.stats.tape_nodes, 4);  // leaf, Mul, Tanh, SumAll
  EXPECT_EQ(report.stats.reachable_nodes, 4);
  // Mul has two parent edges (x twice, with multiplicity), Tanh and SumAll
  // one each.
  EXPECT_EQ(report.stats.edges, 4);
  EXPECT_EQ(report.stats.parameters, 1);
  EXPECT_EQ(report.stats.parameter_scalars, 6);
  EXPECT_EQ(report.stats.op_histogram.at("Mul"), 1);
  EXPECT_EQ(report.stats.op_histogram.at("leaf"), 1);
  EXPECT_EQ(report.stats.shapes_checked, 3);  // Mul, Tanh, SumAll
  // Three [2,3] values and the scalar loss, each with its gradient.
  EXPECT_EQ(report.stats.recorded_bytes, 152);
}

TEST(GraphAudit, PreTapeParameterRecordsOnlyItsGradient) {
  ag::Variable w(Tensor::Full({2, 3}, 0.5f), /*requires_grad=*/true);
  ag::Tape tape;  // opened after w, as a model's parameters are
  ag::Variable loss = ag::SumAll(ag::Mul(w, w));
  loss.Backward();

  const TapeAuditReport report = AuditTape(loss, {{"w", w}}, tape);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.stats.tape_nodes, 2);  // Mul, SumAll
  // Mul's [2,3] value and the scalar loss, each with its gradient, plus
  // w's gradient; w's value was allocated before the pass.
  EXPECT_EQ(report.stats.recorded_bytes, 80);
}

TEST(GraphAudit, SharedSubexpressionFanOutCounted) {
  // z = x*x used twice: z's fan-out is 2, x's is 2 (multiplicity in Mul).
  ag::Tape tape;
  ag::Variable x(Tensor::Full({2, 2}, 1.5f), /*requires_grad=*/true);
  ag::Variable z = ag::Mul(x, x);
  ag::Variable loss = ag::SumAll(ag::Add(z, z));
  loss.Backward();
  EXPECT_EQ(z.node()->accum_count, 2);
  const TapeAuditReport report = AuditTape(loss, {{"x", x}}, tape);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(GraphAudit, DotAndJsonDumpsRenderTheGraph) {
  ag::Variable x(Tensor::Full({2, 2}, 1.0f), /*requires_grad=*/true);
  ag::Variable loss = ag::SumAll(ag::Relu(x));

  const std::vector<nn::NamedParameter> params = {{"weights/x", x}};
  const std::string dot = ToDot(loss, params);
  EXPECT_NE(dot.find("digraph autograd"), std::string::npos);
  EXPECT_NE(dot.find("SumAll"), std::string::npos);
  EXPECT_NE(dot.find("weights/x"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);

  const std::string json = ToJson(loss, params);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"op\":\"Relu\""), std::string::npos);
  EXPECT_NE(json.find("\"param\":\"weights/x\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\":"), std::string::npos);
}

TEST(GraphAudit, TapeScopesNestAndRestore) {
  EXPECT_EQ(ag::Tape::Active(), nullptr);
  ag::Tape outer;
  EXPECT_EQ(ag::Tape::Active(), &outer);
  ag::Variable a(Tensor::Scalar(1.0f));
  {
    ag::Tape inner;
    EXPECT_EQ(ag::Tape::Active(), &inner);
    ag::Variable b(Tensor::Scalar(2.0f));
    EXPECT_EQ(inner.nodes().size(), 1u);  // only b
  }
  EXPECT_EQ(ag::Tape::Active(), &outer);
  EXPECT_EQ(outer.nodes().size(), 1u);  // only a; inner recorded b
}

}  // namespace
}  // namespace analyze
}  // namespace embsr
