// Gradient verification of the whole autodiff surface.
//
// Three layers of enforcement:
//  1. Every op's table case (ag::OpTable) and every composite-op and layer
//     case passes central-difference checking. The table makes op coverage
//     structural: an op without a gradcheck does not compile.
//  2. Coverage: every layer in nn/layers.h has a case — adding one without
//     a check fails here, not in a code review.
//  3. Models: every neural model in the zoo (ZooModelNames) gradchecks end
//     to end (parameters -> LossOn) on a fixed synthetic session.

#include <algorithm>
#include <string>
#include <vector>

#include "autograd/op_def.h"
#include "gtest/gtest.h"
#include "train/model_zoo.h"
#include "verify/gradcheck.h"
#include "verify/model_check.h"
#include "verify/source_scan.h"

namespace embsr {
namespace verify {
namespace {

void ExpectPasses(const std::string& what, const GradCheckResult& result) {
  EXPECT_TRUE(result.ok) << what << ": " << result.ToString();
  EXPECT_GT(result.checked_elements, 0) << what;
  EXPECT_LT(result.max_rel_error, 1e-2f) << what << ": " << result.ToString();
}

TEST(GradCheckSuite, EveryRegisteredCasePasses) {
  for (const ag::OpDef& def : ag::OpTable()) {
    ExpectPasses(std::string("op ") + def.name, CheckOpGradients(def));
  }
  const std::vector<GradCheckCase> cases = BuiltinGradCheckCases();
  ASSERT_FALSE(cases.empty());
  for (const auto& c : cases) ExpectPasses(c.kind + " " + c.name, c.run());
}

std::vector<std::string> CaseNames(const std::string& kind) {
  std::vector<std::string> names;
  for (const auto& c : BuiltinGradCheckCases()) {
    if (c.kind == kind) names.push_back(c.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(GradCheckSuite, EveryDeclaredLayerHasACase) {
  const auto declared = ScanLayerNames(EMBSR_REPO_ROOT);
  ASSERT_TRUE(declared.ok()) << declared.status().ToString();
  ASSERT_FALSE(declared.value().empty());
  const auto registered = CaseNames("layer");
  for (const std::string& name : declared.value()) {
    EXPECT_TRUE(std::binary_search(registered.begin(), registered.end(), name))
        << "layer '" << name << "' is declared in src/nn/layers.h but has no "
        << "gradient check; add a case to src/verify/cases.cc";
  }
}

TEST(GradCheckSuite, NoStaleRegistrations) {
  // The inverse direction: a layer case whose layer no longer exists means
  // the scan regex or the case list rotted.
  const auto layers = ScanLayerNames(EMBSR_REPO_ROOT);
  ASSERT_TRUE(layers.ok());
  for (const std::string& name : CaseNames("layer")) {
    EXPECT_TRUE(std::binary_search(layers.value().begin(),
                                   layers.value().end(), name))
        << "layer case '" << name << "' matches nothing in src/nn/layers.h";
  }
}

TEST(GradCheckSuite, SourceScanFindsKnownNames) {
  // Spot-check the scanner against names that must exist; guards against
  // a regex silently matching nothing (which would make the coverage tests
  // vacuously pass).
  const auto layers = ScanLayerNames(EMBSR_REPO_ROOT);
  ASSERT_TRUE(layers.ok());
  for (const char* must : {"Linear", "Embedding", "GRUCell"}) {
    EXPECT_TRUE(std::binary_search(layers.value().begin(),
                                   layers.value().end(), std::string(must)))
        << must;
  }
}

TEST(GradCheckSuite, EveryTensorKernelHasAnEquivalenceCase) {
  // Parallel-kernel coverage: every free kernel declared in tensor/tensor.h
  // must carry an EMBSR_KERNEL_EQUIV marker in tests/kernel_equiv_test.cc,
  // where it is property-tested against its frozen serial ref:: oracle at
  // several thread counts. Adding a kernel without wiring the equivalence
  // test fails here.
  const auto declared = ScanTensorKernelNames(EMBSR_REPO_ROOT);
  ASSERT_TRUE(declared.ok()) << declared.status().ToString();
  EXPECT_GE(declared.value().size(), 23u);
  for (const char* must : {"MatMul", "RowSoftmax", "SegmentSumRows",
                           "MulRowBroadcast"}) {
    EXPECT_TRUE(std::binary_search(declared.value().begin(),
                                   declared.value().end(), std::string(must)))
        << "scanner no longer finds kernel '" << must
        << "' — the regex in source_scan.cc rotted";
  }
  const auto covered = ScanKernelEquivCoverage(EMBSR_REPO_ROOT);
  ASSERT_TRUE(covered.ok()) << covered.status().ToString();
  for (const std::string& name : declared.value()) {
    EXPECT_TRUE(std::binary_search(covered.value().begin(),
                                   covered.value().end(), name))
        << "kernel '" << name << "' is declared in src/tensor/tensor.h but "
        << "has no EMBSR_KERNEL_EQUIV case in tests/kernel_equiv_test.cc";
  }
  // Inverse direction: a marker for a kernel that no longer exists means
  // the equivalence suite tests dead code.
  for (const std::string& name : covered.value()) {
    EXPECT_TRUE(std::binary_search(declared.value().begin(),
                                   declared.value().end(), name))
        << "EMBSR_KERNEL_EQUIV(" << name << ") matches no declared kernel";
  }
}

TEST(GradCheckSuite, EveryZooModelGradChecksEndToEnd) {
  GradCheckConfig config;
  config.max_elements_per_leaf = 6;  // sampled; exhaustive would be O(P) fwds
  int neural_checked = 0;
  for (const std::string& name : ZooModelNames()) {
    SCOPED_TRACE(name);
    const ModelGradCheckOutcome outcome = CheckModelGradients(name, config);
    ASSERT_TRUE(outcome.known) << "zoo name CreateModel rejects: " << name;
    if (!outcome.neural) continue;  // memory-based baseline, no gradients
    EXPECT_TRUE(outcome.result.ok) << outcome.result.ToString();
    EXPECT_LT(outcome.result.max_rel_error, 1e-2f)
        << outcome.result.ToString();
    EXPECT_GT(outcome.result.checked_elements, 0);
    ++neural_checked;
  }
  // The acceptance bar: EMBSR plus at least 3 neural baselines.
  EXPECT_GE(neural_checked, 4);
}

TEST(GradCheckSuite, DetectsASeededGradientBug) {
  // The checker itself must be falsifiable: a deliberately wrong backward
  // (scale gradient off by 2x) has to be flagged.
  Rng rng(1234);
  std::vector<ag::Variable> leaves = {
      ag::Variable(Tensor::RandUniform({2, 3}, -1.0f, 1.0f, &rng), true)};
  const GradCheckResult result = CheckGradients(
      [](const std::vector<ag::Variable>& l) {
        // loss = sum(x * detach(x)): forward computes sum(x^2), but the
        // second factor is a constant snapshot, so backward yields x where
        // the true gradient is 2x — the classic detached-factor bug.
        return ag::SumAll(ag::Mul(l[0], ag::Constant(l[0].value())));
      },
      leaves);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.failures.empty());
}

TEST(GradCheckSuite, DetectsNonDeterministicLoss) {
  Rng rng(99);
  std::vector<ag::Variable> leaves = {
      ag::Variable(Tensor::RandUniform({2, 2}, -1.0f, 1.0f, &rng), true)};
  static uint64_t call_count = 0;
  const GradCheckResult result = CheckGradients(
      [](const std::vector<ag::Variable>& l) {
        // A fresh mask every call — exactly the bug the probe exists for.
        Rng mask_rng(++call_count);
        return ag::SumAll(ag::Dropout(l[0], 0.5f, true, &mask_rng));
      },
      leaves);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures[0].find("not deterministic"), std::string::npos);
}

}  // namespace
}  // namespace verify
}  // namespace embsr
