#ifndef EMBSR_VERIFY_GRADCHECK_H_
#define EMBSR_VERIFY_GRADCHECK_H_

#include <functional>
#include <string>
#include <vector>

#include "autograd/op_def.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/module.h"

namespace embsr {
namespace verify {

/// Finite-difference gradient verification for the hand-written autodiff
/// engine. Central differences: d f / d x_i ~ (f(x + eps e_i) - f(x - eps
/// e_i)) / (2 eps), compared element-wise against the analytic gradient from
/// Variable::Backward().
///
/// Everything here is float32 (the only dtype the engine has), so tolerances
/// are necessarily loose: the numeric estimate carries truncation error
/// O(eps^2) plus roundoff O(ulp(f)/eps). eps = 1e-2 balances the two for
/// values and losses of order 1; see EXPERIMENTS.md ("Gradient-check
/// tolerances") for the derivation.
struct GradCheckConfig {
  /// Central-difference step.
  float eps = 1e-2f;
  /// Maximum allowed relative error per element.
  float rel_tol = 1e-2f;
  /// Denominator floor of the relative error: errors are measured as
  /// |a - n| / max(|a|, |n|, denom_floor), so gradients much smaller than
  /// the floor are compared absolutely (float32 noise would otherwise make
  /// the ratio meaningless for near-zero gradients).
  float denom_floor = 0.05f;
  /// If > 0, check at most this many elements per leaf (deterministic
  /// sample driven by `seed`); 0 checks every element.
  int max_elements_per_leaf = 0;
  /// Seed for the element-sampling stream.
  uint64_t seed = 0x9d5eedULL;
  /// Two-step-size agreement: an element failing at `eps` is re-estimated
  /// at `eps * retry_eps_factor` and passes if the smaller step agrees.
  /// In float32 the primary step trips over activation kinks (a Relu unit
  /// flipping inside [x-eps, x+eps]) while a 4x smaller step trips over
  /// roundoff on small gradients — a genuine backward bug disagrees at
  /// both. 0 disables the retry.
  float retry_eps_factor = 0.25f;
};

struct GradCheckResult {
  bool ok = true;
  /// Largest relative error seen over all checked elements.
  float max_rel_error = 0.0f;
  /// Elements actually compared (after sampling).
  int64_t checked_elements = 0;
  /// One line per failing element (capped), e.g.
  /// "leaf 0 elem 3: analytic 1.25 numeric 0.5 rel_err 0.6".
  std::vector<std::string> failures;

  std::string ToString() const;
};

/// Builds a scalar loss from the given leaves; re-invoked once per
/// perturbation, so it must be a pure function of the leaf *values* (any
/// internal randomness must be re-seeded identically on every call).
using LossFn =
    std::function<ag::Variable(const std::vector<ag::Variable>&)>;

/// Checks d(make_loss)/d(leaf) for every leaf with requires_grad set.
GradCheckResult CheckGradients(const LossFn& make_loss,
                               std::vector<ag::Variable> leaves,
                               const GradCheckConfig& config = {});

/// Checks d(make_loss)/d(parameter) for every trainable parameter of
/// `module`. `make_loss` reads the module directly; perturbations are
/// applied through the module's parameter handles.
GradCheckResult CheckModuleGradients(
    const nn::Module& module, const std::function<ag::Variable()>& make_loss,
    const GradCheckConfig& config = {});

/// Checks one op through its table entry's gradcheck (ag::GradCheckDef):
/// leaves from `inputs`, loss SumAll(Mul(apply(leaves), w)) with w a fixed
/// random tensor shaped like the op's output.
GradCheckResult CheckOpGradients(const ag::OpDef& def);

/// A gradient check that is not a table op: a composite op from ops.h that
/// lowers to table ops, or a layer class from nn/layers.h. `name` is the
/// declared name, which is what the layer coverage test compares.
struct GradCheckCase {
  std::string kind;  // "composite" or "layer"
  std::string name;
  GradCheckResult (*run)();
};

/// The composite-op and layer cases (verify/cases.cc).
std::vector<GradCheckCase> BuiltinGradCheckCases();

}  // namespace verify
}  // namespace embsr

#endif  // EMBSR_VERIFY_GRADCHECK_H_
