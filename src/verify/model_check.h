#ifndef EMBSR_VERIFY_MODEL_CHECK_H_
#define EMBSR_VERIFY_MODEL_CHECK_H_

#include <string>

#include "verify/gradcheck.h"

namespace embsr {
namespace verify {

/// End-to-end gradient check of a model from the zoo: builds the model by
/// name on the tiny zoo fixture (train/model_zoo.h), evaluates LossOn its
/// session in eval mode (dropout off, so the loss is a pure function of the
/// parameters), and compares backward against central differences over a
/// sampled subset of every parameter tensor.
struct ModelGradCheckOutcome {
  /// False if CreateModel did not recognize the name.
  bool known = false;
  /// False for memory-based models (S-POP, SKNN, STAN, ...) that have no
  /// gradients to check; `result` is left trivially ok for those.
  bool neural = false;
  GradCheckResult result;
};

/// Gradient-checks the named zoo model end to end (parameters -> LossOn).
/// `config.max_elements_per_leaf` should be small (e.g. 8): exhaustive
/// central differences over every parameter of every model would cost two
/// forward passes per scalar weight.
ModelGradCheckOutcome CheckModelGradients(const std::string& name,
                                          const GradCheckConfig& config = {});

}  // namespace verify
}  // namespace embsr

#endif  // EMBSR_VERIFY_MODEL_CHECK_H_
