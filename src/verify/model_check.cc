#include "verify/model_check.h"

#include <memory>

#include "models/neural_model.h"
#include "train/model_zoo.h"

namespace embsr {
namespace verify {

ModelGradCheckOutcome CheckModelGradients(const std::string& name,
                                          const GradCheckConfig& config) {
  ModelGradCheckOutcome outcome;
  std::unique_ptr<Recommender> model = CreateTinyZooModel(name);
  if (model == nullptr) return outcome;
  outcome.known = true;

  auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
  if (neural == nullptr) return outcome;  // memory-based: nothing to check
  outcome.neural = true;

  // Eval mode turns dropout off, making LossOn a pure deterministic
  // function of the parameters — the precondition for central differences.
  neural->SetTraining(false);

  const Example ex = TinyZooExample();
  outcome.result = CheckModuleGradients(
      *neural, [neural, &ex] { return neural->LossOn(ex); }, config);
  return outcome;
}

}  // namespace verify
}  // namespace embsr
