#include "verify/model_check.h"

#include <memory>

#include "data/preprocess.h"
#include "models/neural_model.h"
#include "train/model_zoo.h"

namespace embsr {
namespace verify {

int64_t TinyVocabItems() { return 12; }
int64_t TinyVocabOperations() { return 4; }

Example TinyExample() {
  // Five micro-behaviors; they merge into macro items {3, 7, 5} with
  // operation runs {1}, {0, 2}, {1, 3}.
  Example ex = ExampleFromEvents({3, 7, 7, 5, 5}, {1, 0, 2, 1, 3});
  ex.target = 9;
  return ex;
}

ModelGradCheckOutcome CheckModelGradients(const std::string& name,
                                          const GradCheckConfig& config) {
  ModelGradCheckOutcome outcome;

  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_positions = 16;
  cfg.seed = 17;

  std::unique_ptr<Recommender> model =
      CreateModel(name, TinyVocabItems(), TinyVocabOperations(), cfg);
  if (model == nullptr) return outcome;
  outcome.known = true;

  auto* neural = dynamic_cast<NeuralSessionModel*>(model.get());
  if (neural == nullptr) return outcome;  // memory-based: nothing to check
  outcome.neural = true;

  // Eval mode turns dropout off, making LossOn a pure deterministic
  // function of the parameters — the precondition for central differences.
  neural->SetTraining(false);

  const Example ex = TinyExample();
  outcome.result = CheckModuleGradients(
      *neural, [neural, &ex] { return neural->LossOn(ex); }, config);
  return outcome;
}

}  // namespace verify
}  // namespace embsr
