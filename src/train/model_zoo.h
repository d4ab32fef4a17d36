#ifndef EMBSR_TRAIN_MODEL_ZOO_H_
#define EMBSR_TRAIN_MODEL_ZOO_H_

#include <memory>
#include <string>
#include <vector>

#include "models/recommender.h"

namespace embsr {

/// Builds any model in the paper's comparison by name (one of
/// ZooModelNames()). Returns null for unknown names.
std::unique_ptr<Recommender> CreateModel(const std::string& name,
                                         int64_t num_items,
                                         int64_t num_operations,
                                         const TrainConfig& config);

/// Every name CreateModel builds, in zoo table order.
std::vector<std::string> ZooModelNames();

/// The twelve systems of the paper's Table III, in column order.
std::vector<std::string> Table3ModelNames();

/// The macro-behavior subset of the baselines (no operation inputs).
std::vector<std::string> MacroModelNames();

}  // namespace embsr

#endif  // EMBSR_TRAIN_MODEL_ZOO_H_
