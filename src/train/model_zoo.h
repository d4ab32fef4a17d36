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

/// The tiny zoo fixture the tape audit (src/analyze), the model gradcheck
/// (src/verify) and the batched audit (tests/batch_equiv_test.cc) build
/// every model on: 12 items, 4 operations, d = 8, 16 positions, seed 17.
constexpr int64_t kTinyZooItems = 12;
constexpr int64_t kTinyZooOperations = 4;
TrainConfig TinyZooConfig();

/// The fixture's session: five micro-behaviors on items {3, 7, 7, 5, 5}
/// with operations {1, 0, 2, 1, 3}, which merge into macro items {3, 7, 5}
/// with runs {1}, {0, 2}, {1, 3}; target 9. Every model path (GNN on the
/// item graph, op encoding, attention over positions) has work to do.
Example TinyZooExample();

/// CreateModel on the fixture's vocabulary and config.
std::unique_ptr<Recommender> CreateTinyZooModel(const std::string& name);

}  // namespace embsr

#endif  // EMBSR_TRAIN_MODEL_ZOO_H_
