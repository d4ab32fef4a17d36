#include "train/model_zoo.h"

#include "core/embsr_model.h"
#include "data/preprocess.h"
#include "models/baselines_gnn.h"
#include "models/baselines_extra.h"
#include "models/baselines_nonneural.h"
#include "models/baselines_seq.h"

namespace embsr {

namespace {

using Factory = std::unique_ptr<Recommender> (*)(const std::string& name,
                                                 int64_t num_items,
                                                 int64_t num_operations,
                                                 const TrainConfig& config);

/// Memory-based baselines: no operations, no training config.
template <typename Model>
std::unique_ptr<Recommender> MemoryBased(const std::string&, int64_t num_items,
                                         int64_t, const TrainConfig&) {
  return std::make_unique<Model>(num_items);
}

template <typename Model>
std::unique_ptr<Recommender> Neural(const std::string&, int64_t num_items,
                                    int64_t num_operations,
                                    const TrainConfig& config) {
  return std::make_unique<Model>(num_items, num_operations, config);
}

/// EMBSR and its ablation variants, named after their table entry.
template <EmbsrConfig (*Variant)()>
std::unique_ptr<Recommender> Embsr(const std::string& name, int64_t num_items,
                                   int64_t num_operations,
                                   const TrainConfig& config) {
  return std::make_unique<EmbsrModel>(name, num_items, num_operations, config,
                                      Variant());
}

struct ZooEntry {
  const char* name;
  Factory make;
};

constexpr ZooEntry kZoo[] = {
    {"S-POP", MemoryBased<SPop>},
    {"SKNN", MemoryBased<Sknn>},
    {"NARM", Neural<Narm>},
    {"STAMP", Neural<Stamp>},
    {"SR-GNN", Neural<SrGnn>},
    {"GC-SAN", Neural<GcSan>},
    {"BERT4Rec", Neural<Bert4Rec>},
    {"SGNN-HN", Neural<SgnnHn>},
    {"RIB", Neural<Rib>},
    {"HUP", Neural<Hup>},
    {"MKM-SR", Neural<MkmSr>},
    {"GRU4Rec", Neural<Gru4Rec>},
    {"FPMC", Neural<Fpmc>},
    {"STAN", MemoryBased<Stan>},
    {"EMBSR", Embsr<EmbsrVariants::Full>},
    {"EMBSR-NS", Embsr<EmbsrVariants::NoSelfAttention>},
    {"EMBSR-NG", Embsr<EmbsrVariants::NoGnn>},
    {"EMBSR-NF", Embsr<EmbsrVariants::NoFusionGate>},
    {"SGNN-Self", Embsr<EmbsrVariants::SgnnSelf>},
    {"SGNN-Seq-Self", Embsr<EmbsrVariants::SgnnSeqSelf>},
    {"RNN-Self", Embsr<EmbsrVariants::RnnSelf>},
    {"SGNN-Abs-Self", Embsr<EmbsrVariants::SgnnAbsSelf>},
    {"SGNN-Dyadic", Embsr<EmbsrVariants::SgnnDyadic>},
    {"EMBSR-W", Embsr<EmbsrVariants::WeightedOps>},
};

}  // namespace

std::unique_ptr<Recommender> CreateModel(const std::string& name,
                                         int64_t num_items,
                                         int64_t num_operations,
                                         const TrainConfig& config) {
  for (const ZooEntry& entry : kZoo) {
    if (name == entry.name) {
      return entry.make(name, num_items, num_operations, config);
    }
  }
  return nullptr;
}

std::vector<std::string> ZooModelNames() {
  std::vector<std::string> names;
  for (const ZooEntry& entry : kZoo) names.push_back(entry.name);
  return names;
}

std::vector<std::string> Table3ModelNames() {
  return {"S-POP", "SKNN",     "NARM", "STAMP", "SR-GNN", "GC-SAN",
          "BERT4Rec", "SGNN-HN", "RIB",  "HUP",   "MKM-SR", "EMBSR"};
}

std::vector<std::string> MacroModelNames() {
  return {"S-POP", "SKNN",     "NARM",   "STAMP",
          "SR-GNN", "GC-SAN", "BERT4Rec", "SGNN-HN"};
}

TrainConfig TinyZooConfig() {
  TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_positions = 16;
  cfg.seed = 17;
  return cfg;
}

Example TinyZooExample() {
  Example ex = ExampleFromEvents({3, 7, 7, 5, 5}, {1, 0, 2, 1, 3});
  ex.target = 9;
  return ex;
}

std::unique_ptr<Recommender> CreateTinyZooModel(const std::string& name) {
  return CreateModel(name, kTinyZooItems, kTinyZooOperations,
                     TinyZooConfig());
}

}  // namespace embsr
