#include "data/preprocess.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"
#include "util/rng.h"

namespace embsr {

int64_t ProcessedDataset::TotalMicroBehaviors() const {
  int64_t n = 0;
  for (const auto* split : {&train, &valid, &test}) {
    for (const auto& ex : *split) {
      n += static_cast<int64_t>(ex.flat_items.size()) + 1;  // + target event
    }
  }
  return n;
}

void MergeSuccessive(const std::vector<MicroBehavior>& events,
                     std::vector<int64_t>* macro_items,
                     std::vector<std::vector<int64_t>>* macro_ops) {
  std::vector<int64_t> items;
  std::vector<int64_t> ops;
  items.reserve(events.size());
  ops.reserve(events.size());
  for (const auto& e : events) {
    items.push_back(e.item);
    ops.push_back(e.operation);
  }
  Example ex = ExampleFromEvents(std::move(items), std::move(ops));
  *macro_items = std::move(ex.macro_items);
  *macro_ops = std::move(ex.macro_ops);
}

Example ExampleFromEvents(std::vector<int64_t> flat_items,
                          std::vector<int64_t> flat_ops) {
  EMBSR_CHECK_EQ(flat_items.size(), flat_ops.size());
  const size_t n = flat_items.size();
  // The merge rule of Sec. II-B: each maximal run of successive same-item
  // events becomes one macro item carrying the run's operations.
  size_t runs = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || flat_items[i] != flat_items[i - 1]) ++runs;
  }
  Example ex;
  ex.macro_items.reserve(runs);
  ex.macro_ops.reserve(runs);
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && flat_items[end] == flat_items[begin]) ++end;
    ex.macro_items.push_back(flat_items[begin]);
    ex.macro_ops.emplace_back(flat_ops.begin() + static_cast<ptrdiff_t>(begin),
                              flat_ops.begin() + static_cast<ptrdiff_t>(end));
    begin = end;
  }
  ex.flat_items = std::move(flat_items);
  ex.flat_ops = std::move(flat_ops);
  return ex;
}

namespace {

/// Builds an Example from a cleaned, remapped session. Returns false if the
/// session is unusable (fewer than two macro items, or empty input under the
/// operation restriction).
bool BuildExample(const std::vector<MicroBehavior>& events,
                  int64_t restrict_op, Example* out) {
  if (events.empty()) return false;
  const int64_t target = events.back().item;

  // Find where the trailing run of the target item starts; events before it
  // form the model input (Sec. II-B: predicting the next *macro* item, so
  // the target's own micro-behaviors are withheld). No events before it
  // means a single macro item.
  size_t input_end = events.size();
  while (input_end > 0 && events[input_end - 1].item == target) --input_end;
  if (input_end == 0) return false;

  std::vector<int64_t> flat_items;
  std::vector<int64_t> flat_ops;
  flat_items.reserve(input_end);
  flat_ops.reserve(input_end);
  for (size_t i = 0; i < input_end; ++i) {
    if (restrict_op >= 0 && events[i].operation != restrict_op) continue;
    flat_items.push_back(events[i].item);
    flat_ops.push_back(events[i].operation);
  }
  if (flat_items.empty()) return false;

  *out = ExampleFromEvents(std::move(flat_items), std::move(flat_ops));
  out->target = target;
  return true;
}

}  // namespace

Result<ProcessedDataset> Preprocess(const std::vector<Session>& sessions,
                                    int64_t num_operations,
                                    const PreprocessConfig& config,
                                    const std::string& name) {
  if (sessions.empty()) {
    return Status::InvalidArgument("no sessions to preprocess");
  }
  if (config.train_fraction <= 0.0 ||
      config.train_fraction + config.valid_fraction >= 1.0) {
    return Status::InvalidArgument("invalid split fractions");
  }

  // 1. Item support over all micro-behaviors.
  std::unordered_map<int64_t, int64_t> support;
  for (const auto& s : sessions) {
    for (const auto& e : s.events) ++support[e.item];
  }

  // 2. Drop low-support items; truncate long sessions to their most recent
  //    events; keep sessions that still have at least two macro items, i.e.
  //    whose events are not all on one item.
  std::vector<std::vector<MicroBehavior>> cleaned;
  cleaned.reserve(sessions.size());
  for (const auto& s : sessions) {
    std::vector<MicroBehavior> events;
    events.reserve(s.events.size());
    for (const auto& e : s.events) {
      if (support[e.item] >= config.min_item_support) events.push_back(e);
    }
    if (config.max_session_events > 0 &&
        static_cast<int>(events.size()) > config.max_session_events) {
      events.erase(events.begin(),
                   events.end() - config.max_session_events);
    }
    const bool two_items =
        std::any_of(events.begin(), events.end(), [&](const MicroBehavior& e) {
          return e.item != events.front().item;
        });
    if (!two_items) continue;  // single-item sessions are excluded
    cleaned.push_back(std::move(events));
  }
  if (cleaned.size() < 10) {
    return Status::FailedPrecondition(
        "too few usable sessions after filtering");
  }

  // 3. Split 70/10/20.
  if (config.shuffle) {
    Rng rng(config.shuffle_seed);
    rng.Shuffle(&cleaned);
  }
  const size_t n = cleaned.size();
  const size_t n_train = static_cast<size_t>(n * config.train_fraction);
  const size_t n_valid = static_cast<size_t>(n * config.valid_fraction);

  // 4. Item vocabulary from the training split only.
  std::unordered_map<int64_t, int64_t> vocab;
  for (size_t i = 0; i < n_train; ++i) {
    for (const auto& e : cleaned[i]) {
      if (!vocab.contains(e.item)) {
        const int64_t id = static_cast<int64_t>(vocab.size());
        vocab[e.item] = id;
      }
    }
  }
  if (vocab.empty()) return Status::FailedPrecondition("empty vocabulary");

  ProcessedDataset out;
  out.name = name;
  out.num_items = static_cast<int64_t>(vocab.size());
  out.num_operations = num_operations;

  auto emit_split = [&](size_t begin, size_t end, bool drop_unseen,
                        std::vector<Example>* dst) {
    for (size_t i = begin; i < end; ++i) {
      std::vector<MicroBehavior> events;
      events.reserve(cleaned[i].size());
      bool ok = true;
      for (const auto& e : cleaned[i]) {
        auto it = vocab.find(e.item);
        if (it == vocab.end()) {
          if (drop_unseen) continue;  // skip unseen item events
          ok = false;
          break;
        }
        events.push_back({it->second, e.operation});
      }
      if (!ok || events.empty()) continue;
      Example ex;
      if (BuildExample(events, config.restrict_macro_to_operation, &ex)) {
        dst->push_back(std::move(ex));
      }
    }
  };

  emit_split(0, n_train, /*drop_unseen=*/false, &out.train);
  emit_split(n_train, n_train + n_valid, /*drop_unseen=*/true, &out.valid);
  emit_split(n_train + n_valid, n, /*drop_unseen=*/true, &out.test);

  if (out.train.empty() || out.test.empty()) {
    return Status::FailedPrecondition("a split came out empty");
  }
  return out;
}

}  // namespace embsr
