#include "models/session_batch.h"

#include <algorithm>

#include "util/check.h"

namespace embsr {

SessionBatch CollateSessions(const std::vector<const Example*>& examples,
                             int64_t max_positions) {
  EMBSR_CHECK(!examples.empty());
  EMBSR_CHECK_GT(max_positions, 0);
  SessionBatch b;
  b.batch = static_cast<int64_t>(examples.size());
  b.examples = examples;

  b.lengths.reserve(examples.size());
  b.targets.reserve(examples.size());
  for (const Example* ex : examples) {
    EMBSR_CHECK(ex != nullptr);
    EMBSR_CHECK(!ex->macro_items.empty());
    const int64_t len = std::min(
        static_cast<int64_t>(ex->macro_items.size()), max_positions);
    b.lengths.push_back(len);
    b.targets.push_back(ex->target);
    b.max_len = std::max(b.max_len, len);
  }

  // Padded time-major layout, right-aligned: session bi occupies steps
  // [T - len, T) so its last real item is always at step T - 1.
  const int64_t t_steps = b.max_len;
  b.time_major_items.assign(
      static_cast<size_t>(t_steps * b.batch), 0);
  b.step_masks.reserve(static_cast<size_t>(t_steps));
  b.step_all_valid.reserve(static_cast<size_t>(t_steps));
  for (int64_t t = 0; t < t_steps; ++t) {
    Tensor mask({b.batch, 1});
    bool all_valid = true;
    for (int64_t bi = 0; bi < b.batch; ++bi) {
      const Example& ex = *examples[static_cast<size_t>(bi)];
      const int64_t len = b.lengths[static_cast<size_t>(bi)];
      const int64_t start = t_steps - len;  // first live step
      if (t >= start) {
        // Most recent `len` macro items, i.e. the Tail() the per-session
        // forwards take.
        const size_t pos = ex.macro_items.size() -
                           static_cast<size_t>(len) +
                           static_cast<size_t>(t - start);
        b.time_major_items[static_cast<size_t>(t * b.batch + bi)] =
            ex.macro_items[pos];
        mask.data()[bi] = 1.0f;
      } else {
        all_valid = false;
      }
    }
    b.step_masks.push_back(std::move(mask));
    b.step_all_valid.push_back(all_valid ? 1 : 0);
  }

  // Session-major flat layout: truncated sessions back to back.
  int64_t total = 0;
  for (int64_t len : b.lengths) total += len;
  b.flat_items.reserve(static_cast<size_t>(total));
  b.segment_ids.reserve(static_cast<size_t>(total));
  b.last_row_index.reserve(examples.size());
  b.inv_len_col = Tensor({b.batch, 1});
  for (int64_t bi = 0; bi < b.batch; ++bi) {
    const Example& ex = *examples[static_cast<size_t>(bi)];
    const int64_t len = b.lengths[static_cast<size_t>(bi)];
    const size_t first = ex.macro_items.size() - static_cast<size_t>(len);
    for (int64_t p = 0; p < len; ++p) {
      b.flat_items.push_back(ex.macro_items[first + static_cast<size_t>(p)]);
      b.segment_ids.push_back(bi);
    }
    b.last_row_index.push_back(
        static_cast<int64_t>(b.flat_items.size()) - 1);
    // The per-session mean's scale factor, as MeanRowsTo1xD computes it.
    b.inv_len_col.data()[bi] = 1.0f / static_cast<float>(len);
  }
  return b;
}

}  // namespace embsr
