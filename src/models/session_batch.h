#ifndef EMBSR_MODELS_SESSION_BATCH_H_
#define EMBSR_MODELS_SESSION_BATCH_H_

#include <cstdint>
#include <vector>

#include "data/session.h"
#include "tensor/tensor.h"

namespace embsr {

/// A collated forward-batch of ragged sessions (session-parallel
/// mini-batching, Hidasi et al., arXiv 1511.06939). The collator emits two
/// parallel layouts so every model family can pick the one its math wants:
///
///  * Padded time-major, right-aligned: `time_major_items` row t*batch + b
///    is session b's macro item at step t, with sessions *front*-padded
///    (pad item 0) to `max_len` steps. Right alignment means a padded step
///    precedes its session's first real item, the hidden state stays
///    exactly zero through it (see GRU::ForwardBatchedLast), and every
///    session's final state lands at the last step — no end-gather needed.
///    `step_masks[t]` is a [batch, 1] 0/1 column of live sessions;
///    `step_all_valid[t]` flags steps where the mask is all ones.
///
///  * Session-major flat (no padding): `flat_items` concatenates the
///    truncated sessions back to back, `segment_ids` maps each row to its
///    session, and `last_row_index` points at each session's final row.
///    Attention models reduce over this layout with SegmentSumRows, so no
///    padded row ever exists to leak into a sum.
///
/// Sessions are truncated to their most recent `max_positions` macro items,
/// exactly like the per-session model forwards. Padding never contributes
/// to loss or gradients: the time-major path blends padded steps away by
/// bitwise row select (so grads into padded rows are exact zeros), and the
/// flat path has no padded rows at all. Each session still yields exactly
/// one logits row, so the batch loss needs no mask of its own.
struct SessionBatch {
  int64_t batch = 0;    // number of sessions B
  int64_t max_len = 0;  // padded step count T (longest truncated session)

  /// The collated examples, in batch order (borrowed pointers).
  std::vector<const Example*> examples;
  /// Truncated session lengths, in batch order.
  std::vector<int64_t> lengths;
  /// Per-session prediction targets, in batch order.
  std::vector<int64_t> targets;

  // Padded time-major layout.
  std::vector<int64_t> time_major_items;  // [T * B], pad item 0
  std::vector<Tensor> step_masks;         // T tensors of shape [B, 1]
  std::vector<uint8_t> step_all_valid;    // per step: mask all ones?

  // Session-major flat layout.
  std::vector<int64_t> flat_items;      // [sum(lengths)]
  std::vector<int64_t> segment_ids;     // row -> session, non-decreasing
  std::vector<int64_t> last_row_index;  // per session, into flat_items
  Tensor inv_len_col;                   // [B, 1] of 1 / lengths[b]
};

/// Collates `examples` (non-empty, borrowed) into a SessionBatch,
/// truncating each session to its most recent `max_positions` macro items.
SessionBatch CollateSessions(const std::vector<const Example*>& examples,
                             int64_t max_positions);

}  // namespace embsr

#endif  // EMBSR_MODELS_SESSION_BATCH_H_
