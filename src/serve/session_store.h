#ifndef EMBSR_SERVE_SESSION_STORE_H_
#define EMBSR_SERVE_SESSION_STORE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "data/session.h"
#include "util/status.h"

namespace embsr {
namespace serve {

/// One live session: its micro-behavior run, as parallel item and operation
/// columns. The model input is built from the run on demand by
/// ExampleFromEvents (data/preprocess.h), the same function preprocessing
/// uses, so the store holds no second view of the session to keep in step.
struct SessionState {
  std::vector<int64_t> flat_items;
  std::vector<int64_t> flat_ops;
  /// Store-logical recency stamp for LRU eviction. Not serialized: snapshot
  /// bytes depend only on session *content*, so snapshot→restore→snapshot
  /// round-trips bit-for-bit.
  uint64_t last_touch = 0;

  /// Appends one micro-behavior to the run.
  void Append(const MicroBehavior& ev);

  /// While more than `max_flat_events` events remain and more than one
  /// same-item run is left, drops the oldest run. Bounds per-session memory
  /// for pathological never-ending sessions.
  void TrimToFlatCap(size_t max_flat_events);

  /// The model-facing view: the whole current session as input, target
  /// unset (serving predicts it).
  Example ToExample() const;
};

/// Bounds of the in-memory store.
struct SessionStoreConfig {
  /// LRU-evict beyond this many live sessions.
  size_t max_sessions = 100000;
  /// Per-session event cap (TrimToFlatCap).
  size_t max_events_per_session = 256;
};

/// In-memory per-user session state with incremental updates, LRU eviction
/// and CRC'd snapshot/restore.
///
/// Not internally synchronized: the serving frontend processes requests one
/// at a time off its admission queue (see ServeFrontend), which is the
/// store's one writer. Snapshots use the checkpoint-v2 conventions: the
/// whole image is assembled in memory, CRC-32'd over every preceding byte,
/// and written atomically (tmp + fsync + rename via AtomicWriteFile), so a
/// crash mid-snapshot never corrupts the previous one, and truncation or
/// bit rot is always detected at load.
///
/// The failpoint site "serve.store_read" injects a *transient* lookup
/// failure into ApplyEvent/Get — the unit the frontend's retry-with-backoff
/// wraps.
class SessionStore {
 public:
  explicit SessionStore(SessionStoreConfig config = SessionStoreConfig());

  /// Applies one event to `session_id` (creating the session if new),
  /// refreshes its LRU stamp, and returns the updated state. The returned
  /// pointer is valid until the next non-const store call. Internal on an
  /// injected "serve.store_read" failure.
  Result<const SessionState*> ApplyEvent(uint64_t session_id,
                                         const MicroBehavior& ev);

  /// Read-only lookup. NotFound for unknown sessions; Internal on an
  /// injected "serve.store_read" failure.
  Result<const SessionState*> Get(uint64_t session_id) const;

  size_t size() const { return sessions_.size(); }
  int64_t evictions() const { return evictions_; }

  /// Serializes every session (sorted by id, so output is deterministic)
  /// in the snapshot format; the trailing 4 bytes are the CRC-32 of
  /// everything before them.
  std::string Serialize() const;

  /// Atomic CRC'd snapshot of the whole store.
  [[nodiscard]] Status SaveSnapshot(const std::string& path) const;

  /// Replaces the store contents with a snapshot's. Bounds-checked parse,
  /// CRC verified first; each session is rebuilt from its flat sections and
  /// must reproduce its stored macro sections, and each of its events must
  /// have an item in [0, num_items) and an operation in
  /// [0, num_operations). The defaults bound nothing but the sign: a bare
  /// store knows no vocabulary (ServeFrontend::LoadSnapshot passes its
  /// own). On any error the store is left unchanged. LRU recency restarts
  /// from zero (recency is runtime state, not content).
  [[nodiscard]] Status LoadSnapshot(
      const std::string& path,
      int64_t num_items = std::numeric_limits<int64_t>::max(),
      int64_t num_operations = std::numeric_limits<int64_t>::max());

  const SessionStoreConfig& config() const { return config_; }

 private:
  void MaybeEvict();

  SessionStoreConfig config_;
  std::map<uint64_t, SessionState> sessions_;
  uint64_t touch_seq_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace serve
}  // namespace embsr

#endif  // EMBSR_SERVE_SESSION_STORE_H_
