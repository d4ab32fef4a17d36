#include "serve/session_store.h"

#include <utility>

#include "data/preprocess.h"
#include "obs/metrics.h"
#include "robust/failpoint.h"
#include "util/fs_util.h"
#include "util/sealed_file.h"

namespace embsr {
namespace serve {

namespace {

constexpr char kMagic[8] = {'E', 'M', 'B', 'S', 'R', 'S', 'S', 'T'};
constexpr uint32_t kVersion = 3;
// Parse-time plausibility caps: a corrupt length field must fail fast with
// an offset, not drive a multi-gigabyte allocation.
constexpr uint64_t kMaxSessions = 1u << 26;
constexpr uint64_t kMaxEventsPerSession = 1u << 20;

}  // namespace

void SessionState::Append(const MicroBehavior& ev) {
  flat_items.push_back(ev.item);
  flat_ops.push_back(ev.operation);
}

void SessionState::TrimToFlatCap(size_t max_flat_events) {
  size_t drop = 0;  // events before `drop` go: whole runs, never the last
  while (flat_items.size() - drop > max_flat_events) {
    size_t next = drop;
    while (next < flat_items.size() && flat_items[next] == flat_items[drop]) {
      ++next;
    }
    if (next == flat_items.size()) break;
    drop = next;
  }
  const auto cut = static_cast<ptrdiff_t>(drop);
  flat_items.erase(flat_items.begin(), flat_items.begin() + cut);
  flat_ops.erase(flat_ops.begin(), flat_ops.begin() + cut);
}

Example SessionState::ToExample() const {
  return ExampleFromEvents(flat_items, flat_ops);
}

SessionStore::SessionStore(SessionStoreConfig config)
    : config_(std::move(config)) {}

Result<const SessionState*> SessionStore::ApplyEvent(uint64_t session_id,
                                                     const MicroBehavior& ev) {
  if (robust::Failpoints::Global().ShouldFail("serve.store_read")) {
    return robust::InjectedFailure("serve.store_read",
                                   "session store lookup");
  }
  SessionState& state = sessions_[session_id];
  state.Append(ev);
  state.TrimToFlatCap(config_.max_events_per_session);
  state.last_touch = ++touch_seq_;
  MaybeEvict();
  // The just-touched session holds the maximum LRU stamp, so eviction can
  // never pick it; its map node (and thus &state) is stable.
  return Result<const SessionState*>(&state);
}

Result<const SessionState*> SessionStore::Get(uint64_t session_id) const {
  if (robust::Failpoints::Global().ShouldFail("serve.store_read")) {
    return robust::InjectedFailure("serve.store_read",
                                   "session store lookup");
  }
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session_id));
  }
  return Result<const SessionState*>(&it->second);
}

void SessionStore::MaybeEvict() {
  static obs::Counter* evicted =
      obs::Registry::Global().GetCounter("serve/store_evictions");
  while (sessions_.size() > config_.max_sessions) {
    auto victim = sessions_.begin();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second.last_touch < victim->second.last_touch) victim = it;
    }
    sessions_.erase(victim);
    ++evictions_;
    evicted->Increment();
  }
}

std::string SessionStore::Serialize() const {
  SealedWriter w(kMagic, kVersion);
  w.Write(static_cast<uint64_t>(sessions_.size()));
  for (const auto& [id, state] : sessions_) {
    w.Write(id);
    w.Write(static_cast<uint64_t>(state.flat_items.size()));
    w.WriteBytes(state.flat_items.data(),
                 sizeof(int64_t) * state.flat_items.size());
    w.WriteBytes(state.flat_ops.data(),
                 sizeof(int64_t) * state.flat_ops.size());
  }
  return std::move(w).Seal();
}

Status SessionStore::SaveSnapshot(const std::string& path) const {
  static obs::Counter* snapshots =
      obs::Registry::Global().GetCounter("serve/store_snapshots");
  const Status s = AtomicWriteFile(path, Serialize());
  if (s.ok()) snapshots->Increment();
  return s;
}

Status SessionStore::LoadSnapshot(const std::string& path, int64_t num_items,
                                  int64_t num_operations) {
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  SealedReader r(data.value(), "session snapshot");
  Status s = r.Open(kMagic, kVersion);
  if (!s.ok()) return s;
  uint64_t count = 0;
  s = r.Read(&count, "session count");
  if (!s.ok()) return s;
  if (count > kMaxSessions) return r.Corrupt("implausible session count");

  std::map<uint64_t, SessionState> loaded;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    s = r.Read(&id, "session id");
    if (!s.ok()) return s;
    uint64_t events = 0;
    s = r.Read(&events, "event count");
    if (!s.ok()) return s;
    if (events > kMaxEventsPerSession ||
        2 * sizeof(int64_t) * events > r.remaining()) {
      return r.Corrupt("implausible event count " + std::to_string(events));
    }
    const size_t column_bytes = sizeof(int64_t) * events;
    SessionState state;
    state.flat_items.assign(events, 0);
    state.flat_ops.assign(events, 0);
    s = r.ReadBytes(state.flat_items.data(), column_bytes, "flat items");
    if (!s.ok()) return s;
    s = r.ReadBytes(state.flat_ops.data(), column_bytes, "flat ops");
    if (!s.ok()) return s;
    for (size_t e = 0; e < events; ++e) {
      const int64_t item = state.flat_items[e];
      const int64_t op = state.flat_ops[e];
      if (item < 0 || item >= num_items || op < 0 || op >= num_operations) {
        return Status::InvalidArgument(
            "session snapshot: event " + std::to_string(e) + " of session " +
            std::to_string(id) + " (item " + std::to_string(item) +
            ", operation " + std::to_string(op) +
            ") is outside the vocabulary of " + std::to_string(num_items) +
            " items and " + std::to_string(num_operations) + " operations");
      }
    }
    loaded.emplace(id, std::move(state));
  }
  s = r.End();
  if (!s.ok()) return s;

  sessions_ = std::move(loaded);
  touch_seq_ = 0;
  for (auto& [id, state] : sessions_) state.last_touch = ++touch_seq_;
  return Status::OK();
}

}  // namespace serve
}  // namespace embsr
