#include "serve/session_store.h"

#include <cstring>
#include <utility>

#include "data/preprocess.h"
#include "obs/metrics.h"
#include "robust/failpoint.h"
#include "util/crc32.h"
#include "util/fs_util.h"

namespace embsr {
namespace serve {

namespace {

constexpr char kMagic[8] = {'E', 'M', 'B', 'S', 'R', 'S', 'S', 'T'};
constexpr uint32_t kVersion = 2;  // checkpoint-v2 conventions (CRC trailer)
// Parse-time plausibility caps: a corrupt length field must fail fast with
// an offset, not drive a multi-gigabyte allocation.
constexpr uint64_t kMaxSessions = 1u << 26;
constexpr uint64_t kMaxEventsPerSession = 1u << 20;

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendI64Vec(std::string* out, const std::vector<int64_t>& v) {
  AppendPod(out, static_cast<uint64_t>(v.size()));
  for (int64_t x : v) AppendPod(out, x);
}

/// Bounds-checked cursor (the nn/checkpoint.cc idiom): every failure names
/// the byte offset where the snapshot went bad.
class ByteReader {
 public:
  explicit ByteReader(const std::string& data) : data_(data) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return data_.size() - off_; }

  Status Read(void* dst, size_t n, const char* what) {
    if (n > remaining()) {
      return Status::InvalidArgument(
          "truncated session snapshot: need " + std::to_string(n) +
          " bytes for " + what + " at offset " + std::to_string(off_) +
          ", have " + std::to_string(remaining()));
    }
    std::memcpy(  // lint: allow(data-arith): byte I/O, n <= remaining() checked above
        dst, data_.data() + off_, n);
    off_ += n;
    return Status::OK();
  }

  template <typename T>
  Status ReadPod(T* value, const char* what) {
    return Read(value, sizeof(T), what);
  }

  Status ReadI64Vec(std::vector<int64_t>* out, uint64_t cap,
                    const char* what) {
    uint64_t n = 0;
    Status s = ReadPod(&n, what);
    if (!s.ok()) return s;
    if (n > cap || n * sizeof(int64_t) > remaining()) {
      return Status::InvalidArgument(
          std::string("corrupt session snapshot: implausible length for ") +
          what + " at offset " + std::to_string(off_));
    }
    out->resize(n);
    return n == 0 ? Status::OK()
                  : Read(out->data(), n * sizeof(int64_t), what);
  }

 private:
  const std::string& data_;
  size_t off_ = 0;
};

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
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(&out, kVersion);
  AppendPod(&out, static_cast<uint64_t>(sessions_.size()));
  for (const auto& [id, state] : sessions_) {
    const Example ex = state.ToExample();
    AppendPod(&out, id);
    AppendI64Vec(&out, ex.macro_items);
    for (const auto& ops : ex.macro_ops) AppendI64Vec(&out, ops);
    AppendI64Vec(&out, ex.flat_items);
    AppendI64Vec(&out, ex.flat_ops);
  }
  const uint32_t crc = Crc32(out.data(), out.size());
  AppendPod(&out, crc);
  return out;
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
  const std::string& bytes = data.value();
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t) * 2) {
    return Status::InvalidArgument("session snapshot too short: " +
                                   std::to_string(bytes.size()) + " bytes");
  }
  const uint32_t stored_crc = [&] {
    uint32_t crc = 0;
    std::memcpy(&crc, bytes.data() + bytes.size() - sizeof(crc),  // lint: allow(data-arith): byte I/O, size checked above
                sizeof(crc));
    return crc;
  }();
  const uint32_t actual_crc =
      Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument("session snapshot CRC mismatch");
  }

  ByteReader r(bytes);
  char magic[sizeof(kMagic)];
  Status s = r.Read(magic, sizeof(magic), "magic");
  if (!s.ok()) return s;
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a session snapshot (bad magic)");
  }
  uint32_t version = 0;
  s = r.ReadPod(&version, "version");
  if (!s.ok()) return s;
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported session snapshot version " +
                                   std::to_string(version));
  }
  uint64_t count = 0;
  s = r.ReadPod(&count, "session count");
  if (!s.ok()) return s;
  if (count > kMaxSessions) {
    return Status::InvalidArgument(
        "corrupt session snapshot: implausible session count");
  }

  std::map<uint64_t, SessionState> loaded;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    s = r.ReadPod(&id, "session id");
    if (!s.ok()) return s;
    std::vector<int64_t> macro_items;
    s = r.ReadI64Vec(&macro_items, kMaxEventsPerSession, "macro items");
    if (!s.ok()) return s;
    std::vector<std::vector<int64_t>> macro_ops(macro_items.size());
    for (auto& ops : macro_ops) {
      s = r.ReadI64Vec(&ops, kMaxEventsPerSession, "macro ops");
      if (!s.ok()) return s;
    }
    SessionState state;
    s = r.ReadI64Vec(&state.flat_items, kMaxEventsPerSession, "flat items");
    if (!s.ok()) return s;
    s = r.ReadI64Vec(&state.flat_ops, kMaxEventsPerSession, "flat ops");
    if (!s.ok()) return s;
    if (state.flat_ops.size() != state.flat_items.size()) {
      return Status::InvalidArgument(
          "corrupt session snapshot: flat items/ops length mismatch at "
          "offset " +
          std::to_string(r.offset()));
    }
    for (size_t e = 0; e < state.flat_items.size(); ++e) {
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
    // The macro sections are derived data: they must be exactly what the
    // flat run rebuilds to, or the image is inconsistent.
    const Example rebuilt = state.ToExample();
    if (rebuilt.macro_items != macro_items || rebuilt.macro_ops != macro_ops) {
      return Status::InvalidArgument(
          "corrupt session snapshot: macro sections of session " +
          std::to_string(id) + " differ from its flat run at offset " +
          std::to_string(r.offset()));
    }
    loaded.emplace(id, std::move(state));
  }
  if (r.remaining() != sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "corrupt session snapshot: trailing bytes at offset " +
        std::to_string(r.offset()));
  }

  sessions_ = std::move(loaded);
  touch_seq_ = 0;
  for (auto& [id, state] : sessions_) state.last_touch = ++touch_seq_;
  return Status::OK();
}

}  // namespace serve
}  // namespace embsr
