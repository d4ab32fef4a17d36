#include "nn/checkpoint.h"

#include <cstdint>
#include <cstring>

#include "robust/failpoint.h"
#include "util/crc32.h"
#include "util/fs_util.h"

namespace embsr {
namespace nn {

namespace {

constexpr char kMagic[8] = {'E', 'M', 'B', 'S', 'R', 'C', 'K', 'P'};
constexpr uint32_t kVersion = 2;
constexpr uint32_t kFlagHasTrainState = 1u << 0;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint32_t kMaxRank = 8;

// ---------------------------------------------------------------------------
// Serialization helpers over an in-memory buffer. Assembling the whole file
// in memory (checkpoints are parameter-sized) is what makes the atomic
// tmp+rename write and the whole-file CRC trivially correct.

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendTensor(std::string* out, const Tensor& t) {
  AppendPod(out, static_cast<uint32_t>(t.ndim()));
  for (int64_t d : t.shape()) AppendPod(out, d);
  out->append(reinterpret_cast<const char*>(t.data()),
              sizeof(float) * static_cast<size_t>(t.size()));
}

/// Bounds-checked cursor over the loaded file. Every failure names the
/// offset where the file ran out or went bad.
class ByteReader {
 public:
  explicit ByteReader(const std::string& data) : data_(data) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return data_.size() - off_; }

  Status Read(void* dst, size_t n, const char* what) {
    if (n > remaining()) {
      return Status::InvalidArgument(
          "truncated checkpoint: need " + std::to_string(n) + " bytes for " +
          what + " at offset " + std::to_string(off_) + ", have " +
          std::to_string(remaining()));
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

  Status ReadString(std::string* out, size_t n, const char* what) {
    out->resize(n);
    return Read(out->data(), n, what);
  }

 private:
  const std::string& data_;
  size_t off_ = 0;
};

Status ReadTensorInto(ByteReader* r, Tensor* dst, const char* what) {
  uint32_t rank = 0;
  Status s = r->ReadPod(&rank, what);
  if (!s.ok()) return s;
  if (rank > kMaxRank) {
    return Status::InvalidArgument(
        std::string("corrupt checkpoint: implausible rank for ") + what +
        " at offset " + std::to_string(r->offset()));
  }
  std::vector<int64_t> shape(rank);
  int64_t elems = 1;
  for (auto& d : shape) {
    s = r->ReadPod(&d, what);
    if (!s.ok()) return s;
    if (d < 0 || (d > 0 && elems > (1LL << 40) / d)) {
      return Status::InvalidArgument(
          std::string("corrupt checkpoint: implausible dims for ") + what +
          " at offset " + std::to_string(r->offset()));
    }
    elems *= d;
  }
  if (static_cast<uint64_t>(elems) * sizeof(float) > r->remaining()) {
    return Status::InvalidArgument(
        std::string("corrupt checkpoint: ") + what + " of " +
        std::to_string(elems) + " floats overruns the file at offset " +
        std::to_string(r->offset()));
  }
  Tensor t(shape);
  s = r->Read(t.data(), sizeof(float) * static_cast<size_t>(t.size()), what);
  if (!s.ok()) return s;
  *dst = std::move(t);
  return Status::OK();
}

/// Reads a tensor whose shape must match `dst` exactly (a module weight).
Status ReadTensorMatching(ByteReader* r, Tensor* dst, const std::string& name) {
  uint32_t rank = 0;
  Status s = r->ReadPod(&rank, "tensor rank");
  if (!s.ok()) return s;
  if (rank > kMaxRank) {
    return Status::InvalidArgument(
        "corrupt checkpoint: implausible rank for '" + name + "' at offset " +
        std::to_string(r->offset()));
  }
  std::vector<int64_t> shape(rank);
  for (auto& d : shape) {
    s = r->ReadPod(&d, "tensor dims");
    if (!s.ok()) return s;
  }
  if (shape != dst->shape()) {
    return Status::FailedPrecondition("shape mismatch for '" + name + "'");
  }
  return r->Read(dst->data(), sizeof(float) * static_cast<size_t>(dst->size()),
                 "tensor data");
}

/// A tensor list of `count` entries needs at least a rank word per entry;
/// a count the rest of the file cannot hold is rejected before the list is
/// allocated.
Status CheckTensorCount(const ByteReader& r, uint32_t count,
                        const char* what) {
  if (static_cast<uint64_t>(count) * sizeof(uint32_t) > r.remaining()) {
    return Status::InvalidArgument(
        std::string("corrupt checkpoint: implausible ") + what + " " +
        std::to_string(count) + " at offset " + std::to_string(r.offset()));
  }
  return Status::OK();
}

Status ReadRngState(ByteReader* r, RngState* rng) {
  for (auto& word : rng->s) {
    Status s = r->ReadPod(&word, "rng state");
    if (!s.ok()) return s;
  }
  uint32_t has_cached = 0;
  Status s = r->ReadPod(&has_cached, "rng cache flag");
  if (!s.ok()) return s;
  rng->has_cached_normal = has_cached != 0;
  return r->ReadPod(&rng->cached_normal, "rng cached normal");
}

void AppendTrainState(std::string* out, const TrainState& st) {
  AppendPod(out, st.epoch);
  AppendPod(out, st.best_mrr);
  AppendPod(out, static_cast<uint32_t>(st.best_params.size()));
  for (const Tensor& t : st.best_params) AppendTensor(out, t);
  for (uint64_t word : st.rng.s) AppendPod(out, word);
  AppendPod(out, static_cast<uint32_t>(st.rng.has_cached_normal ? 1 : 0));
  AppendPod(out, st.rng.cached_normal);
  AppendPod(out, static_cast<uint32_t>(st.opt_scalars.size()));
  for (double v : st.opt_scalars) AppendPod(out, v);
  AppendPod(out, static_cast<uint32_t>(st.opt_slots.size()));
  for (const Tensor& t : st.opt_slots) AppendTensor(out, t);
}

Status ReadTrainState(ByteReader* r, TrainState* st) {
  Status s = r->ReadPod(&st->epoch, "epoch");
  if (!s.ok()) return s;
  s = r->ReadPod(&st->best_mrr, "best_mrr");
  if (!s.ok()) return s;
  uint32_t best_count = 0;
  s = r->ReadPod(&best_count, "best-params count");
  if (!s.ok()) return s;
  s = CheckTensorCount(*r, best_count, "best-params count");
  if (!s.ok()) return s;
  // lint: allow(raw-resize): count-prefixed deserialization buffer
  st->best_params.resize(best_count);
  for (auto& t : st->best_params) {
    s = ReadTensorInto(r, &t, "best-params tensor");
    if (!s.ok()) return s;
  }
  s = ReadRngState(r, &st->rng);
  if (!s.ok()) return s;
  uint32_t scalar_count = 0;
  s = r->ReadPod(&scalar_count, "optimizer scalar count");
  if (!s.ok()) return s;
  if (scalar_count > 1u << 20) {
    return Status::InvalidArgument(
        "corrupt checkpoint: implausible optimizer scalar count at offset " +
        std::to_string(r->offset()));
  }
  // lint: allow(raw-resize): count-prefixed deserialization buffer
  st->opt_scalars.resize(scalar_count);
  for (auto& v : st->opt_scalars) {
    s = r->ReadPod(&v, "optimizer scalar");
    if (!s.ok()) return s;
  }
  uint32_t slot_count = 0;
  s = r->ReadPod(&slot_count, "optimizer slot count");
  if (!s.ok()) return s;
  if (slot_count > 1u << 20) {
    return Status::InvalidArgument(
        "corrupt checkpoint: implausible optimizer slot count at offset " +
        std::to_string(r->offset()));
  }
  s = CheckTensorCount(*r, slot_count, "optimizer slot count");
  if (!s.ok()) return s;
  // lint: allow(raw-resize): count-prefixed deserialization buffer
  st->opt_slots.resize(slot_count);
  for (auto& t : st->opt_slots) {
    s = ReadTensorInto(r, &t, "optimizer slot");
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SaveImpl(const Module& module, const TrainState* state,
                const std::string& path) {
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  AppendPod(&buf, kVersion);
  AppendPod(&buf, state != nullptr ? kFlagHasTrainState : 0u);
  const auto params = module.NamedParameters();
  AppendPod(&buf, static_cast<uint32_t>(params.size()));
  for (const auto& np : params) {
    AppendPod(&buf, static_cast<uint32_t>(np.name.size()));
    buf.append(np.name);
    AppendTensor(&buf, np.variable.value());
  }
  if (state != nullptr) AppendTrainState(&buf, *state);
  const uint32_t crc = Crc32(buf.data(), buf.size());
  AppendPod(&buf, crc);

  auto& fp = robust::Failpoints::Global();
  if (fp.ShouldFail("ckpt.write")) {
    return robust::InjectedFailure("ckpt.write", "writing '" + path + "'");
  }
  if (fp.ShouldFail("ckpt.truncate")) {
    // Simulates a torn direct write (e.g. a copy through a non-atomic
    // channel): half the payload lands, the call still reports success.
    // The CRC catches it at load time.
    return AtomicWriteFile(path, buf.substr(0, buf.size() / 2));
  }
  return AtomicWriteFile(path, buf);
}

/// The parameter section: count, then each parameter's name and tensor,
/// which must match `module`'s names, order and shapes exactly.
Status LoadParams(ByteReader* r, const std::string& path, Module* module) {
  uint32_t count = 0;
  Status s = r->ReadPod(&count, "parameter count");
  if (!s.ok()) return s;
  auto params = module->NamedParameters();
  if (count != params.size()) {
    return Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) + " parameters, module has " +
        std::to_string(params.size()));
  }
  for (auto& np : params) {
    uint32_t name_len = 0;
    s = r->ReadPod(&name_len, "name length");
    if (!s.ok()) return s;
    if (name_len > kMaxNameLen) {
      return Status::InvalidArgument(
          "corrupt checkpoint '" + path + "': implausible name length at "
          "offset " + std::to_string(r->offset()));
    }
    std::string name;
    s = r->ReadString(&name, name_len, "parameter name");
    if (!s.ok()) return s;
    if (name != np.name) {
      return Status::FailedPrecondition("parameter name mismatch: expected '" +
                                        np.name + "', found '" + name + "'");
    }
    s = ReadTensorMatching(r, &np.variable.mutable_value(), np.name);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status LoadImpl(const std::string& path, Module* module, TrainState* state,
                bool require_state) {
  if (module == nullptr) {
    return Status::InvalidArgument("null module");
  }
  if (robust::Failpoints::Global().ShouldFail("ckpt.read")) {
    return robust::InjectedFailure("ckpt.read", "reading '" + path + "'");
  }
  auto file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  const std::string& data = file.value();

  ByteReader r(data);
  char magic[8];
  Status s = r.Read(magic, sizeof(magic), "magic");
  if (!s.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a checkpoint");
  }
  uint32_t version = 0;
  s = r.ReadPod(&version, "version");
  if (!s.ok()) return s;
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }

  // Verify the whole-file CRC before trusting any field.
  if (data.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument("'" + path + "' is too short for a CRC");
  }
  const size_t crc_off = data.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(  // lint: allow(data-arith): byte I/O, crc_off = size - 4 with size checked
      &stored_crc, data.data() + crc_off, sizeof(uint32_t));
  const uint32_t computed_crc = Crc32(data.data(), crc_off);
  if (stored_crc != computed_crc) {
    return Status::InvalidArgument(
        "CRC mismatch in '" + path + "': stored " +
        std::to_string(stored_crc) + ", computed " +
        std::to_string(computed_crc) + " over bytes [0, " +
        std::to_string(crc_off) + ")");
  }

  uint32_t flags = 0;
  s = r.ReadPod(&flags, "flags");
  if (!s.ok()) return s;
  s = LoadParams(&r, path, module);
  if (!s.ok()) return s;

  const bool has_state = (flags & kFlagHasTrainState) != 0;
  if (require_state && !has_state) {
    return Status::FailedPrecondition("'" + path +
                                      "' carries no training state");
  }
  if (has_state && state != nullptr) {
    s = ReadTrainState(&r, state);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const Module& module, const std::string& path) {
  return SaveImpl(module, nullptr, path);
}

Status SaveCheckpoint(const Module& module, const TrainState& state,
                      const std::string& path) {
  return SaveImpl(module, &state, path);
}

Status LoadCheckpoint(const std::string& path, Module* module) {
  return LoadImpl(path, module, nullptr, /*require_state=*/false);
}

Status LoadCheckpoint(const std::string& path, Module* module,
                      TrainState* state) {
  return LoadImpl(path, module, state, /*require_state=*/true);
}

}  // namespace nn
}  // namespace embsr
