#include "nn/checkpoint.h"

#include <cstdint>
#include <utility>

#include "robust/failpoint.h"
#include "util/fs_util.h"
#include "util/sealed_file.h"

namespace embsr {
namespace nn {

namespace {

constexpr char kMagic[8] = {'E', 'M', 'B', 'S', 'R', 'C', 'K', 'P'};
constexpr uint32_t kVersion = 2;
constexpr uint32_t kFlagHasTrainState = 1u << 0;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint32_t kMaxRank = 8;

void WriteTensor(SealedWriter* w, const Tensor& t) {
  w->Write(static_cast<uint32_t>(t.ndim()));
  for (int64_t d : t.shape()) w->Write(d);
  w->WriteBytes(t.data(), sizeof(float) * static_cast<size_t>(t.size()));
}

/// Decodes one tensor (rank, dims, data). Rank, dims and the data size
/// are checked against the caps and the rest of the file before anything
/// is allocated.
Status ReadTensor(SealedReader* r, Tensor* dst, const std::string& what) {
  uint32_t rank = 0;
  Status s = r->Read(&rank, what);
  if (!s.ok()) return s;
  if (rank > kMaxRank) return r->Corrupt("implausible rank for " + what);
  std::vector<int64_t> shape(rank);
  int64_t elems = 1;
  for (auto& d : shape) {
    s = r->Read(&d, what);
    if (!s.ok()) return s;
    if (d < 0 || (d > 0 && elems > (1LL << 40) / d)) {
      return r->Corrupt("implausible dims for " + what);
    }
    elems *= d;
  }
  if (static_cast<uint64_t>(elems) * sizeof(float) > r->remaining()) {
    return r->Corrupt(what + " of " + std::to_string(elems) +
                      " floats overruns the file");
  }
  Tensor t(shape);
  s = r->ReadBytes(t.data(), sizeof(float) * static_cast<size_t>(t.size()),
                   what);
  if (!s.ok()) return s;
  *dst = std::move(t);
  return Status::OK();
}

/// A tensor list of `count` entries needs at least a rank word per entry;
/// a count the rest of the file cannot hold is rejected before the list is
/// allocated.
Status CheckTensorCount(const SealedReader& r, uint32_t count,
                        const std::string& what) {
  if (static_cast<uint64_t>(count) * sizeof(uint32_t) > r.remaining()) {
    return r.Corrupt("implausible " + what + " " + std::to_string(count));
  }
  return Status::OK();
}

Status ReadRngState(SealedReader* r, RngState* rng) {
  for (auto& word : rng->s) {
    Status s = r->Read(&word, "rng state");
    if (!s.ok()) return s;
  }
  uint32_t has_cached = 0;
  Status s = r->Read(&has_cached, "rng cache flag");
  if (!s.ok()) return s;
  rng->has_cached_normal = has_cached != 0;
  return r->Read(&rng->cached_normal, "rng cached normal");
}

void WriteTrainState(SealedWriter* w, const TrainState& st) {
  w->Write(st.epoch);
  w->Write(st.best_mrr);
  w->Write(static_cast<uint32_t>(st.best_params.size()));
  for (const Tensor& t : st.best_params) WriteTensor(w, t);
  for (uint64_t word : st.rng.s) w->Write(word);
  w->Write(static_cast<uint32_t>(st.rng.has_cached_normal ? 1 : 0));
  w->Write(st.rng.cached_normal);
  w->Write(static_cast<uint32_t>(st.opt_scalars.size()));
  for (double v : st.opt_scalars) w->Write(v);
  w->Write(static_cast<uint32_t>(st.opt_slots.size()));
  for (const Tensor& t : st.opt_slots) WriteTensor(w, t);
}

Status ReadTrainState(SealedReader* r, TrainState* st) {
  Status s = r->Read(&st->epoch, "epoch");
  if (!s.ok()) return s;
  s = r->Read(&st->best_mrr, "best_mrr");
  if (!s.ok()) return s;
  uint32_t best_count = 0;
  s = r->Read(&best_count, "best-params count");
  if (!s.ok()) return s;
  s = CheckTensorCount(*r, best_count, "best-params count");
  if (!s.ok()) return s;
  // lint: allow(raw-resize): count-prefixed deserialization buffer
  st->best_params.resize(best_count);
  for (auto& t : st->best_params) {
    s = ReadTensor(r, &t, "best-params tensor");
    if (!s.ok()) return s;
  }
  s = ReadRngState(r, &st->rng);
  if (!s.ok()) return s;
  uint32_t scalar_count = 0;
  s = r->Read(&scalar_count, "optimizer scalar count");
  if (!s.ok()) return s;
  if (scalar_count > 1u << 20) {
    return r->Corrupt("implausible optimizer scalar count");
  }
  // lint: allow(raw-resize): count-prefixed deserialization buffer
  st->opt_scalars.resize(scalar_count);
  for (auto& v : st->opt_scalars) {
    s = r->Read(&v, "optimizer scalar");
    if (!s.ok()) return s;
  }
  uint32_t slot_count = 0;
  s = r->Read(&slot_count, "optimizer slot count");
  if (!s.ok()) return s;
  if (slot_count > 1u << 20) {
    return r->Corrupt("implausible optimizer slot count");
  }
  s = CheckTensorCount(*r, slot_count, "optimizer slot count");
  if (!s.ok()) return s;
  // lint: allow(raw-resize): count-prefixed deserialization buffer
  st->opt_slots.resize(slot_count);
  for (auto& t : st->opt_slots) {
    s = ReadTensor(r, &t, "optimizer slot");
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SaveImpl(const Module& module, const TrainState* state,
                const std::string& path) {
  SealedWriter w(kMagic, kVersion);
  w.Write(state != nullptr ? kFlagHasTrainState : 0u);
  const auto params = module.NamedParameters();
  w.Write(static_cast<uint32_t>(params.size()));
  for (const auto& np : params) {
    w.Write(static_cast<uint32_t>(np.name.size()));
    w.WriteBytes(np.name.data(), np.name.size());
    WriteTensor(&w, np.variable.value());
  }
  if (state != nullptr) WriteTrainState(&w, *state);
  const std::string buf = std::move(w).Seal();

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
/// which must match `module`'s names, order and shapes exactly. Decodes
/// into `values`, one tensor per parameter; the module is not touched.
Status ReadParams(SealedReader* r, const Module& module,
                  std::vector<Tensor>* values) {
  uint32_t count = 0;
  Status s = r->Read(&count, "parameter count");
  if (!s.ok()) return s;
  const auto params = module.NamedParameters();
  if (count != params.size()) {
    return Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) + " parameters, module has " +
        std::to_string(params.size()));
  }
  values->reserve(params.size());
  for (const auto& np : params) {
    uint32_t name_len = 0;
    s = r->Read(&name_len, "name length");
    if (!s.ok()) return s;
    if (name_len > kMaxNameLen) return r->Corrupt("implausible name length");
    std::string name(name_len, '\0');
    s = r->ReadBytes(name.data(), name.size(), "parameter name");
    if (!s.ok()) return s;
    if (name != np.name) {
      return Status::FailedPrecondition("parameter name mismatch: expected '" +
                                        np.name + "', found '" + name + "'");
    }
    Tensor value;
    s = ReadTensor(r, &value, "parameter '" + name + "'");
    if (!s.ok()) return s;
    if (value.shape() != np.variable.value().shape()) {
      return Status::FailedPrecondition("shape mismatch for '" + name + "'");
    }
    values->push_back(std::move(value));
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

  SealedReader r(file.value(), "checkpoint");
  Status s = r.Open(kMagic, kVersion);
  if (!s.ok()) return s;
  uint32_t flags = 0;
  s = r.Read(&flags, "flags");
  if (!s.ok()) return s;
  std::vector<Tensor> values;
  s = ReadParams(&r, *module, &values);
  if (!s.ok()) return s;

  const bool has_state = (flags & kFlagHasTrainState) != 0;
  if (require_state && !has_state) {
    return Status::FailedPrecondition("'" + path +
                                      "' carries no training state");
  }
  TrainState decoded;
  if (has_state) {
    s = ReadTrainState(&r, &decoded);
    if (!s.ok()) return s;
  }
  s = r.End();
  if (!s.ok()) return s;

  auto params = module->NamedParameters();
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].variable.mutable_value() = std::move(values[i]);
  }
  if (state != nullptr) *state = std::move(decoded);
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
