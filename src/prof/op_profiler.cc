#include "prof/op_profiler.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "util/env.h"

namespace embsr {
namespace prof {

namespace {

struct OpStats {
  int64_t calls = 0;
  int64_t backward_calls = 0;
  int64_t forward_ns = 0;
  int64_t backward_ns = 0;
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  int64_t alloc_bytes = 0;
};

// Per-thread shard. The owning thread takes the (uncontended) mutex per
// record; Snapshot() takes it briefly per shard. Shards are leaked so a
// snapshot after a recording thread exits still sees its data.
struct Shard {
  std::mutex mu;
  std::map<std::string, OpStats> ops;
  std::map<std::string, OpStats> components;
  int64_t last_mark_ns = 0;  // 0 = no origin; first record charges 0 gap
};

std::mutex g_shards_mu;
std::vector<Shard*>& Shards() {
  static std::vector<Shard*>* v =
      new std::vector<Shard*>();  // lint: allow(raw-new): leaked singleton
  return *v;
}

Shard& LocalShard() {
  thread_local Shard* shard = [] {
    // Leaked so snapshots taken after a recording thread exits stay valid
    // (same lifetime policy as obs trace buffers).
    Shard* s = new Shard();  // lint: allow(raw-new): leaked per-thread shard
    std::lock_guard<std::mutex> lock(g_shards_mu);
    Shards().push_back(s);
    return s;
  }();
  return *shard;
}

Collector* Singleton() {
  static Collector* c = new Collector();  // lint: allow(raw-new): leaked singleton
  return c;
}

const char* ComponentKey(const char* component) {
  return component == nullptr ? "(none)" : component;
}

std::atomic<int64_t> g_steps{0};
std::atomic<int64_t> g_step_ns{0};
std::atomic<int64_t> g_start_ns{0};
std::atomic<int64_t> g_stop_ns{0};

thread_local const char* t_component = nullptr;

}  // namespace

std::atomic<Collector*> Collector::g_active{nullptr};

void Collector::RecordForward(const char* op, const char* component,
                              const OpCost& cost) {
  const int64_t now = NowNs();
  const int64_t pending = internal::TakePendingAllocBytes();
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  const int64_t gap =
      shard.last_mark_ns == 0 ? 0 : now - shard.last_mark_ns;
  shard.last_mark_ns = now;
  OpStats& s = shard.ops[op];
  s.calls += 1;
  s.forward_ns += gap;
  s.flops += cost.flops;
  s.bytes_read += cost.bytes_read;
  s.bytes_written += cost.bytes_written;
  s.alloc_bytes += pending;
  OpStats& c = shard.components[ComponentKey(component)];
  c.calls += 1;
  c.forward_ns += gap;
  c.flops += cost.flops;
  c.bytes_read += cost.bytes_read;
  c.bytes_written += cost.bytes_written;
  c.alloc_bytes += pending;
}

void Collector::RecordBackward(const char* op, const char* component,
                               int64_t ns) {
  const int64_t pending = internal::TakePendingAllocBytes();
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  OpStats& s = shard.ops[op];
  s.backward_calls += 1;
  s.backward_ns += ns;
  s.alloc_bytes += pending;
  OpStats& c = shard.components[ComponentKey(component)];
  c.backward_calls += 1;
  c.backward_ns += ns;
  c.alloc_bytes += pending;
}

void Collector::MarkThisThread() {
  if (ActiveOrNull() == nullptr) return;
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.last_mark_ns = NowNs();
}

void Collector::AddStep(int64_t ns) {
  g_steps.fetch_add(1, std::memory_order_relaxed);
  g_step_ns.fetch_add(ns, std::memory_order_relaxed);
}

void Start() {
  {
    std::lock_guard<std::mutex> lock(g_shards_mu);
    for (Shard* s : Shards()) {
      std::lock_guard<std::mutex> sl(s->mu);
      s->ops.clear();
      s->components.clear();
      s->last_mark_ns = 0;
    }
  }
  internal::ResetMemStats();
  internal::ResetLaneStats();
  g_steps.store(0, std::memory_order_relaxed);
  g_step_ns.store(0, std::memory_order_relaxed);
  g_start_ns.store(NowNs(), std::memory_order_relaxed);
  g_stop_ns.store(0, std::memory_order_relaxed);
  internal::g_mem_enabled.store(true, std::memory_order_relaxed);
  internal::g_pool_enabled.store(true, std::memory_order_relaxed);
  // Release so a thread that observes the collector also observes the
  // cleared shard/memory state.
  Collector::g_active.store(Singleton(), std::memory_order_release);
}

void Stop() {
  Collector::g_active.store(nullptr, std::memory_order_release);
  internal::g_mem_enabled.store(false, std::memory_order_relaxed);
  internal::g_pool_enabled.store(false, std::memory_order_relaxed);
  if (g_start_ns.load(std::memory_order_relaxed) != 0) {
    g_stop_ns.store(NowNs(), std::memory_order_relaxed);
  }
}

void MaybeInitFromEnv() {
  static const bool started = [] {
    if (GetEnvInt("EMBSR_PROF", 0) != 1) return false;
    if (GetEnvInt("EMBSR_PROF_TIMELINE", 0) == 1) {
      SetTimelineCapture(true,
                         GetEnvInt("EMBSR_PROF_TIMELINE_CAP", 65536));
    }
    Start();
    return true;
  }();
  (void)started;
}

double ProfiledSeconds() {
  const int64_t start = g_start_ns.load(std::memory_order_relaxed);
  if (start == 0) return 0.0;
  int64_t stop = g_stop_ns.load(std::memory_order_relaxed);
  if (Enabled() || stop == 0) stop = NowNs();
  return static_cast<double>(stop - start) * 1e-9;
}

const char* CurrentComponent() { return t_component; }

StepScope::StepScope() : collector_(Collector::ActiveOrNull()) {
  if (collector_ == nullptr) return;
  Collector::MarkThisThread();
  t0_ = NowNs();
}

StepScope::~StepScope() {
  if (collector_ == nullptr) return;
  collector_->AddStep(NowNs() - t0_);
}

ComponentScope::ComponentScope(const char* name) : prev_(t_component) {
  t_component = name;
}

ComponentScope::~ComponentScope() { t_component = prev_; }

ProfileSnapshot Snapshot() {
  ProfileSnapshot snap;
  snap.enabled = Enabled();
  snap.profiled_seconds = ProfiledSeconds();
  snap.steps = g_steps.load(std::memory_order_relaxed);
  snap.step_ns = g_step_ns.load(std::memory_order_relaxed);

  std::map<std::string, OpStats> ops;
  std::map<std::string, OpStats> components;
  {
    std::lock_guard<std::mutex> lock(g_shards_mu);
    for (Shard* shard : Shards()) {
      std::lock_guard<std::mutex> sl(shard->mu);
      for (const auto& kv : shard->ops) {
        OpStats& dst = ops[kv.first];
        const OpStats& src = kv.second;
        dst.calls += src.calls;
        dst.backward_calls += src.backward_calls;
        dst.forward_ns += src.forward_ns;
        dst.backward_ns += src.backward_ns;
        dst.flops += src.flops;
        dst.bytes_read += src.bytes_read;
        dst.bytes_written += src.bytes_written;
        dst.alloc_bytes += src.alloc_bytes;
      }
      for (const auto& kv : shard->components) {
        OpStats& dst = components[kv.first];
        const OpStats& src = kv.second;
        dst.calls += src.calls;
        dst.backward_calls += src.backward_calls;
        dst.forward_ns += src.forward_ns;
        dst.backward_ns += src.backward_ns;
        dst.flops += src.flops;
        dst.bytes_read += src.bytes_read;
        dst.bytes_written += src.bytes_written;
        dst.alloc_bytes += src.alloc_bytes;
      }
    }
  }
  auto to_aggs = [](const std::map<std::string, OpStats>& m) {
    std::vector<OpAgg> aggs;
    aggs.reserve(m.size());
    for (const auto& kv : m) {
      OpAgg a;
      a.name = kv.first;
      a.calls = kv.second.calls;
      a.backward_calls = kv.second.backward_calls;
      a.forward_ns = kv.second.forward_ns;
      a.backward_ns = kv.second.backward_ns;
      a.flops = kv.second.flops;
      a.bytes_read = kv.second.bytes_read;
      a.bytes_written = kv.second.bytes_written;
      a.alloc_bytes = kv.second.alloc_bytes;
      aggs.push_back(std::move(a));
    }
    std::stable_sort(aggs.begin(), aggs.end(),
                     [](const OpAgg& x, const OpAgg& y) {
                       return x.forward_ns + x.backward_ns >
                              y.forward_ns + y.backward_ns;
                     });
    return aggs;
  };
  snap.ops = to_aggs(ops);
  snap.components = to_aggs(components);
  snap.mem = MemSnapshot();
  snap.timeline_events = static_cast<int64_t>(TimelineSnapshot().size());
  snap.timeline_dropped = TimelineDropped();
  snap.lanes = LaneSnapshot();
  return snap;
}

}  // namespace prof
}  // namespace embsr
