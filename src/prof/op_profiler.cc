#include "prof/op_profiler.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "obs/metrics.h"
#include "util/timer.h"

namespace embsr {
namespace prof {

namespace {

// Shards key their OpAggs by name and leave OpAgg::name empty.
void Accumulate(OpAgg& dst, const OpAgg& src) {
  dst.calls += src.calls;
  dst.backward_calls += src.backward_calls;
  dst.forward_ns += src.forward_ns;
  dst.backward_ns += src.backward_ns;
  dst.flops += src.flops;
  dst.bytes_read += src.bytes_read;
  dst.bytes_written += src.bytes_written;
  dst.alloc_bytes += src.alloc_bytes;
}

// Per-thread shard. The owning thread takes the (uncontended) mutex per
// record; Snapshot() takes it briefly per shard. Shards are leaked so a
// snapshot after a recording thread exits still sees its data.
struct Shard {
  std::mutex mu;
  std::map<std::string, OpAgg> ops;
  std::map<std::string, OpAgg> components;
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

const char* ComponentKey(const char* component) {
  return component == nullptr ? "none" : component;
}

std::atomic<int64_t> g_steps{0};
std::atomic<int64_t> g_step_ns{0};

thread_local const char* t_component = nullptr;

// Gauges the last Stop() published; Start() zeroes them, so no snapshot
// taken in or after a session shows an op only an earlier session ran.
std::mutex g_published_mu;
std::vector<obs::Gauge*>& Published() {
  static std::vector<obs::Gauge*> v;  // guarded by g_published_mu
  return v;
}

void Publish(const ProfileSnapshot& snap) {
  obs::Registry& reg = obs::Registry::Global();
  std::lock_guard<std::mutex> lock(g_published_mu);
  auto set = [&](const std::string& name, double v) {
    obs::Gauge* g = reg.GetGauge(name);
    g->Set(v);
    Published().push_back(g);
  };
  auto set_agg = [&](const std::string& prefix, const OpAgg& a) {
    set(prefix + "/calls", static_cast<double>(a.calls));
    set(prefix + "/backward_calls", static_cast<double>(a.backward_calls));
    set(prefix + "/forward_ms", static_cast<double>(a.forward_ns) * 1e-6);
    set(prefix + "/backward_ms", static_cast<double>(a.backward_ns) * 1e-6);
    set(prefix + "/flops", a.flops);
    set(prefix + "/bytes_read", a.bytes_read);
    set(prefix + "/bytes_written", a.bytes_written);
    set(prefix + "/alloc_bytes", static_cast<double>(a.alloc_bytes));
  };
  for (const OpAgg& a : snap.ops) set_agg("prof/op/" + a.name, a);
  for (const OpAgg& a : snap.components) {
    set_agg("prof/component/" + a.name, a);
  }
  set("prof/mem/live_bytes", static_cast<double>(snap.mem.live_bytes));
  set("prof/mem/peak_bytes", static_cast<double>(snap.mem.peak_bytes));
  set("prof/mem/alloc_count", static_cast<double>(snap.mem.alloc_count));
  set("prof/mem/free_count", static_cast<double>(snap.mem.free_count));
  set("prof/mem/alloc_bytes_total",
      static_cast<double>(snap.mem.alloc_bytes_total));
  for (size_t i = 0; i < snap.lanes.size(); ++i) {
    const std::string lane = "prof/lane/" + std::to_string(i);
    set(lane + "/busy_ms", static_cast<double>(snap.lanes[i].busy_ns) * 1e-6);
    set(lane + "/chunks", static_cast<double>(snap.lanes[i].chunks));
  }
  set("prof/steps", static_cast<double>(snap.steps));
  set("prof/step_ms", static_cast<double>(snap.step_ns) * 1e-6);
}

}  // namespace

Collector Collector::g_collector;

void Collector::RecordForward(const char* op, const char* component,
                              const OpCost& cost) {
  const int64_t now = NowNs();
  const int64_t pending = internal::TakePendingAllocBytes();
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  const int64_t gap =
      shard.last_mark_ns == 0 ? 0 : now - shard.last_mark_ns;
  shard.last_mark_ns = now;
  OpAgg d;
  d.calls = 1;
  d.forward_ns = gap;
  d.flops = cost.flops;
  d.bytes_read = cost.bytes_read;
  d.bytes_written = cost.bytes_written;
  d.alloc_bytes = pending;
  Accumulate(shard.ops[op], d);
  Accumulate(shard.components[ComponentKey(component)], d);
}

void Collector::RecordBackward(const char* op, const char* component,
                               int64_t ns) {
  const int64_t pending = internal::TakePendingAllocBytes();
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  OpAgg d;
  d.backward_calls = 1;
  d.backward_ns = ns;
  d.alloc_bytes = pending;
  Accumulate(shard.ops[op], d);
  Accumulate(shard.components[ComponentKey(component)], d);
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
    std::lock_guard<std::mutex> lock(g_published_mu);
    for (obs::Gauge* g : Published()) g->Set(0.0);
    Published().clear();
  }
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
  internal::g_enabled.store(true, std::memory_order_release);
}

void Stop() {
  if (!internal::g_enabled.exchange(false, std::memory_order_acq_rel)) return;
  Publish(Snapshot());
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
  snap.steps = g_steps.load(std::memory_order_relaxed);
  snap.step_ns = g_step_ns.load(std::memory_order_relaxed);

  std::map<std::string, OpAgg> ops;
  std::map<std::string, OpAgg> components;
  {
    std::lock_guard<std::mutex> lock(g_shards_mu);
    for (Shard* shard : Shards()) {
      std::lock_guard<std::mutex> sl(shard->mu);
      for (const auto& [name, a] : shard->ops) Accumulate(ops[name], a);
      for (const auto& [name, a] : shard->components) {
        Accumulate(components[name], a);
      }
    }
  }
  auto to_aggs = [](const std::map<std::string, OpAgg>& m) {
    std::vector<OpAgg> aggs;
    aggs.reserve(m.size());
    for (const auto& [name, a] : m) {
      aggs.push_back(a);
      aggs.back().name = name;
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
  snap.lanes = LaneSnapshot();
  return snap;
}

}  // namespace prof
}  // namespace embsr
