#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>

#include "obs/json.h"
#include "util/env.h"
#include "util/timer.h"

namespace embsr {
namespace obs {

namespace {

std::atomic<bool>& TimingFlag() {
  static std::atomic<bool> flag{[] {
    const std::string v = GetEnvString("EMBSR_METRICS", "");
    return !v.empty() && v != "0";
  }()};
  return flag;
}

}  // namespace

bool TimingEnabled() {
  return TimingFlag().load(std::memory_order_relaxed);
}

void SetTimingEnabled(bool enabled) {
  TimingFlag().store(enabled, std::memory_order_relaxed);
}

TraceSession::TraceSession() {
  const std::string path = GetEnvString("EMBSR_TRACE", "");
  if (!path.empty()) {
    Start(path);
    // Write the trace out when the process ends, so `EMBSR_TRACE=x ./bench`
    // just works without any cooperation from main().
    std::atexit([] {
      const Status s = TraceSession::Global().Stop();
      if (!s.ok()) {
        std::fprintf(stderr, "embsr: trace export failed: %s\n",
                     s.ToString().c_str());
      }
    });
  }
}

TraceSession& TraceSession::Global() {
  static TraceSession* instance =
      new TraceSession();  // lint: allow(raw-new): leaked singleton, never destroyed
  return *instance;
}

void TraceSession::Start(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
  }
  path_ = std::move(path);
  origin_ns_.store(NowNs(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

Status TraceSession::Stop() {
  const bool was_enabled = enabled_.exchange(false);
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path.swap(path_);
  }
  if (!was_enabled || path.empty()) return Status::OK();

  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file '" + path + "'");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to trace file '" + path + "'");
  }
  return Status::OK();
}

int64_t TraceSession::NowUs() const {
  return (NowNs() - origin_ns_.load(std::memory_order_relaxed)) / 1000;
}

TraceSession::ThreadBuffer* TraceSession::GetThreadBuffer() {
  // The shared_ptr is held both by the thread and the session, so events
  // survive thread exit and Stop() can always merge them.
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = next_tid_++;
    buffers_.push_back(buffer);
  }
  return buffer.get();
}

void TraceSession::Record(const char* name, int64_t ts_us, int64_t dur_us) {
  if (!enabled()) return;
  ThreadBuffer* buf = GetThreadBuffer();
  std::lock_guard<std::mutex> lock(buf->mu);
  buf->events.push_back(
      TraceEvent{name, ts_us < 0 ? 0 : ts_us, dur_us, buf->tid});
}

std::vector<TraceEvent> TraceSession::SnapshotEvents() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

size_t TraceSession::event_count() const {
  size_t n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::string TraceSession::ToJson() const {
  const std::vector<TraceEvent> events = SnapshotEvents();
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("cat").String("embsr");
    w.Key("ph").String("X");
    w.Key("ts").Int(e.ts_us);
    w.Key("dur").Int(e.dur_us);
    w.Key("pid").Int(1);
    w.Key("tid").Int(e.tid);
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.EndObject();
  return w.str();
}

}  // namespace obs
}  // namespace embsr
