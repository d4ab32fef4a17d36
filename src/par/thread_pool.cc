#include "par/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "par/access_check.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prof/enabled.h"
#include "prof/pool_stats.h"
#include "util/check.h"
#include "util/env.h"
#include "util/timer.h"

namespace embsr {
namespace par {

namespace {

/// True while the current thread is executing chunks of a task set — on a
/// worker, or on the submitting thread while it participates. Nested For()
/// calls check this and run inline.
thread_local bool t_in_parallel_region = false;

/// Profiler lane id of the current thread: 0 for any non-pool thread
/// (submitters participate as lane 0), i+1 for pool worker i. Only read
/// when pool profiling is on.
thread_local int t_lane = 0;

/// EMBSR_THREADS semantics: unset/0 -> hardware concurrency, 1 -> strict
/// serial, N -> N lanes. Clamped to [1, 256] (a runaway value would only
/// oversubscribe; 256 is far above any machine this targets).
int ConfiguredThreadCount() {
  int n = GetEnvInt("EMBSR_THREADS", 0);
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;  // hardware_concurrency() may report 0
  return std::min(n, 256);
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::Registry::Global().GetGauge("par/queue_depth");
  return gauge;
}

obs::Counter* ChunkCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("par/chunks_total");
  return counter;
}

obs::Histogram* ChunkMsHist() {
  static obs::Histogram* h = obs::Registry::Global().GetHistogram(
      "par/chunk_ms", obs::DefaultLatencyBucketsMs());
  return h;
}

/// Bounds in percent of the perfectly-balanced per-lane chunk share; 100
/// means every lane ran exactly num_chunks/lanes chunks.
obs::Histogram* ImbalanceHist() {
  static obs::Histogram* h = obs::Registry::Global().GetHistogram(
      "par/chunk_imbalance_pct",
      {100.0, 110.0, 125.0, 150.0, 200.0, 300.0, 500.0, 1000.0});
  return h;
}

/// Profiled execution of one inline slice/chunk: times it, credits the
/// current lane, and feeds the chunk-latency histogram. Only reached when
/// prof::Enabled().
template <typename Body>
void RunChunkProfiled(const Body& body) {
  const int64_t t0 = NowNs();
  body();
  const int64_t dur = NowNs() - t0;
  prof::AddLaneBusy(t_lane, dur, 1);
  ChunkMsHist()->Observe(static_cast<double>(dur) * 1e-6);
}

}  // namespace

/// One fork-join task set: a chunk function plus the claim/completion
/// cursors. Shared (via shared_ptr) between the submitter and the workers
/// so a worker that wakes up late never dereferences a dead task.
struct ThreadPool::TaskSet {
  const std::function<void(int64_t)>* fn = nullptr;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> finished{0};  // counts executed AND skipped chunks
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;  // first failure wins
  /// Per-lane executed-chunk counts, allocated (threads_ slots) only while
  /// pool profiling is on; feeds the chunk-imbalance histogram.
  std::unique_ptr<std::atomic<int64_t>[]> prof_lane_chunks;
};

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i + 1 < threads_; ++i) {
    // The pool is the one sanctioned owner of raw threads in this tree —
    // everything else goes through par::For so thread count, nesting and
    // determinism stay centrally controlled.
    workers_.emplace_back([this, i] {
      WorkerLoop(i + 1);
    });  // lint: allow(raw-thread): the pool itself
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

void ThreadPool::WorkerLoop(int lane) {
  t_in_parallel_region = true;  // workers only ever run task chunks
  t_lane = lane;
  std::shared_ptr<TaskSet> last_seen;
  for (;;) {
    std::shared_ptr<TaskSet> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || (task_ && task_ != last_seen); });
      if (stop_) return;
      task = task_;
    }
    last_seen = task;
    RunChunks(task.get());
  }
}

void ThreadPool::RunChunks(TaskSet* task) {
  for (;;) {
    const int64_t chunk = task->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= task->num_chunks) return;
    // Once one chunk failed the task's result is a rethrow; the remaining
    // chunks are claimed and counted but not executed so the set drains
    // fast. (finished must reach num_chunks either way — it is the
    // completion condition.)
    if (!task->failed.load(std::memory_order_acquire)) {
      EMBSR_TRACE_SPAN("par/chunk");
      auto body = [&] {
        try {
          (*task->fn)(chunk);
        } catch (...) {
          std::lock_guard<std::mutex> lock(task->error_mu);
          if (!task->error) task->error = std::current_exception();
          task->failed.store(true, std::memory_order_release);
        }
      };
      if (task->prof_lane_chunks) {
        RunChunkProfiled(body);
        task->prof_lane_chunks[t_lane].fetch_add(1,
                                                 std::memory_order_relaxed);
      } else {
        body();
      }
    }
    if (task->finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        task->num_chunks) {
      // Take mu_ before notifying: the submitter checks the completion
      // predicate under mu_, and `finished` itself is written outside it —
      // without this lock the notify could slot between the submitter's
      // predicate check and its sleep and be lost.
      std::lock_guard<std::mutex> lock(mu_);
      done_.notify_all();
      return;
    }
  }
}

void ThreadPool::Run(int64_t num_chunks,
                     const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  // Inline paths: serial pool, nested submission from inside a parallel
  // region, or a single chunk. Exceptions propagate naturally.
  if (threads_ <= 1 || t_in_parallel_region || num_chunks == 1) {
    if (prof::Enabled()) {
      for (int64_t c = 0; c < num_chunks; ++c) {
        RunChunkProfiled([&] { fn(c); });
      }
    } else {
      for (int64_t c = 0; c < num_chunks; ++c) fn(c);
    }
    return;
  }

  // One task set at a time: concurrent external submitters queue up here.
  // Nested submissions ran inline above, so a thread never waits on a lock
  // it already holds.
  std::lock_guard<std::mutex> run_lock(run_mu_);

  auto task = std::make_shared<TaskSet>();
  task->fn = &fn;
  task->num_chunks = num_chunks;
  if (prof::Enabled()) {
    // Value-initialized -> all counts start at 0.
    task->prof_lane_chunks =
        std::make_unique<std::atomic<int64_t>[]>(threads_);
  }
  ChunkCounter()->Add(num_chunks);
  QueueDepthGauge()->Set(static_cast<double>(num_chunks));
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = task;
  }
  wake_.notify_all();

  // The submitting thread is a full lane: claim chunks like any worker.
  // Mark it in-region so kernels it runs don't try to re-enter the pool.
  t_in_parallel_region = true;
  RunChunks(task.get());
  t_in_parallel_region = false;

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] {
      return task->finished.load(std::memory_order_acquire) ==
             task->num_chunks;
    });
    task_.reset();
  }
  QueueDepthGauge()->Set(0.0);

  if (task->prof_lane_chunks) {
    int64_t max_chunks = 0;
    for (int i = 0; i < threads_; ++i) {
      max_chunks = std::max(
          max_chunks,
          task->prof_lane_chunks[i].load(std::memory_order_relaxed));
    }
    const double fair_share =
        static_cast<double>(num_chunks) / static_cast<double>(threads_);
    if (fair_share > 0.0) {
      ImbalanceHist()->Observe(100.0 * static_cast<double>(max_chunks) /
                               fair_share);
    }
  }

  if (task->error) std::rethrow_exception(task->error);
}

namespace {

std::mutex g_pool_mu;
ThreadPool* g_pool = nullptr;

ThreadPool* GlobalPoolSlot() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) {
    // Leaked deliberately: worker threads must outlive every static whose
    // destructor might still submit work at exit.
    // lint: allow(raw-new): leaked singleton
    g_pool = new ThreadPool(ConfiguredThreadCount());
  }
  return g_pool;
}

}  // namespace

ThreadPool& ThreadPool::Global() { return *GlobalPoolSlot(); }

int ThreadCount() { return ThreadPool::Global().threads(); }

void SetThreadCount(int threads) {
  // lint: allow(raw-new): swapped into the leaked singleton slot
  ThreadPool* replacement = new ThreadPool(
      threads > 0 ? threads : ConfiguredThreadCount());
  ThreadPool* old = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    old = g_pool;
    g_pool = replacement;
  }
  // Joins the retiring pool's workers before returning.
  delete old;  // lint: allow(raw-new): retiring the previous singleton
}

void For(int64_t begin, int64_t end, int64_t grain,
         const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  // Serial-by-contract reductions must never dispatch parallel work — not
  // even on the inline paths below, since the same call would split the
  // reduction at another thread count. One thread-local load when clean.
  internal::CheckNotInSerialReduction();
  const int64_t g = std::max<int64_t>(1, grain);
  const int64_t span = end - begin;
  const int64_t num_chunks = (span + g - 1) / g;
  // Fast path: nothing to distribute, or we're already inside a parallel
  // region. Avoids even the Global() lookup for small serial work.
  if (num_chunks == 1 || ThreadPool::InParallelRegion()) {
    if (prof::Enabled()) {
      RunChunkProfiled([&] { fn(begin, end); });
    } else {
      fn(begin, end);
    }
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  if (pool.threads() <= 1) {
    if (prof::Enabled()) {
      RunChunkProfiled([&] { fn(begin, end); });
    } else {
      fn(begin, end);
    }
    return;
  }
  pool.Run(num_chunks, [&](int64_t chunk) {
    const int64_t b = begin + chunk * g;
    const int64_t e = std::min(end, b + g);
    fn(b, e);
  });
}

}  // namespace par
}  // namespace embsr
