#ifndef EMBSR_PROF_ENABLED_H_
#define EMBSR_PROF_ENABLED_H_

#include <atomic>

namespace embsr {
namespace prof {

namespace internal {
// The one profiler enable flag, flipped by prof::Start()/Stop(). Every hook
// (tensor alloc/free, pool chunks, autograd record points) reads it, so any
// binary that links a hook also links enabled.cc, whose initializer arms
// the flag from EMBSR_PROF=1 at process start. One load of it is the only
// cost a hook pays when profiling is off (the zero-overhead-when-off
// guarantee, pinned by perf_regression_test).
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True while a profiling session is active.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

}  // namespace prof
}  // namespace embsr

#endif  // EMBSR_PROF_ENABLED_H_
