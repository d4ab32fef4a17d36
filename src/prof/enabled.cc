#include "prof/enabled.h"

#include "util/env.h"

namespace embsr {
namespace prof {
namespace internal {

// EMBSR_PROF=1 opens a session during static initialization, before main(),
// the way EMBSR_TRACE arms tracing: test binaries and tools profile without
// calling prof::Start(). Nothing is recorded yet, so there is nothing to
// clear; BenchReport::Write stops the session and publishes it.
std::atomic<bool> g_enabled{GetEnvInt("EMBSR_PROF", 0) == 1};

}  // namespace internal
}  // namespace prof
}  // namespace embsr
