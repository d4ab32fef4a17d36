#ifndef EMBSR_PAR_ACCESS_CHECK_H_
#define EMBSR_PAR_ACCESS_CHECK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "par/thread_pool.h"
#include "util/check.h"

namespace embsr {
namespace par {

/// Kernel access-contract sentinel — the DESIGN.md §11 output-partition
/// contract checked structurally instead of by convention.
///
/// In TUs compiled with EMBSR_CHECK_CONTRACTS, every parallel kernel
/// declares, per chunk of its par::For range, which half-open element
/// ranges of which buffers that chunk writes and reads. Before any chunk
/// runs, the checker verifies:
///
///   1. no two chunks write the same element of any buffer;
///   2. no chunk reads an element that a *different* chunk writes (a lane
///      may freely read back its own output);
///   3. serial-by-contract reductions never dispatch through par::For
///      (EMBSR_SENTINEL_SERIAL_REDUCTION below).
///
/// Because the check runs on declared index sets — not on observed
/// interleavings — a partition bug is caught deterministically on every
/// run at every thread count, including EMBSR_THREADS=1 where TSan by
/// construction sees no concurrent access at all. Violations abort through
/// the FATAL logger like every other contract. In release TUs the declare
/// lambdas are never invoked and ForChecked is exactly par::For.

/// Per-chunk access declaration: each range is a half-open [begin, end)
/// span of *element indices* into the buffer identified by `buf` (any
/// stable address — in practice the tensor's data pointer).
class AccessSet {
 public:
  struct Range {
    const void* buf;
    int64_t begin;
    int64_t end;
    bool write;
  };

  void Write(const void* buf, int64_t begin, int64_t end) {
    ranges_.push_back({buf, begin, end, /*write=*/true});
  }
  void Read(const void* buf, int64_t begin, int64_t end) {
    ranges_.push_back({buf, begin, end, /*write=*/false});
  }

  const std::vector<Range>& ranges() const { return ranges_; }

 private:
  std::vector<Range> ranges_;
};

namespace internal {

/// Collects the declared access sets of one checked loop and verifies the
/// partition contract. Compiled unconditionally (callers gate per TU), so
/// a contracts-built test can drive kernels in a release-built library.
class AccessChecker {
 public:
  explicit AccessChecker(const char* kernel) : kernel_(kernel) {}

  void AddChunk(const AccessSet& set);

  /// Aborts via the FATAL logger with "access contract violated" on any
  /// overlapping-write or foreign-read declaration.
  void Verify() const;

 private:
  struct Entry {
    const void* buf;
    int64_t begin;
    int64_t end;
    int64_t chunk;
  };

  const char* kernel_;
  int64_t num_chunks_ = 0;
  std::vector<Entry> writes_;
  std::vector<Entry> reads_;
};

/// par::For calls this on every dispatch; aborts if the calling thread is
/// inside a serial-by-contract reduction scope.
void CheckNotInSerialReduction();

const char* EnterSerialReduction(const char* kernel);  // returns previous
void ExitSerialReduction(const char* prev);

}  // namespace internal

/// Marks the dynamic extent of a serial-by-contract reduction kernel
/// (SumAll, SumRowsTo1xD, ScatterAddRows, SegmentSumRows): any par::For
/// dispatch while a scope is active is a contract violation — the
/// reduction's accumulation order would depend on the partition.
class SerialReductionScope {
 public:
  explicit SerialReductionScope(const char* kernel)
      : prev_(internal::EnterSerialReduction(kernel)) {}
  ~SerialReductionScope() { internal::ExitSerialReduction(prev_); }

  SerialReductionScope(const SerialReductionScope&) = delete;
  SerialReductionScope& operator=(const SerialReductionScope&) = delete;

 private:
  const char* prev_;
};

#if EMBSR_CONTRACTS_ENABLED
#define EMBSR_SENTINEL_SERIAL_REDUCTION(kernel) \
  ::embsr::par::SerialReductionScope embsr_sentinel_serial_scope_(kernel)
#else
#define EMBSR_SENTINEL_SERIAL_REDUCTION(kernel) ((void)0)
#endif

/// par::For plus a per-chunk access declaration. `declare(lo, hi, &set)`
/// must register every buffer range the body's fn(lo, hi) call writes or
/// reads; the declared chunks mirror For's chunking exactly ([begin+i*g,
/// begin+(i+1)*g) clipped to end), which is the *finest* partition For ever
/// uses — For only merges chunks (serial pool, nesting), never splits them,
/// so a partition proven disjoint here is disjoint under every schedule.
/// In release TUs `declare` is not invoked and the call is exactly For.
template <typename DeclareFn, typename BodyFn>
void ForChecked(const char* kernel, int64_t begin, int64_t end, int64_t grain,
                DeclareFn&& declare, BodyFn&& body) {
#if EMBSR_CONTRACTS_ENABLED
  if (begin < end) {
    const int64_t g = grain < 1 ? 1 : grain;
    internal::AccessChecker checker(kernel);
    for (int64_t lo = begin; lo < end; lo += g) {
      const int64_t hi = lo + g < end ? lo + g : end;
      AccessSet set;
      declare(lo, hi, &set);
      checker.AddChunk(set);
    }
    checker.Verify();
  }
#else
  (void)kernel;
  (void)declare;
#endif
  For(begin, end, grain, std::forward<BodyFn>(body));
}

}  // namespace par
}  // namespace embsr

#endif  // EMBSR_PAR_ACCESS_CHECK_H_
