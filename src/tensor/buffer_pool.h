#ifndef EMBSR_TENSOR_BUFFER_POOL_H_
#define EMBSR_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

namespace embsr {
namespace tensor_pool {

/// Counts tensor storage allocations. Tensor constructors and copies fill
/// their storage vectors through Acquire/AcquireCopy, which reuse the
/// destination's capacity when it fits (as std::vector::assign does) and
/// allocate otherwise. HeapAcquires() is the per-thread number of
/// acquisitions that had to grow their destination: the "tensor heap
/// allocations per step" figure the end-to-end benchmark reports. Contents
/// are assign()-filled, so an acquisition is bit-identical to constructing
/// the vector directly.

/// Fill `out` with n elements, every one set to `fill` (or copied from
/// `src`). `out` is overwritten.
void Acquire(std::vector<float>* out, int64_t n, float fill);
void AcquireCopy(std::vector<float>* out, const float* src, int64_t n);

/// Acquisitions on this thread whose destination capacity was short of n.
int64_t HeapAcquires();

}  // namespace tensor_pool
}  // namespace embsr

#endif  // EMBSR_TENSOR_BUFFER_POOL_H_
