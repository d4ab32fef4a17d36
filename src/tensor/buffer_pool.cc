#include "tensor/buffer_pool.h"

#include <cstddef>

namespace embsr {
namespace tensor_pool {

namespace {

thread_local int64_t t_heap_acquires = 0;

void CountIfShort(const std::vector<float>& out, int64_t n) {
  if (out.capacity() < static_cast<size_t>(n)) ++t_heap_acquires;
}

}  // namespace

void Acquire(std::vector<float>* out, int64_t n, float fill) {
  CountIfShort(*out, n);
  out->assign(static_cast<size_t>(n), fill);
}

void AcquireCopy(std::vector<float>* out, const float* src, int64_t n) {
  CountIfShort(*out, n);
  out->assign(src, src + n);
}

int64_t HeapAcquires() { return t_heap_acquires; }

}  // namespace tensor_pool
}  // namespace embsr
