#include "prof/cost_model.h"

namespace embsr {
namespace prof {

int64_t NumElems(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

}  // namespace prof
}  // namespace embsr
