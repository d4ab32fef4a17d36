#include "util/crc32.h"

#include <array>

namespace embsr {

namespace {

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t state = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    state = kTable[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

}  // namespace embsr
