#ifndef EMBSR_UTIL_CRC32_H_
#define EMBSR_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace embsr {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/PNG variant) of
/// `n` bytes. The sealed-file trailer (util/sealed_file.h) is one; a
/// single-bit flip anywhere in the covered range always changes the sum.
uint32_t Crc32(const void* data, size_t n);

}  // namespace embsr

#endif  // EMBSR_UTIL_CRC32_H_
