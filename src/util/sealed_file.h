#ifndef EMBSR_UTIL_SEALED_FILE_H_
#define EMBSR_UTIL_SEALED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "util/status.h"

namespace embsr {

/// The framing both durable formats share (checkpoints, nn/checkpoint.h;
/// session snapshots, serve/session_store.h). Little-endian, fields as laid
/// out in memory:
///
///   magic (8 bytes) | version u32 | payload | CRC-32 u32
///
/// The CRC covers every byte before it, so truncation and bit rot are
/// always detected. An image is assembled and parsed whole in memory (both
/// formats are small), which is what makes the atomic tmp+rename write and
/// the whole-file CRC trivially correct. The formats themselves own only
/// their payload layouts and plausibility caps.

/// Builds an image: magic and version at construction, the payload through
/// Write/WriteBytes, the CRC trailer in Seal.
class SealedWriter {
 public:
  SealedWriter(const char (&magic)[8], uint32_t version);

  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }
  void WriteBytes(const void* data, size_t n);

  /// Appends the CRC of everything written so far; returns the image.
  std::string Seal() &&;

 private:
  std::string buf_;
};

/// Bounds-checked cursor over an image's payload. Every error is
/// InvalidArgument and names the format (`kind`, e.g. "checkpoint"), the
/// field being read and the byte offset. The reader keeps a reference to
/// `image`, which must outlive it.
class SealedReader {
 public:
  SealedReader(const std::string& image, std::string kind);

  /// Checks the magic, then the version, then the CRC, and puts the cursor
  /// at the first payload byte. In that order, a file of another version
  /// reports its version even when it carries no CRC at all.
  Status Open(const char (&magic)[8], uint32_t version);

  Status ReadBytes(void* dst, size_t n, const std::string& what);
  template <typename T>
  Status Read(T* value, const std::string& what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T), what);
  }

  /// Payload bytes left before the CRC.
  size_t remaining() const { return end_ - off_; }

  /// "corrupt <kind>: <what> at offset <offset>", for a field that was read
  /// whole but is implausible.
  Status Corrupt(const std::string& what) const;

  /// Fails unless the whole payload has been read.
  Status End() const;

 private:
  const std::string& image_;
  std::string kind_;
  size_t off_ = 0;
  size_t end_;
};

}  // namespace embsr

#endif  // EMBSR_UTIL_SEALED_FILE_H_
