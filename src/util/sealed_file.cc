#include "util/sealed_file.h"

#include <cstring>
#include <utility>

#include "util/crc32.h"

namespace embsr {

SealedWriter::SealedWriter(const char (&magic)[8], uint32_t version) {
  WriteBytes(magic, sizeof(magic));
  Write(version);
}

void SealedWriter::WriteBytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

std::string SealedWriter::Seal() && {
  Write(Crc32(buf_.data(), buf_.size()));
  return std::move(buf_);
}

SealedReader::SealedReader(const std::string& image, std::string kind)
    : image_(image), kind_(std::move(kind)), end_(image.size()) {}

Status SealedReader::Open(const char (&magic)[8], uint32_t version) {
  if (end_ < sizeof(magic) ||
      std::memcmp(image_.data(), magic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a " + kind_ + " (bad magic)");
  }
  off_ = sizeof(magic);
  uint32_t found = 0;
  Status s = Read(&found, "version");
  if (!s.ok()) return s;
  if (found != version) {
    return Status::InvalidArgument("unsupported " + kind_ + " version " +
                                   std::to_string(found));
  }
  uint32_t stored = 0;
  if (remaining() < sizeof(stored)) {
    return Status::InvalidArgument(kind_ + " of " + std::to_string(end_) +
                                   " bytes is too short for a CRC");
  }
  end_ -= sizeof(stored);
  std::memcpy(  // lint: allow(data-arith): byte I/O, end_ = size - 4 checked above
      &stored, image_.data() + end_, sizeof(stored));
  const uint32_t computed = Crc32(image_.data(), end_);
  if (stored != computed) {
    return Status::InvalidArgument(
        kind_ + " CRC mismatch: stored " + std::to_string(stored) +
        ", computed " + std::to_string(computed) + " over bytes [0, " +
        std::to_string(end_) + ")");
  }
  return Status::OK();
}

Status SealedReader::ReadBytes(void* dst, size_t n, const std::string& what) {
  if (n > remaining()) {
    return Status::InvalidArgument(
        "truncated " + kind_ + ": need " + std::to_string(n) + " bytes for " +
        what + " at offset " + std::to_string(off_) + ", have " +
        std::to_string(remaining()));
  }
  if (n > 0) {  // an empty destination may be null, which memcpy forbids
    std::memcpy(  // lint: allow(data-arith): byte I/O, n <= remaining() checked above
        dst, image_.data() + off_, n);
  }
  off_ += n;
  return Status::OK();
}

Status SealedReader::Corrupt(const std::string& what) const {
  return Status::InvalidArgument("corrupt " + kind_ + ": " + what +
                                 " at offset " + std::to_string(off_));
}

Status SealedReader::End() const {
  if (remaining() == 0) return Status::OK();
  return Corrupt(std::to_string(remaining()) +
                 " trailing bytes before the CRC");
}

}  // namespace embsr
