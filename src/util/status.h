#ifndef EMBSR_UTIL_STATUS_H_
#define EMBSR_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace embsr {

/// Error codes used across the library. Modeled after the RocksDB/Abseil
/// convention: library entry points that can fail return a Status (or a
/// Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  /// The caller's deadline expired before the operation completed; any
  /// partial work was abandoned, not returned (serving-path contract).
  kDeadlineExceeded,
  /// A bounded resource (admission queue, capacity budget) is full and the
  /// request was shed instead of queued unboundedly.
  kResourceExhausted,
};

/// A Status describes the outcome of an operation: OK, or an error code
/// together with a human-readable message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders e.g. "InvalidArgument: batch size must be positive".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type T or an error Status. Accessing the value of
/// an errored Result aborts the process (see CHECK in check.h), so callers
/// must test ok() first on fallible paths.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

}  // namespace embsr

#endif  // EMBSR_UTIL_STATUS_H_
