#pragma once

/// \file status.h
/// \brief Error propagation without exceptions.
///
/// Follows the Status idiom used by Arrow/RocksDB: fallible operations
/// return a `wqe::Status` (or `wqe::Result<T>`, see result.h) instead of
/// throwing.  A Status is cheap to copy in the OK case (single enum) and
/// carries a code plus message otherwise.

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

namespace wqe {

/// \brief Machine-readable category of a failure.  Retired codes leave
/// their values unused.
enum class StatusCode : int8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kIOError = 5,
  kParseError = 6,
  kInternal = 9,
  kDeadlineExceeded = 10,
  kResourceExhausted = 12,
};

/// \brief Human-readable name of a status code, e.g. "Invalid argument".
const char* StatusCodeToString(StatusCode code);

/// \brief Result of an operation that can fail.
///
/// The OK state stores no heap data.  Error states carry a message built by
/// the factory functions below.  Statuses must be checked by the caller;
/// helper macros in macros.h (`WQE_RETURN_NOT_OK`, `WQE_CHECK_OK`) make the
/// common propagation patterns terse.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  /// \brief Factory for the OK status.
  static Status OK() { return Status(); }

  /// \name Error factories
  /// Each accepts a stream of `<<`-able message pieces.
  /// @{
  template <typename... Args>
  static Status InvalidArgument(Args&&... args) {
    return Make(StatusCode::kInvalidArgument, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status NotFound(Args&&... args) {
    return Make(StatusCode::kNotFound, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status AlreadyExists(Args&&... args) {
    return Make(StatusCode::kAlreadyExists, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status OutOfRange(Args&&... args) {
    return Make(StatusCode::kOutOfRange, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status IOError(Args&&... args) {
    return Make(StatusCode::kIOError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status ParseError(Args&&... args) {
    return Make(StatusCode::kParseError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Internal(Args&&... args) {
    return Make(StatusCode::kInternal, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status DeadlineExceeded(Args&&... args) {
    return Make(StatusCode::kDeadlineExceeded, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status ResourceExhausted(Args&&... args) {
    return Make(StatusCode::kResourceExhausted, std::forward<Args>(args)...);
  }
  /// @}

  /// \brief True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  StatusCode code() const { return code_; }

  /// \brief The error message; empty for OK.
  const std::string& message() const { return msg_; }

  /// \brief "OK" or "<code name>: <message>".
  std::string ToString() const;

  /// \brief Appends `detail` to this status' message, preserving the code.
  ///
  /// No-op on OK statuses. Useful when adding call-site context while
  /// propagating an error upward.
  Status WithContext(const std::string& detail) const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }
  bool operator!=(const Status& other) const { return !(*this == other); }

 private:
  template <typename... Args>
  static Status Make(StatusCode code, Args&&... args) {
    std::ostringstream ss;
    (ss << ... << std::forward<Args>(args));
    return Status(code, ss.str());
  }

  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace wqe
