#ifndef PROCSIM_UTIL_STATUS_H_
#define PROCSIM_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "util/logging.h"

namespace procsim {

// Error categories used across the library.  Kept deliberately small; this
// is a single-process research system, not a distributed store.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kInternal,
  kUnimplemented,
  kFailedPrecondition,
  kAborted,
};

/// \brief Success-or-error result used throughout the library instead of
/// exceptions (exceptions are disabled by convention; see DESIGN.md).
///
/// A default-constructed Status is OK.  Error statuses carry a code and a
/// human-readable message.
class Status {
 public:
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
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  /// The operation was refused by concurrency control (an S→X upgrade
  /// that would deadlock).  Distinct from kInternal: an Aborted
  /// transaction is the protocol working, not a bug — callers retry or
  /// drop the transaction.
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + message_;
  }

  static std::string CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk:
        return "OK";
      case StatusCode::kInvalidArgument:
        return "InvalidArgument";
      case StatusCode::kNotFound:
        return "NotFound";
      case StatusCode::kAlreadyExists:
        return "AlreadyExists";
      case StatusCode::kOutOfRange:
        return "OutOfRange";
      case StatusCode::kInternal:
        return "Internal";
      case StatusCode::kUnimplemented:
        return "Unimplemented";
      case StatusCode::kFailedPrecondition:
        return "FailedPrecondition";
      case StatusCode::kAborted:
        return "Aborted";
    }
    return "Unknown";
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Holds either a value of type T or an error Status.
///
/// Modeled after arrow::Result.  Access to the value of an error Result is
/// a checked fatal error.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit wrap.
  Result(T value) : repr_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit wrap.
  Result(Status status) : repr_(std::move(status)) {
    PROCSIM_CHECK(!std::get<Status>(repr_).ok())
        << "Result constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }

  const T& ValueOrDie() const {
    PROCSIM_CHECK(ok()) << status().ToString();
    return std::get<T>(repr_);
  }

  T& ValueOrDie() {
    PROCSIM_CHECK(ok()) << status().ToString();
    return std::get<T>(repr_);
  }

  T TakeValueOrDie() {
    PROCSIM_CHECK(ok()) << status().ToString();
    return std::move(std::get<T>(repr_));
  }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace procsim

/// Propagates an error Status out of the current function.
#define PROCSIM_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::procsim::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

#endif  // PROCSIM_UTIL_STATUS_H_
