// The structured failure model: an error taxonomy every layer reports
// through, exception classes that carry it, and an exception-free Status
// mirror for callers that cannot (or do not want to) catch.
//
// Three concrete exception classes keep the pre-taxonomy catch contracts
// alive while every error now carries an ErrorCode, a source location,
// and an optional context payload (tree node, input line, detail text):
//
//   InvalidInputError : std::invalid_argument  — bad user input (require)
//   InternalError     : std::logic_error       — broken invariant (check)
//   SolverError       : std::runtime_error     — runtime failures: singular
//                       matrices, pivot breakdown, exhausted resources,
//                       I/O errors, worker-thread failures
//
// Status::from_current_exception() folds any in-flight exception into the
// taxonomy (std::bad_alloc -> kResourceExhausted, unknown -> kInternal),
// which is what the try_* facade entry points and the worker pools use to
// guarantee a structured report instead of a raw escape.
#pragma once

#include <exception>
#include <source_location>
#include <stdexcept>
#include <string>

#include "memfront/support/types.hpp"

namespace memfront {

/// Every way a memfront operation can end.
enum class ErrorCode : unsigned char {
  kOk = 0,
  kInvalidInput,        // malformed matrix/options/file (user-fixable)
  kSingularMatrix,      // exactly singular pivot block, caller opted into failing
  kPivotBreakdown,      // non-finite pivots: the factorization is numerically dead
  kResourceExhausted,   // allocation failure (CB, workspace) or infeasible budget
  kIoError,             // out-of-core read/write failed after bounded retries
  kWorkerFailure,       // a worker thread failed with a non-taxonomy exception
  kInternal,            // broken invariant (check()) or unknown exception
};

/// Stable lowercase name ("ok", "invalid_input", ...) for logs and JSON.
const char* error_code_name(ErrorCode code) noexcept;

/// Optional payload errors carry beyond the message.
struct ErrorContext {
  index_t node = kNone;          // assembly-tree node, when meaningful
  long input_line = -1;          // 1-based text-input line (matrix market)
  std::string detail;            // free-form extra (site name, byte count...)
};

namespace status_detail {
/// "file.cpp:123 in fn: code_name: message [node 7] [line 12]".
std::string format_message(ErrorCode code, const std::string& message,
                           const std::source_location& loc,
                           const ErrorContext& ctx);
}  // namespace status_detail

/// Runtime failure carrying the taxonomy. The what() string embeds
/// file:line, the code name, and the context payload.
class SolverError : public std::runtime_error {
 public:
  SolverError(ErrorCode code, const std::string& message,
              std::source_location loc = std::source_location::current(),
              ErrorContext context = {})
      : std::runtime_error(
            status_detail::format_message(code, message, loc, context)),
        code_(code),
        context_(std::move(context)),
        location_(loc) {}

  ErrorCode code() const noexcept { return code_; }
  const ErrorContext& context() const noexcept { return context_; }
  const std::source_location& where() const noexcept { return location_; }

 private:
  ErrorCode code_;
  ErrorContext context_;
  std::source_location location_;
};

/// Invalid user input; also catchable as std::invalid_argument (the
/// pre-taxonomy contract of require()). code() is always kInvalidInput.
class InvalidInputError : public std::invalid_argument {
 public:
  explicit InvalidInputError(
      const std::string& message,
      std::source_location loc = std::source_location::current(),
      ErrorContext context = {})
      : std::invalid_argument(status_detail::format_message(
            ErrorCode::kInvalidInput, message, loc, context)),
        context_(std::move(context)),
        location_(loc) {}

  ErrorCode code() const noexcept { return ErrorCode::kInvalidInput; }
  const ErrorContext& context() const noexcept { return context_; }
  const std::source_location& where() const noexcept { return location_; }

 private:
  ErrorContext context_;
  std::source_location location_;
};

/// Broken invariant; also catchable as std::logic_error (the pre-taxonomy
/// contract of check()). code() is always kInternal.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(
      const std::string& message,
      std::source_location loc = std::source_location::current(),
      ErrorContext context = {})
      : std::logic_error(status_detail::format_message(ErrorCode::kInternal,
                                                       message, loc, context)),
        context_(std::move(context)),
        location_(loc) {}

  ErrorCode code() const noexcept { return ErrorCode::kInternal; }
  const ErrorContext& context() const noexcept { return context_; }
  const std::source_location& where() const noexcept { return location_; }

 private:
  ErrorContext context_;
  std::source_location location_;
};

/// Exception-free result: kOk, or the code + formatted message of the
/// failure. The try_* facade entry points return this.
struct Status {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  bool ok() const noexcept { return code == ErrorCode::kOk; }
  explicit operator bool() const noexcept { return ok(); }

  static Status success() { return {}; }

  /// Maps the in-flight exception (call inside a catch block) onto the
  /// taxonomy: taxonomy classes keep their code, std::bad_alloc becomes
  /// kResourceExhausted, std::invalid_argument kInvalidInput, everything
  /// else kInternal.
  static Status from_current_exception() noexcept;
};

/// Rethrows `error` with the taxonomy guaranteed: taxonomy exceptions
/// pass through unchanged; anything else is wrapped as a SolverError with
/// `wrap_code` (the worker pools use kWorkerFailure) and the original
/// what() preserved in the message. `where` names the failing stage.
[[noreturn]] void rethrow_structured(std::exception_ptr error,
                                     const char* where,
                                     ErrorCode wrap_code = ErrorCode::kWorkerFailure);

}  // namespace memfront
