//===- support/Status.h - Structured error propagation ---------*- C++ -*-===//
///
/// \file
/// Structured errors for DISTAL's user-facing failure paths. A Status is a
/// code plus a human-readable message; StatusOr<T> carries a value or the
/// Status explaining its absence. The engine's boundary APIs
/// (Distribution/Format parsing, Tensor::tryCompile/tryEvaluate,
/// CompiledPlan::tryExecute, Executor::tryRun) return these instead of
/// aborting the process, which is what lets a long-lived server survive a
/// malformed request or a failed execution without poisoning the
/// process-wide PlanCache.
///
/// Internally, deep call paths (parsers, schedule validation, lowering, the
/// execute walk) signal failure by throwing DistalError — an exception
/// wrapping a Status — which the boundary APIs catch and return. True
/// invariant violations stay on DISTAL_ASSERT / distal::unreachable: a bug
/// in the engine is not a recoverable condition and must keep failing fast.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SUPPORT_STATUS_H
#define DISTAL_SUPPORT_STATUS_H

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "support/Error.h"

namespace distal {

/// Failure category of a Status. Loosely follows the absl/gRPC canonical
/// codes, restricted to what the engine actually produces.
enum class ErrorCode : uint8_t {
  Ok = 0,
  /// Malformed user input: bad distribution strings, inconsistent
  /// schedules, missing regions, undefined computations.
  InvalidArgument,
  /// The operation is valid but the object cannot serve it right now —
  /// notably an open circuit breaker or an artifact being destroyed.
  FailedPrecondition,
  /// Allocation failure (std::bad_alloc or an injected equivalent).
  ResourceExhausted,
  /// A deterministic fault-injection hook fired (testing only; see
  /// support/FaultInjector.h).
  Injected,
  /// The caller cancelled the operation through a CancelToken (or by
  /// dropping every copy of an unclaimed deferred future).
  Cancelled,
  /// The operation's deadline passed before it completed — either while
  /// queued (it never ran) or mid-execution (it stopped at its next
  /// cancellation point).
  DeadlineExceeded,
  /// Everything else that crossed a boundary as an exception.
  Internal,
};

const char *toString(ErrorCode Code);

/// An error code plus message. Default-constructed Status is OK.
class Status {
public:
  Status() = default;
  Status(ErrorCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {}

  bool ok() const { return Code == ErrorCode::Ok; }
  ErrorCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// Appends "; Note" to the message (for containment outcomes) without
  /// losing the original code.
  Status &appendNote(const std::string &Note) {
    Message += Message.empty() ? Note : "; " + Note;
    return *this;
  }

  /// "OK" or "<CODE>: <message>".
  std::string str() const;

private:
  ErrorCode Code = ErrorCode::Ok;
  std::string Message;
};

/// A value of type T or the Status explaining why there is none.
template <typename T> class StatusOr {
public:
  StatusOr(T Value) // NOLINT(google-explicit-constructor)
      : Value(std::move(Value)) {}
  StatusOr(Status S) // NOLINT(google-explicit-constructor)
      : S(std::move(S)) {
    DISTAL_ASSERT(!this->S.ok(), "StatusOr built from an OK status without "
                                 "a value");
  }

  bool ok() const { return Value.has_value(); }
  const Status &status() const { return S; }

  const T &value() const & {
    DISTAL_ASSERT(ok(), "value() on an errored StatusOr");
    return *Value;
  }
  T &value() & {
    DISTAL_ASSERT(ok(), "value() on an errored StatusOr");
    return *Value;
  }
  T &&value() && {
    DISTAL_ASSERT(ok(), "value() on an errored StatusOr");
    return std::move(*Value);
  }

  const T &operator*() const & { return value(); }
  T &operator*() & { return value(); }
  const T *operator->() const { return &value(); }
  T *operator->() { return &value(); }

private:
  Status S;
  std::optional<T> Value;
};

/// The exception deep layers throw to signal a recoverable, user-facing
/// failure. Boundary APIs catch it and return the carried Status; anything
/// escaping uncaught terminates loudly with the message in what().
class DistalError : public std::exception {
public:
  explicit DistalError(Status S) : S(std::move(S)), What(this->S.str()) {}

  const Status &status() const { return S; }
  const char *what() const noexcept override { return What.c_str(); }

private:
  Status S;
  std::string What;
};

/// Throws DistalError with the given code and message.
[[noreturn]] void throwError(ErrorCode Code, std::string Message);
[[noreturn]] void throwStatus(Status S);

/// Converts the in-flight exception (call inside a catch block only) to a
/// Status: DistalError keeps its code, std::bad_alloc becomes
/// ResourceExhausted, other std::exceptions become Internal.
Status statusFromCurrentException();

} // namespace distal

#endif // DISTAL_SUPPORT_STATUS_H
