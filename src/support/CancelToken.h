//===- support/CancelToken.h - Cooperative cancellation ---------*- C++ -*-===//
///
/// \file
/// A CancelToken is the engine's cooperative cancellation and deadline
/// primitive: a copyable handle over a shared atomic flag plus an optional
/// absolute steady-clock deadline. The caller stores one in
/// ExecOptions::Cancel; the execution paths (every task's step boundaries,
/// CompiledProgram node boundaries, and ThreadPool::parallelFor chunk
/// claims) poll it with check(), which throws DistalError(Cancelled) or
/// DistalError(DeadlineExceeded) once the token trips. The throw unwinds
/// through the existing per-arena containment path (the arena is
/// discarded), so a cancelled execution leaves the artifact reusable
/// exactly like any other contained failure.
///
/// Cost discipline mirrors the fault injector: a default-constructed
/// (invalid) token costs a null-pointer test per check, and a valid but
/// quiet token costs one relaxed atomic load. Only a deadline-armed token
/// reads the clock. Trips latch: once cancelled or expired, a token stays
/// that way, and every copy observes it.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SUPPORT_CANCELTOKEN_H
#define DISTAL_SUPPORT_CANCELTOKEN_H

#include <atomic>
#include <chrono>
#include <memory>

#include "support/Status.h"

namespace distal {

/// Copyable handle to shared cancellation state. All copies alias the same
/// flag: cancel() through any copy trips every copy. A default-constructed
/// token is invalid — it never trips and costs a pointer test per check().
class CancelToken {
public:
  /// Invalid token: valid() is false, check() is free and never throws.
  CancelToken() = default;

  /// A fresh, quiet token with no deadline; trips only via cancel().
  static CancelToken create();

  /// A token that trips DeadlineExceeded once the steady clock passes
  /// \p Deadline (and may still be cancel()ed earlier).
  static CancelToken withDeadline(std::chrono::steady_clock::time_point Deadline);

  /// Convenience: a deadline of now() + \p Timeout.
  static CancelToken withTimeout(std::chrono::nanoseconds Timeout);

  /// Whether this handle aliases shared state at all.
  bool valid() const { return S != nullptr; }

  /// Trips the token with ErrorCode::Cancelled. Idempotent; loses to an
  /// already-latched deadline trip (the first trip wins). Safe from any
  /// thread. No-op on an invalid token.
  void cancel() const;

  /// Non-throwing poll: true once the token has tripped (latching a
  /// just-passed deadline as a side effect). When tripped and \p Out is
  /// non-null, *Out receives the Cancelled / DeadlineExceeded Status.
  bool tripped(Status *Out = nullptr) const;

  /// ErrorCode::Ok while quiet, else Cancelled or DeadlineExceeded.
  ErrorCode reason() const;

  /// The hot-path poll: throws DistalError(Cancelled/DeadlineExceeded) once
  /// tripped, returns otherwise. Invalid token: a pointer test. Valid and
  /// quiet with no deadline: one relaxed load.
  void check() const {
    if (!S)
      return;
    uint32_t W = S->Word.load(std::memory_order_relaxed);
    if (W == Quiet)
      return;
    checkSlow(W);
  }

private:
  // Word encodes the latched lifecycle: Quiet (no deadline) never trips on
  // its own; Armed means "compare the clock against Deadline"; the two trip
  // states are terminal.
  enum : uint32_t { Quiet = 0, Armed = 1, CancelledBit = 2, ExpiredBit = 3 };

  struct State {
    std::atomic<uint32_t> Word{Quiet};
    std::chrono::steady_clock::time_point Deadline{};
  };

  explicit CancelToken(std::shared_ptr<State> S) : S(std::move(S)) {}

  // Latches Armed->ExpiredBit when the deadline has passed; throws on any
  // tripped state. Out-of-line to keep check() inlinable.
  [[noreturn]] static void throwTripped(uint32_t W);
  void checkSlow(uint32_t W) const;

  std::shared_ptr<State> S;
};

} // namespace distal

#endif // DISTAL_SUPPORT_CANCELTOKEN_H
