//===- api/Program.h - User-facing statement-chain API ---------*- C++ -*-===//
///
/// \file
/// The program surface of the API: an ordered chain of scheduled tensor
/// statements evaluated as ONE linked artifact instead of one statement at
/// a time. Iterative workloads (power iteration, ALS sweeps, Tucker/CP
/// chains) are programs — each statement's output feeds later inputs — and
/// statement-at-a-time execution pays a full barrier, a writeback, and a
/// re-gather at every boundary. A Program compiles every member through
/// the PlanCache, links them by producer/consumer residency
/// (CompiledProgram), caches the linked artifact keyed by the
/// statement-fingerprint chain, and executes all statement tasks as a
/// single dependency graph:
///
/// \code
///   Tensor Y("Y", {n}, f), T("T", {n}, f), X("X", {n}, f);
///   T(i) = A(i, j) * X(j);      T.schedule()...;
///   Y(i) = A(i, j) * T(j);      Y.schedule()...;
///   Program P;
///   P.add(T).add(Y);
///   P.evaluate(m);              // bitwise == T.evaluate(m); Y.evaluate(m)
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_API_PROGRAM_H
#define DISTAL_API_PROGRAM_H

#include <memory>
#include <vector>

#include "api/Tensor.h"
#include "runtime/CompiledProgram.h"

namespace distal {

/// An ordered chain of tensor statements compiled and executed as one
/// linked program. Holds raw pointers to the member tensors: they must
/// outlive every compile/evaluate call (the normal stack-scoped usage).
/// Not thread-safe to mutate concurrently; evaluate-family calls on a
/// built program are thread-safe against each other and against the
/// Tensor evaluate family (they share the same api-level serialization).
class Program {
public:
  /// Appends tensor \p T's defined computation as the next statement.
  /// Returns *this for chaining. The tensor must have a computation by
  /// the time compile()/evaluate() runs.
  Program &add(Tensor &T);

  /// Number of statements added.
  size_t size() const { return Stmts.size(); }

  /// Execute-time options applied by the evaluate family — same contract
  /// as Tensor::execOptions(): none participate in the cache key, results
  /// are bitwise-identical across all settings. ZeroCopyViews additionally
  /// gates the program-level residency overrides (off = the conservative
  /// per-statement reference path). Cancel carries the
  /// cancellation/deadline token: the program walk checks it at every node
  /// boundary (between statements' tasks), a trip is contained like any
  /// other failure, and a clean re-evaluate stays bitwise-identical.
  ExecOptions &execOptions() { return ExecOpts; }

  /// Compiles (or cache-hits) the linked program artifact for machine
  /// \p M: each member statement compiles through the PlanCache, then the
  /// chain links through the program-side cache keyed by the statement-
  /// fingerprint chain. The returned artifact co-owns its members, so
  /// later cache evictions never invalidate it. Throws DistalError on
  /// validation or lowering failure.
  std::shared_ptr<CompiledProgram> compile(const Machine &M);

  /// Non-throwing compile: failures come back as a Status.
  StatusOr<std::shared_ptr<CompiledProgram>> tryCompile(const Machine &M);

  /// Compiles (or cache-hits) and runs the whole chain on real data;
  /// pending fills of every member tensor are applied. Output bytes of
  /// every member tensor are bitwise-identical to evaluating the members
  /// one at a time, in order. Goes through the program's admission queue
  /// as Tensor::evaluate does through a statement's: an identical request
  /// not yet started is shared, and requests writing a region another one
  /// touches are serialized. Throws DistalError on failure.
  void evaluate(const Machine &M);

  /// Non-throwing evaluate: a failed execution is contained inside its
  /// arena (CompiledProgram's failure contract) and the artifact stays
  /// reusable.
  Status tryEvaluate(const Machine &M);

  /// Asynchronous evaluate, Tensor::evaluateAsync's contract for a chain:
  /// admits the execution to the program's admission queue, dispatches it
  /// to the process pool's background lane and returns the ExecFuture.
  /// The future keeps the artifact alive; the request holds the backing
  /// Regions (pinned) until the execution completes, so the future may
  /// outlive this Program and its tensors, and may be dropped unwaited.
  /// Thread-safe.
  ExecFuture evaluateAsync(const Machine &M);

private:
  struct Prepared;
  Prepared prepare(const Machine &M);

  std::vector<Tensor *> Stmts;
  ExecOptions ExecOpts;
};

} // namespace distal

#endif // DISTAL_API_PROGRAM_H
