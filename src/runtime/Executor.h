//===- runtime/Executor.h - Plan execution engine --------------*- C++ -*-===//
///
/// \file
/// Executes lowered Plans through the compile-once / execute-many split:
/// the first run (or simulate) compiles the plan into a CompiledPlan
/// artifact — placement, bounds, gather rectangles, the communication
/// skeleton, and the leaf tapes, all derived once — and every run is then
/// a thin walk of that artifact that only moves data and runs kernels.
///
///  * Execute: real data. Every task computes exclusively on Instances
///    gathered from each region per the communication analysis, then
///    reduces its output instance back — so an incorrect partition or
///    bounds computation produces incorrect numbers, giving the test suite
///    real distributed-memory semantics on one process.
///  * Simulate: no data. Returns the precomputed trace (messages, flops,
///    memory) for the Simulator to price against a MachineSpec, standing in
///    for the 256-node Lassen runs of the paper's evaluation.
///
/// Thread safety: an Executor is a single-client configuration façade —
/// its knob setters and run()/tryRun() are not synchronized. The compiled
/// artifact underneath, however, is reentrant (see CompiledPlan): many
/// threads may execute one artifact concurrently, each execution in its
/// own arena, and submit() routes through the artifact's admission queue
/// for bounded, coalescing multi-client execution.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_EXECUTOR_H
#define DISTAL_RUNTIME_EXECUTOR_H

#include <map>
#include <memory>

#include "lower/Plan.h"
#include "runtime/CompiledPlan.h"
#include "runtime/Ledger.h"
#include "runtime/Mapper.h"
#include "runtime/Region.h"
#include "support/ResourceGovernor.h"

namespace distal {

class ExecContext;

class Executor {
public:
  /// Wraps \p P for execution; compilation is deferred to the first
  /// run()/simulate() (or an explicit compiled() call).
  explicit Executor(const Plan &P, const Mapper &Map = defaultMapper());
  /// Destroying the executor resolves any still-pending submit() futures
  /// with FailedPrecondition (the artifact dies with the executor).
  ~Executor();

  /// Number of threads for the execution engine. 0 (default) uses the
  /// process-wide default (DISTAL_NUM_THREADS or hardware concurrency);
  /// 1 forces the fully sequential walk. Traces and output data are
  /// bitwise-identical at every thread count and every task/leaf split.
  ///
  /// The engine never uses more than N threads, for any N: its ExecContext
  /// owns one pool, threaded explicitly through the plan walk, the Region
  /// copies, and the blas:: leaf kernels. Tasks fan out min(tasks, N)
  /// wide and every leaf past its kernel's cutoff fans out over all N
  /// threads as a nested sub-range job on the same pool, so threads whose
  /// task has ended run the slowest task's remaining ranges. The pool's
  /// live-thread bound keeps nested fan-outs from oversubscribing.
  void setNumThreads(int N) {
    NumThreads = N;
    ForceTaskWays = ForceLeafWays = 0;
  }

  /// Pins the task/leaf division instead of the default split: the
  /// engine fans tasks out at most \p TaskWays wide and hands each leaf a
  /// \p LeafWays budget, over one pool of TaskWays * LeafWays threads.
  /// Results are bitwise-identical for every split; tests sweep this.
  void setThreadSplit(int TaskWays, int LeafWays) {
    NumThreads = TaskWays * LeafWays;
    ForceTaskWays = TaskWays;
    ForceLeafWays = LeafWays;
  }

  /// Runs over \p Ctx instead of an internally owned context (pool sharing
  /// across executors). Overrides setNumThreads; the split policy still
  /// applies per launch domain. Pass nullptr to return to internal
  /// ownership. The context must outlive the executor's runs.
  void setExecContext(ExecContext *Ctx) { ExternalCtx = Ctx; }

  /// Zero-copy alias views (on by default):
  /// gathers the compile phase proved home-resident bind leaves directly
  /// to Region storage, and an aliased output accumulator elides its
  /// writeback. Off forces every gather through the coalesced copy path.
  /// Output data is bitwise-identical either way; execute-time knob, no
  /// recompile.
  void setZeroCopyViews(bool On) { ZeroCopyViews = On; }

  /// Installs a cancellation/deadline token consulted by every subsequent
  /// run()/tryRun()/submit() (see CancelToken and ExecOptions::Cancel). A
  /// tripped token stops the execution at its next cancellation point with
  /// Cancelled/DeadlineExceeded, which run()/tryRun() return as is: a
  /// cancelled run stays cancelled. Pass a default-constructed token to
  /// clear. The disarmed cost is one relaxed load per cancellation point.
  void setCancelToken(CancelToken T) { Cancel = std::move(T); }

  /// The compiled artifact, built on first use and reused by every
  /// subsequent run()/simulate() of this executor.
  CompiledPlan &compiled();

  /// Runs the plan on real data. \p Regions must contain every tensor of
  /// the statement; the output region is zeroed first. The first call
  /// compiles; later calls are steady-state walks of the artifact.
  /// TraceMode::Full returns the precomputed trace; TraceMode::Off skips
  /// even the trace copy and returns an empty trace. Throws DistalError
  /// with tryRun's Status on failure.
  Trace run(const std::map<TensorVar, Region *> &Regions,
            TraceMode Mode = TraceMode::Full);

  /// Non-throwing run: one CompiledPlan::tryExecute of the compiled
  /// artifact with this executor's knobs, whose Status it returns as is.
  /// A failure is contained per the artifact's failure contract and never
  /// retried, so an OK result always carries the configured run's bytes.
  Status tryRun(const std::map<TensorVar, Region *> &Regions, Trace &Out,
                TraceMode Mode = TraceMode::Full);

  /// Submits a run through the compiled artifact's admission queue and
  /// returns a future immediately: bounded concurrency per artifact,
  /// identical concurrent requests coalesced onto one pass, the result
  /// (Status + trace) read via ExecFuture::wait()/trace(). The artifact
  /// is owned by this executor, so the executor must outlive the returned
  /// future. Configuration knobs are snapshotted at submit time; changing
  /// them afterwards does not affect in-flight requests.
  ExecFuture submit(const std::map<TensorVar, Region *> &Regions,
                    TraceMode Mode = TraceMode::Full);

  /// Returns the trace without touching data (for cost studies).
  Trace simulate();

  /// Arms (or, with 0, disarms) the process-wide memory budget — the
  /// programmatic twin of DISTAL_MEM_BUDGET (see support/ResourceGovernor.h
  /// for the watermarks and pressure responses). Affects every executor in
  /// the process; soft/hard fractions keep their current values. A
  /// disarmed governor costs one relaxed load per accounting site and
  /// changes no behavior.
  static void setMemoryBudget(int64_t Bytes) {
    ResourceGovernor::setBudget(Bytes);
  }

  /// Snapshot of the process-wide governor counters: budget, accounted and
  /// peak bytes, and how often each pressure response fired (shed
  /// requests, cache shrinks, arena-cache bypasses).
  static ResourceGovernor::Stats governorStats() {
    return ResourceGovernor::stats();
  }

  /// Compiles \p Plans (ordered statement chain, validated with
  /// validateProgramPlans) into a fresh, uncached CompiledProgram and runs
  /// it once over \p Regions — the raw-plan analogue of Program::evaluate
  /// for callers below the Tensor API. \p Opts follows the ExecOptions
  /// contract (execute-time knobs only; results bitwise-identical across
  /// all settings, and identical to running each plan's Executor in
  /// sequence). Throws DistalError on validation or execution failure.
  static void runProgram(const std::vector<const Plan *> &Plans,
                         const std::map<TensorVar, Region *> &Regions,
                         const ExecOptions &Opts = {});

  /// Messages needed to materialise rectangle \p R of tensor \p T in the
  /// memory of \p DstProc, fetching each piece from the replica nearest the
  /// destination (exposed for testing the communication analysis).
  std::vector<Message> gatherMessages(const TensorVar &T, const Rect &R,
                                      const Point &DstProc) const;

private:
  /// The execute-time knobs of run()/tryRun()/submit().
  ExecOptions execOptions(TraceMode Mode) const;

  const Plan &P;
  const Mapper &Map;
  int NumThreads = 0;
  int ForceTaskWays = 0, ForceLeafWays = 0;
  bool ZeroCopyViews = true;
  CancelToken Cancel;
  ExecContext *ExternalCtx = nullptr;
  /// Compile-once artifact, built on first use.
  std::unique_ptr<CompiledPlan> CP;
};

/// Sequential reference executor: runs \p Stmt directly over dense arrays
/// (indexed like Regions) with no distribution. Used to validate Plans.
void referenceExecute(const Assignment &Stmt,
                      const std::map<TensorVar, Region *> &Regions);

} // namespace distal

#endif // DISTAL_RUNTIME_EXECUTOR_H
