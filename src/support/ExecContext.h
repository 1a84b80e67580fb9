//===- support/ExecContext.h - Execution resources + split policy -*- C++ -*-===//
///
/// \file
/// An ExecContext owns the thread pool for one engine invocation and the
/// policy dividing its threads between task-level and leaf-level fan-out.
/// It is threaded *explicitly* through every layer that runs parallel work
/// — Executor plan walk, Region gather/writeback, the compiled leaf tape,
/// and the blas:: kernels — so nothing below the Executor ever reaches for
/// a process-global pool of the wrong size. Leaf layers receive a
/// LeafParallelism handle: the context's pool plus a ways budget, with
/// nested fan-outs executing as sub-range jobs on the same pool (see
/// ThreadPool), so a (task x leaf) split never exceeds numThreads() live
/// threads.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SUPPORT_EXECCONTEXT_H
#define DISTAL_SUPPORT_EXECCONTEXT_H

#include <cstdint>
#include <memory>

namespace distal {

class ThreadPool;

/// Bounded leaf-level parallelism handle passed down to Region copies and
/// blas:: kernels: which pool to fan sub-ranges over and how many ways to
/// split. A default-constructed handle (no pool / 1 way) means sequential.
/// Kernels must keep results bitwise-identical for every Ways value — they
/// either split only disjoint output ranges or use a split-invariant fixed
/// chunking for reductions.
struct LeafParallelism {
  ThreadPool *Pool = nullptr;
  int Ways = 1;
  bool enabled() const { return Pool != nullptr && Ways > 1; }
};

/// RAII census of concurrently active plan executions in this process.
/// Every CompiledPlan execution claims a slot for its duration; the count
/// at claim time drives the per-execution thread *budget* — with one
/// active execution the configured thread count is used unchanged, with A
/// active executions each gets max(1, configured / A) threads, and a
/// budget of 1 runs the execution fully inline on its client thread. That
/// is what lets many client threads execute one cached artifact with real
/// concurrency: at high client counts every execution degrades to an
/// inline sequential walk (results are bitwise-identical at every thread
/// count), instead of all of them queueing on one shared pool's top-level
/// fan-out lock. The census is approximate under racing claims (two
/// executions claiming simultaneously may both see a low count and
/// transiently overcommit by a bounded factor); it never affects output
/// bytes, only how wide each execution fans out.
class ExecutionSlot {
public:
  ExecutionSlot();
  ~ExecutionSlot();
  ExecutionSlot(const ExecutionSlot &) = delete;
  ExecutionSlot &operator=(const ExecutionSlot &) = delete;

  /// The census value observed when this slot was claimed (>= 1, counting
  /// this execution itself).
  int activeAtClaim() const { return Claimed; }

  /// The thread budget for this execution when \p ConfiguredThreads are
  /// configured: max(1, ConfiguredThreads / activeAtClaim()).
  int budget(int ConfiguredThreads) const;

  /// Currently active executions (for stats and tests).
  static int activeExecutions();
  /// High-water mark of concurrently active executions since the last
  /// resetPeakActiveExecutions() — how tests prove two executions really
  /// overlapped rather than queued.
  static int peakActiveExecutions();
  static void resetPeakActiveExecutions();

private:
  int Claimed;
};

class ExecContext {
public:
  /// \p NumThreads == 0 uses the process default (DISTAL_NUM_THREADS or
  /// hardware concurrency). A context whose size matches the process
  /// default shares the process-global pool; other sizes own a pool, so an
  /// explicit setNumThreads(N) never lazily spawns a full
  /// hardware-concurrency fleet it won't use.
  explicit ExecContext(int NumThreads = 0);
  ~ExecContext();

  ExecContext(const ExecContext &) = delete;
  ExecContext &operator=(const ExecContext &) = delete;

  int numThreads() const { return NumThreads; }

  /// The context's pool, resolved at construction (safe to share across
  /// threads); null when the context is sequential (1 thread).
  ThreadPool *pool() const { return Resolved; }

  /// Division of numThreads() between task fan-out and leaf fan-out.
  struct Split {
    int TaskWays = 1;
    int LeafWays = 1;
  };

  /// Adaptive split for a launch domain of \p NumTasks tasks: a single-task
  /// plan gives every thread to its leaf; a plan with at least numThreads()
  /// tasks keeps leaves sequential (task fan-out already saturates the
  /// pool); in between, leaves get the threads the task level cannot use.
  /// Executor::setThreadSplit pins the division instead of this policy.
  Split splitFor(int64_t NumTasks) const;

private:
  int NumThreads;
  ThreadPool *Resolved = nullptr;
  std::unique_ptr<ThreadPool> Owned;
};

} // namespace distal

#endif // DISTAL_SUPPORT_EXECCONTEXT_H
