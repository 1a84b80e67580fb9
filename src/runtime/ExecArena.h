//===- runtime/ExecArena.h - Per-execution mutable state -------*- C++ -*-===//
///
/// \file
/// All mutable state one execution of a CompiledPlan needs, split out of
/// the artifact so the artifact itself is immutable after compilation and
/// therefore reentrant: any number of executions can walk one compiled
/// program concurrently, each in its own arena. An arena holds the
/// per-task instance buffers (owned copies or zero-copy views), the leaf
/// engines, the fault-injection execution scope, the heartbeat counters,
/// and the owned execution context — everything the execute walk mutates.
///
/// Arenas are pooled and reused by the artifact (bounded by a configurable
/// cache), so the steady state allocates nothing: acquiring a cached arena
/// hands back instance buffers already sized at their compile-time maxima
/// and leaf engines whose affine structure is already derived. A failed
/// execution discards its arena instead of returning it (the per-arena
/// containment contract): the walk issues no detached work, so nothing
/// references the arena once the failing fan-out has unwound, and the
/// artifact is untouched and immediately reusable.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_EXECARENA_H
#define DISTAL_RUNTIME_EXECARENA_H

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "runtime/LeafCompiler.h"
#include "runtime/Region.h"
#include "support/ExecContext.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"

namespace distal {

struct ExecArena {
  /// Reusable per-task execution state: instance buffers sized at compile
  /// time (max rectangle volume over all phases) and the leaf engine whose
  /// affine structure (and Khatri-Rao workspace, on its own governor
  /// ledger) persists across steps and executions.
  struct TaskExec {
    std::map<IndexVar, Coord> FixedVals;
    std::map<TensorVar, Instance> OwnedInsts;
    std::map<TensorVar, Instance *> Insts;
    leaf::LeafEngine Leaf;
  };

  std::vector<TaskExec> Execs; ///< Lazily built on first use, then reused.
  /// The fault injector's per-execution arrival counters (site keying per
  /// arena): a fault schedule inside this execution is independent of
  /// sibling arenas' arrivals.
  FaultInjector::ExecutionScope Fault;
  /// Progress heartbeat of the execution currently running in this arena,
  /// published with relaxed stores on the execute walk and read by
  /// CompiledPlan::stuckReport() to show where a hung execution is parked.
  /// HbPhase: 0 idle, 1 task walk, 2 writeback. StepsDone: task-steps
  /// finished so far, summed over all tasks (of tasks x steps). HbStartNs:
  /// steady-clock ns when the execution entered the body.
  std::atomic<int32_t> HbPhase{0};
  std::atomic<int64_t> StepsDone{0};
  std::atomic<int64_t> HbStartNs{0};
  /// Context owned when the caller supplies none; rebuilt only when the
  /// budgeted thread count changes between this arena's executions.
  std::unique_ptr<ExecContext> OwnCtx;
  /// Governor ledger for this arena's instance buffers, charged when
  /// ensureExecState sizes them and released when the arena dies — so
  /// pooled-arena memory shows up in usedBytes().
  ResourceGovernor::Charge MemCharge;
};

} // namespace distal

#endif // DISTAL_RUNTIME_EXECARENA_H
