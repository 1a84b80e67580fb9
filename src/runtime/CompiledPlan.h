//===- runtime/CompiledPlan.h - Compile-once execution artifact -*- C++ -*-===//
///
/// \file
/// The compile/execute split of the execution engine. Compiling a Plan runs
/// every data-independent analysis exactly once — task placement (Mapper
/// results), per-task and per-step bounds and gather rectangles, the
/// bulk-synchronous communication skeleton (phase structure, per-message
/// metadata, systolic relay decisions), per-processor work and peak-memory
/// accounting, and the compiled leaf tape — and persists the result as a
/// CompiledPlan. Executing the artifact is then a thin walk that only moves
/// data and runs kernels: gathers replay the recorded rectangles into
/// Instance buffers sized at compile time and reused across executions, and
/// the trace is (optionally) the precomputed skeleton, never re-derived.
///
/// The artifact is immutable after compilation and therefore *reentrant*:
/// it executes as the one-member program of itself on an ExecEngine (see
/// runtime/ExecEngine.h), every execution in its own ExecArena holding all
/// the state the walk mutates, so any number of executions — direct
/// execute() calls or requests admitted through the per-artifact
/// AdmissionQueue — run concurrently with no serialization. This mirrors the paper's separation between compiling a
/// scheduled tensor statement for a machine and repeatedly executing it:
/// iterative workloads (power iteration, solver loops, repeated GEMM) pay
/// analysis cost once and steady-state cost thereafter, and a cached
/// artifact serves many client threads at once.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_COMPILEDPLAN_H
#define DISTAL_RUNTIME_COMPILEDPLAN_H

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "lower/Plan.h"
#include "runtime/ExecEngine.h"
#include "runtime/LeafCompiler.h"
#include "runtime/Ledger.h"
#include "runtime/Mapper.h"
#include "runtime/Region.h"
#include "support/CancelToken.h"
#include "support/Status.h"

namespace distal {

class ExecContext;

/// Whether an execution reports the trace. The trace itself is computed
/// once at compile time; Full copies the skeleton out of the artifact, Off
/// skips even the copy — the steady-state fast path for callers that
/// discard it.
enum class TraceMode { Full, Off };

/// Execute-time knobs (threading, views, and trace reporting). None of
/// these affect compilation — they are deliberately absent from the
/// PlanCache key — so one artifact serves every configuration; traces and
/// output data are bitwise-identical across all of them.
struct ExecOptions {
  /// Runs over this context instead of one owned by the execution (pool
  /// sharing across plans). Must outlive the execution. Note that under
  /// concurrent executions the per-execution thread budget (see
  /// ExecutionSlot) may be smaller than this context's thread count, in
  /// which case the execution falls back to an arena-owned context of the
  /// budgeted width.
  ExecContext *Ctx = nullptr;
  /// Threads when \p Ctx is null. 0 uses the process default
  /// (DISTAL_NUM_THREADS or hardware concurrency); 1 forces the fully
  /// sequential walk.
  int NumThreads = 0;
  /// Pins the task/leaf thread division instead of the default split
  /// (0 = ExecContext::splitFor).
  int ForceTaskWays = 0, ForceLeafWays = 0;
  TraceMode Mode = TraceMode::Full;
  /// Zero-copy alias views. On, gathers the compile phase proved
  /// home-resident bind the leaf directly to Region storage — no bytes
  /// move, and an aliased output accumulator elides its writeback too. Off
  /// forces every gather through the coalesced copy path (the
  /// differential-testing reference). Output data is bitwise-identical
  /// either way; like the other knobs here, flipping it costs no recompile
  /// (the classification lives in the artifact).
  bool ZeroCopyViews = true;
  /// Cooperative cancellation / deadline for this execution. Polled at
  /// every task's step boundaries, program node boundaries, and
  /// thread-pool chunk claims; a trip unwinds through the per-arena
  /// containment path (the arena is discarded), so the artifact stays
  /// reusable and a clean re-execute is bitwise-identical.
  /// Invalid (the default) costs a pointer test per poll; valid and quiet,
  /// one relaxed load. submit() installs a fresh token here when the
  /// caller provides none, so ExecFuture::cancel() always has teeth.
  CancelToken Cancel;
};

/// How the execute phase materialises one recorded gather.
enum class GatherClass : uint8_t {
  /// Bytes must move; replayed through the precomputed coalesced run
  /// program (GatherRuns) instead of rediscovering the rectangle's run
  /// structure every execution.
  Coalesced,
  /// The rectangle is home-resident on the executing processor: the
  /// instance binds as a zero-copy view of Region storage when views are
  /// enabled, and falls back to the Coalesced program when they are off.
  /// For the output accumulator this additionally carries the proof that
  /// no other task touches the rectangle, so the striped writeback is
  /// elided entirely.
  Aliasable,
};

/// One data movement a task performs in a phase of the compiled program.
struct CompiledGather {
  TensorVar Tensor;
  Rect R;
  /// Launch phase only: the task's private reduction accumulator — zeroed,
  /// not fetched.
  bool IsOutput = false;
  /// Alias-analysis verdict (see GatherClass).
  GatherClass Class = GatherClass::Coalesced;
  /// The coalesced copy program of R, derived once at compile time. Its
  /// RegBase, the region offset of R's lo corner, is also where a
  /// zero-copy view of R starts (R lies inside the tensor's shape, checked
  /// when the artifact is built).
  GatherRuns Runs;
  /// The task's instance slot for Tensor: its position in the statement's
  /// tensors().
  int Slot = 0;
};

/// Per-task compile-time state: placement plus the gather program. Step
/// gathers already have the residency dedup applied (a rectangle resident
/// from an inner sequential iteration is not re-fetched), exactly mirroring
/// the message skeleton.
struct CompiledTask {
  Point TP, ProcPt;
  int64_t ProcId = 0;
  /// Values of the distributed loop variables at this task point.
  std::map<IndexVar, Coord> DistVals;
  Rect OutRect;
  std::vector<CompiledGather> LaunchGathers;
  std::vector<std::vector<CompiledGather>> StepGathers; ///< [step]
  std::vector<uint8_t> RunLeaf; ///< [step] leaf has iterations to run.
  /// Compile-time proof that the leaf fully overwrites the output
  /// accumulator (non-reduction assignment whose iteration points cover
  /// OutRect exactly once): the launch-phase Instance::zero() is skipped
  /// and the compiled leaf runs in overwrite mode.
  bool SkipOutputZero = false;
  /// [step] The leaf bound at compile time (offsets, coefficients, guard
  /// and GEMM route); default-constructed where RunLeaf is 0.
  std::vector<leaf::LeafBinding> Leaf;
};

/// The persistent compile-once / execute-many artifact.
///
/// Thread safety: the artifact is reentrant. The compiled program is
/// immutable after construction, and every execution carries its mutable
/// state (instance buffers, leaf engines, fault scope, heartbeat) in a
/// per-execution ExecArena — pooled by the artifact's ExecEngine and
/// reused under a small internal lock, bounded by setArenaCacheCap so the
/// steady state allocates nothing. Any number of threads may call
/// execute()/tryExecute()/submit() on one artifact concurrently; outputs
/// are bitwise-identical to running the same calls serially. Concurrent
/// executions *that share regions* should go through submit() — it
/// coalesces result-compatible requests onto one pass and serializes the
/// rest — rather than direct execute() calls racing on one output region.
///
/// Failure contract (tryExecute): when any step of an execution fails —
/// a gather, a leaf launch, a writeback stripe, or an allocation in
/// Instance::reserve/reset — the failure is contained to that execution's
/// arena: the walk issues no detached work, so once the failing fan-out
/// has unwound nothing references the arena, and it is discarded instead
/// of returning to the pool, so no partially-mutated buffers can leak into
/// a later run. The artifact and every sibling execution are untouched; a
/// subsequent clean execute() is bitwise-identical to one against a
/// freshly compiled artifact. Input regions are never mutated by a failed
/// execution; the output region may hold partial data, but every execution
/// rewrites all of it: it is zeroed first, or, when the compile phase
/// proved every task writes its rectangle in place and the rectangles
/// cover it (ExecEngine's dead zero), each task clears or overwrites its
/// own rectangle.
class CompiledPlan {
public:
  /// Compiles \p P for repeated execution: runs the full data-independent
  /// analysis under \p Map and records the execution program.
  explicit CompiledPlan(Plan P, const Mapper &Map = defaultMapper());
  ~CompiledPlan();

  CompiledPlan(const CompiledPlan &) = delete;
  CompiledPlan &operator=(const CompiledPlan &) = delete;

  /// The artifact's own copy of the compiled Plan (immutable; staleness is
  /// managed by the PlanCache key, not by the artifact).
  const Plan &plan() const { return P; }

  /// The compiled per-task programs (placement, bounds, gather rectangles
  /// and their alias classes) — immutable after construction. Exposed for
  /// program-level linking (analyzeProgramLinks) and for tests that check
  /// the compile-phase classification directly.
  const std::vector<CompiledTask> &compiledTasks() const { return Tasks; }
  /// Number of sequential steps of the compiled program (the step-domain
  /// volume). Immutable after construction.
  int64_t stepCount() const { return static_cast<int64_t>(StepVals.size()); }
  /// The step-loop variable values every task fixes at step \p S, in
  /// [0, stepCount()). Immutable after construction.
  const std::vector<std::pair<IndexVar, Coord>> &stepValues(int64_t S) const {
    return StepVals[static_cast<size_t>(S)];
  }

  /// The precomputed execution trace (messages, work, peak memory) — what
  /// Executor::simulate returns, identical to what every execution
  /// observes. Thread-safe (immutable after construction).
  const Trace &trace() const { return Skeleton; }

  /// Compile-time volume of the data-movement program per execution,
  /// assuming views are enabled (the default): what the copy engine moves
  /// versus what alias analysis proved never moves. The benches report
  /// GatheredBytes + ElidedBytes as the "before" (views-off) traffic.
  /// Thread-safe (immutable after construction).
  struct DataMovementStats {
    int64_t GatheredBytes = 0; ///< Copied by launch + step gathers.
    int64_t ElidedBytes = 0;   ///< Gathers bound as views instead.
    int64_t WritebackBytes = 0; ///< Output instance bytes merged back.
    int64_t WritebackElidedBytes = 0; ///< Elided by output aliasing.
    int64_t movedBytes() const { return GatheredBytes + WritebackBytes; }
    int64_t totalBytes() const {
      return movedBytes() + ElidedBytes + WritebackElidedBytes;
    }
  };
  DataMovementStats dataMovementStats() const;

  /// Number of tasks whose launch-phase output zero is skipped (the
  /// compile phase proved their leaves fully overwrite the accumulator).
  /// Thread-safe (immutable after construction).
  int64_t zeroSkipTaskCount() const;

  /// Executes the compiled program over \p Regions, which must contain
  /// every tensor of the statement, each a region of the tensor's shape;
  /// the output region is zeroed first (or fully overwritten, see the
  /// failure contract).
  /// Returns the trace skeleton (TraceMode::Full) or an empty trace
  /// (TraceMode::Off). Output data is bitwise-identical for every thread
  /// count and task/leaf split, and to a freshly compiled artifact's.
  /// Thread-safe and reentrant — concurrent calls run concurrently, each
  /// in its own arena (callers racing on the *same* output region should
  /// use submit() instead, which coalesces or serializes them). Throws
  /// DistalError on
  /// failure (see the class failure contract); tryExecute is the
  /// non-throwing form.
  Trace execute(const std::map<TensorVar, Region *> &Regions,
                const ExecOptions &Opts = {});

  /// Non-throwing execute: on success fills \p Out and returns OK; on
  /// failure returns the error after containing it per the class failure
  /// contract (the failed arena discarded, with the artifact and all
  /// sibling executions untouched). Thread-safe and reentrant, like
  /// execute().
  Status tryExecute(const std::map<TensorVar, Region *> &Regions, Trace &Out,
                    const ExecOptions &Opts = {});

  /// Submits one execution through the artifact's admission queue: bounded
  /// concurrency, result-compatible not-yet-started requests coalesced
  /// onto one pass, requests that share an output region serialized
  /// instead of raced, result delivered through the returned ExecFuture
  /// (see runtime/Admission.h). \p RunAnchor, if set, is held by the
  /// request until its execution completes (region-lifetime hook; see
  /// AdmissionQueue::submit). Thread-safe. This is the right entry point
  /// when many client threads share one artifact.
  ExecFuture submit(const std::map<TensorVar, Region *> &Regions,
                    const ExecOptions &Opts = {},
                    AdmissionQueue::Dispatch D =
                        AdmissionQueue::Dispatch::Background,
                    std::shared_ptr<void> Keeper = nullptr,
                    std::shared_ptr<void> RunAnchor = nullptr) {
    return Engine->admission().submit(Regions, Opts, D, std::move(Keeper),
                                      std::move(RunAnchor));
  }

  /// The artifact's admission/batching front-end (tuning knobs + stats).
  /// Thread-safe.
  AdmissionQueue &admission() { return Engine->admission(); }

  /// Arena-pool counters (see ExecEngine::ArenaStats): how executions
  /// acquired their state, and what containment did with failed arenas.
  /// Thread-safe.
  using ArenaStats = ExecEngine::ArenaStats;
  ArenaStats arenaStats() const { return Engine->arenaStats(); }

  /// Estimated resident bytes of the artifact itself (compiled tasks, their
  /// gather programs and the engine's node graph) — what the PlanCache
  /// charges against the ResourceGovernor budget per cached plan. Arena
  /// and Region bytes are accounted by their own ledgers, not here, so
  /// nothing is double-counted. Thread-safe (pure walk of immutable
  /// state).
  int64_t footprintBytes() const;

  /// Hang-diagnosis heartbeat: one line per execution in flight — its
  /// age, the graph nodes complete (zero node, tasks, end node) and the
  /// task-steps done out of tasks x steps, read off the arena's relaxed
  /// counters. Empty when nothing is in flight. Thread-safe; purely
  /// observational.
  std::string stuckReport() const { return Engine->stuckReport(); }

  /// Caps the idle-arena cache (default 4). Executions beyond the cap
  /// still run — their arenas are simply freed on release instead of
  /// cached. 0 disables reuse entirely. Thread-safe.
  void setArenaCacheCap(int N) { Engine->setArenaCacheCap(N); }

private:
  /// The engine walks the compiled tasks and binds the leaf tape.
  friend class ExecEngine;

  /// Records every gather's slot, proves its rectangle inside the tensor's
  /// shape, and binds every run leaf.
  void bindTasks();

  Plan P;
  Trace Skeleton;
  leaf::Tape RhsTape;
  /// The statement's tensors(): instance slot S holds Slots[S].
  std::vector<TensorVar> Slots;
  int OutSlot = 0;
  leaf::LeafShape LeafS;
  std::vector<CompiledTask> Tasks;
  /// Per step: the step-loop variable values every task fixes for that
  /// step (same across tasks).
  std::vector<std::vector<std::pair<IndexVar, Coord>>> StepVals;

  /// This statement as a one-member program. Built once the analysis above
  /// is done, and declared last so it is destroyed *first*: its admission
  /// queue fails unclaimed requests and waits out running executions
  /// before the compiled program above dies.
  std::optional<ExecEngine> Engine;
};

} // namespace distal

#endif // DISTAL_RUNTIME_COMPILEDPLAN_H
