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
/// every execution walks the shared compiled program with its own ExecArena
/// (see runtime/ExecArena.h) holding all the state the walk mutates, so any
/// number of executions — direct execute() calls or requests admitted
/// through the per-artifact AdmissionQueue — run concurrently with no
/// serialization. This mirrors the paper's separation between compiling a
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
#include <mutex>
#include <optional>
#include <vector>

#include "lower/Plan.h"
#include "runtime/Admission.h"
#include "runtime/ExecArena.h"
#include "runtime/LeafCompiler.h"
#include "runtime/Ledger.h"
#include "runtime/Mapper.h"
#include "runtime/Region.h"
#include "support/CancelToken.h"
#include "support/FaultInjector.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

namespace distal {

class ExecContext;
class ExecutionSlot;
struct ProgramTaskLinks;

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
  /// Pins the task/leaf thread division instead of the adaptive policy
  /// (0 = adaptive).
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
  /// The coalesced copy program of R, derived once at compile time.
  GatherRuns Runs;
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
};

/// The persistent compile-once / execute-many artifact.
///
/// Thread safety: the artifact is reentrant. The compiled program is
/// immutable after construction, and every execution carries its mutable
/// state (instance buffers, leaf engines, fault scope, heartbeat) in a
/// per-execution ExecArena — pooled and reused under a small internal
/// lock, bounded by setArenaCacheCap so the steady state allocates
/// nothing. Any number of threads may call execute()/tryExecute()/submit()
/// on one artifact concurrently; outputs are bitwise-identical to running
/// the same calls serially. Concurrent executions *that share regions*
/// should go through submit() — it coalesces result-compatible requests
/// onto one pass and serializes the rest — rather than direct execute()
/// calls racing on one output region.
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
/// execution; the output region may hold partial data but is re-zeroed by
/// every execution.
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
  /// every tensor of the statement; the output region is zeroed first.
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
    return Queue.submit(Regions, Opts, D, std::move(Keeper),
                        std::move(RunAnchor));
  }

  /// The artifact's admission/batching front-end (tuning knobs + stats).
  /// Thread-safe.
  AdmissionQueue &admission() { return Queue; }

  /// Arena-pool counters (see ExecArena): how executions acquired their
  /// state, and what containment did with failed arenas. Thread-safe.
  struct ArenaStats {
    int64_t Created = 0;   ///< Arenas newly allocated.
    int64_t Reused = 0;    ///< Acquisitions served from the cache.
    int64_t Discarded = 0; ///< Failed executions' arenas thrown away.
    int Cached = 0;        ///< Currently idle in the cache.
  };
  ArenaStats arenaStats() const;

  /// Estimated resident bytes of the artifact itself (compiled tasks and
  /// their gather programs) — what the PlanCache charges against the
  /// ResourceGovernor budget per cached plan. Arena and Region
  /// bytes are accounted by their own ledgers, not here, so nothing is
  /// double-counted. Thread-safe (pure walk of immutable state).
  int64_t footprintBytes() const;

  /// Hang-diagnosis heartbeat: one line per execution currently inside
  /// executeBody — its age, its phase (task walk or writeback), and how
  /// many task-steps are done out of tasks x steps, read off the arena's
  /// relaxed step counter. Empty when nothing is in flight. Thread-safe;
  /// purely observational.
  std::string stuckReport() const;

  /// Caps the idle-arena cache (default 4). Executions beyond the cap
  /// still run — their arenas are simply freed on release instead of
  /// cached. 0 disables reuse entirely. Thread-safe.
  void setArenaCacheCap(int N);

  /// True once the artifact was explicitly marked unusable (see
  /// poisonForTesting): every further tryExecute returns
  /// FailedPrecondition and the owner should drop the artifact
  /// (PlanCache::invalidate). Execution failures never poison the
  /// artifact; containment is per-arena.
  /// Thread-safe.
  bool poisoned() const;
  /// Test hook: marks the artifact refused-for-execution, exercising the
  /// owner-side eviction paths (Tensor::tryEvaluate evicts on this).
  void poisonForTesting();

private:
  /// CompiledProgram links member artifacts into a whole-program dataflow
  /// graph: it reuses the per-statement exec-state builder, the thread
  /// resolution, and the per-task walker, so it needs the internals below.
  friend class CompiledProgram;

  /// Hands out a pooled arena (or a fresh one) for one execution.
  std::unique_ptr<ExecArena> acquireArena();
  /// Returns a successfully-used arena to the cache (or frees it past the
  /// cap). Failed arenas never come back here — tryExecute discards them.
  void releaseArena(std::unique_ptr<ExecArena> A);
  /// Builds \p A's per-task instance buffers / leaf engines on first use
  /// (idempotent; sized at the compile-time maxima so reuse never
  /// reallocates).
  void ensureExecState(ExecArena &A) const;

  /// How one execution spreads over threads (see resolveThreads).
  struct ThreadLayout {
    ThreadPool *Pool = nullptr; ///< Null: every fan-out runs inline.
    int TaskWays = 1;           ///< Task-level fan-out width.
    LeafParallelism LeafLP;     ///< Pool + ways budget handed to leaves.
  };
  /// The thread resolution of every execution, plan or program: the
  /// configured width (Opts.Ctx, else Opts.NumThreads, else the process
  /// default) divided by the execution census (ExecutionSlot::budget), run
  /// on the caller's context when it has exactly that width and on
  /// \p OwnCtx otherwise (rebuilt only when the width changes), with the
  /// task/leaf split for \p NumTasks (or the pinned ForceTaskWays /
  /// ForceLeafWays). At one thread \p Inline is engaged so the whole run,
  /// nested BLAS included, stays on the calling thread. The layout only
  /// changes scheduling, never output bytes.
  static ThreadLayout resolveThreads(const ExecOptions &Opts,
                                     const ExecutionSlot &Slot,
                                     int64_t NumTasks,
                                     std::unique_ptr<ExecContext> &OwnCtx,
                                     std::optional<ThreadPool::InlineScope>
                                         &Inline);

  /// What one execution binds every task walk to (see runTask).
  struct TaskWalk {
    const std::map<TensorVar, Region *> &Regions;
    const CancelToken &Cancel;
    FaultInjector::ExecutionScope *Fault;
    LeafParallelism LeafLP;
    /// Zero-copy views on.
    bool ViewsOn;
  };
  /// One task's whole chain over \p A's state: its launch gathers, then
  /// every step's gathers and leaf, with no barrier against sibling tasks
  /// and a cancellation check at each step boundary. \p Links, when set,
  /// adds a linked program's view overrides on top of the per-statement
  /// classification. Each finished step bumps A.StepsDone (heartbeat).
  void runTask(ExecArena &A, size_t TaskIdx, const TaskWalk &W,
               const ProgramTaskLinks *Links = nullptr) const;
  /// The execute walk proper, entirely over \p A's state. Throws on
  /// failure; tryExecute contains it.
  Trace executeBody(ExecArena &A, const ExecutionSlot &Slot,
                    const std::map<TensorVar, Region *> &Regions,
                    const ExecOptions &Opts);

  Plan P;
  Trace Skeleton;
  leaf::Tape RhsTape;
  std::vector<CompiledTask> Tasks;
  /// Per step: the step-loop variable values every task fixes for that
  /// step (same across tasks; tasks keep private FixedVals maps).
  std::vector<std::vector<std::pair<IndexVar, Coord>>> StepVals;

  /// Guards the mutable bookkeeping below — never held across an
  /// execution, only for pool handoffs and stat reads.
  mutable std::mutex StateMutex;
  std::vector<std::unique_ptr<ExecArena>> FreeArenas;
  int ArenaCacheCap = 4;
  ArenaStats Arenas;
  bool Poisoned = false;
  /// Arenas currently inside executeBody (raw pointers; each is owned by
  /// its execution frame or a containment container). stuckReport walks
  /// this to render the heartbeat.
  std::vector<const ExecArena *> InFlight;

  /// The admission front-end. Declared last so it is destroyed *first*:
  /// its destructor fails unclaimed requests and waits out running
  /// executions before the compiled program and the arenas above die.
  AdmissionQueue Queue{this};
};

} // namespace distal

#endif // DISTAL_RUNTIME_COMPILEDPLAN_H
