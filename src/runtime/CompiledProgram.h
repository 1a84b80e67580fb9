//===- runtime/CompiledProgram.h - Whole-program dataflow artifact -*-C++-*-===//
///
/// \file
/// The program-level compile-once / execute-many artifact: an ordered chain
/// of compiled statements linked into one dependency graph by
/// producer/consumer residency analysis (analyzeProgramLinks). Statement
/// boundaries stop being barriers — execution schedules *statement tasks*
/// as nodes of a DAG over the shared thread pool, so a consumer task
/// launches as soon as the specific producer tasks it reads have completed,
/// independent statements and independent task chains overlap, interior
/// gathers whose bytes are already resident on the executing processor are
/// downgraded to zero-copy views, and interior writebacks with only
/// co-located link-elided readers are elided outright. Final outputs and
/// every user-observable tensor always materialise through the
/// deterministic merge, and output bytes are bitwise-identical to running
/// the statements one by one.
///
/// The artifact co-owns its member CompiledPlans (shared_ptr), so a
/// PlanCache eviction of a member can never invalidate a live program.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_COMPILEDPROGRAM_H
#define DISTAL_RUNTIME_COMPILEDPROGRAM_H

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/CompiledPlan.h"
#include "runtime/PlanAnalysis.h"

namespace distal {

namespace detail {
struct ProgramRunState;
}

/// Handle to one asynchronous program execution (see
/// CompiledProgram::submit). Cheap to copy; all copies resolve to the same
/// latched Status. A default-constructed future is invalid.
class ProgramFuture {
public:
  ProgramFuture() = default;

  /// False for a default-constructed handle.
  bool valid() const { return St != nullptr; }

  /// Non-blocking poll: true once the execution completed.
  bool done() const;

  /// Blocks until the execution completes and returns its Status.
  /// Idempotent — the result is latched. Never throws.
  const Status &wait();

private:
  friend class CompiledProgram;
  explicit ProgramFuture(std::shared_ptr<detail::ProgramRunState> St);
  std::shared_ptr<detail::ProgramRunState> St;
};

/// The whole-program execution artifact. Immutable after construction and
/// therefore reentrant: concurrent tryExecute/submit calls each run in
/// their own pooled ProgramArena (per-member ExecArenas, one fault scope,
/// one owned context), with CompiledPlan's containment contract — a failed
/// execution's arena is discarded, the artifact and sibling executions are
/// untouched, and the artifact remains reusable.
class CompiledProgram {
public:
  /// Links \p Members (ordered, already compiled) into the program graph.
  /// Throws DistalError(InvalidArgument) on a null or empty member list.
  /// The artifact shares ownership of every member, so cache eviction of a
  /// member never invalidates the program.
  explicit CompiledProgram(std::vector<std::shared_ptr<CompiledPlan>> Members);
  ~CompiledProgram();

  CompiledProgram(const CompiledProgram &) = delete;
  CompiledProgram &operator=(const CompiledProgram &) = delete;

  /// Number of member statements.
  size_t size() const { return Members.size(); }
  /// Member artifact \p I (program order). Valid for the artifact's
  /// lifetime — members are co-owned.
  const CompiledPlan &member(size_t I) const { return *Members[I]; }

  /// The concatenation of the member trace skeletons, in program order —
  /// the *unlinked* per-statement view of the program's communication (what
  /// statement-by-statement execution would report). Program execution does
  /// not re-derive traces; this is the compile-time skeleton. Thread-safe
  /// (immutable after construction).
  const Trace &trace() const { return Skeleton; }

  /// Compile-time linking outcome: what the residency analysis proved.
  /// DirectDeps/BarrierDeps split the cross-statement dependencies into
  /// producer-task edges (barrier bypassed) and writeback-node edges
  /// (barrier kept); benches report DirectDeps/(DirectDeps+BarrierDeps) as
  /// the barrier-elided fraction. Thread-safe (immutable).
  struct LinkStats {
    int64_t ElidedGathers = 0;        ///< Interior gathers now view-bound.
    int64_t ElidedGatherBytes = 0;    ///< Bytes those gathers stop copying.
    int64_t ElidedWritebackTasks = 0; ///< Tasks writing the region in place.
    int64_t ElidedWritebackBytes = 0; ///< Bytes those merges stop moving.
    int64_t DirectDeps = 0;  ///< Task-to-task edges (no producer barrier).
    int64_t BarrierDeps = 0; ///< Edges through a producer's writeback node.
  };
  LinkStats linkStats() const { return Links; }

  /// Per-execution data-movement volume of the *linked* program (views
  /// enabled): member sums with tier-A-elided gather bytes reported under
  /// ElidedBytes and tier-B-elided writeback bytes under
  /// WritebackElidedBytes. Compare against the member-sum of the unlinked
  /// artifacts to measure what linking saves. Thread-safe (immutable).
  CompiledPlan::DataMovementStats dataMovementStats() const { return Movement; }

  /// Executes the program over \p Regions, which must contain every tensor
  /// of every member statement; each statement's output region is zeroed
  /// before that statement's tasks run (WAR/WAW ordered in the graph).
  /// Output bytes are bitwise-identical to executing the members one by
  /// one, at every thread count and with linking on or off. Thread-safe
  /// and reentrant. Throws DistalError on failure; tryExecute is the
  /// non-throwing form.
  void execute(const std::map<TensorVar, Region *> &Regions,
               const ExecOptions &Opts = {});

  /// Non-throwing execute: returns OK on success; on failure returns the
  /// error after containing it to this execution's arena (discarded — the
  /// artifact and sibling executions remain untouched and the artifact
  /// stays reusable). Thread-safe and reentrant.
  Status tryExecute(const std::map<TensorVar, Region *> &Regions,
                    const ExecOptions &Opts = {});

  /// Asynchronous tryExecute on the process pool's detached lane: returns
  /// immediately with a future that latches the execution's Status.
  /// \p Keeper, if set, is held until the execution completes (artifact /
  /// region lifetime anchor, mirroring AdmissionQueue::submit). Callers
  /// racing on shared *output* regions must serialize themselves; sharing
  /// input regions is safe (executions only read them). Thread-safe.
  ProgramFuture submit(const std::map<TensorVar, Region *> &Regions,
                       const ExecOptions &Opts = {},
                       std::shared_ptr<void> Keeper = nullptr);

  /// Arena-pool counters, mirroring CompiledPlan::ArenaStats: how program
  /// executions acquired their state and what containment did with failed
  /// arenas. Thread-safe.
  CompiledPlan::ArenaStats arenaStats() const;

  /// Estimated resident bytes of the linking overhead (dependency graphs,
  /// node numbering, link records) — what the PlanCache charges per cached
  /// program. Member artifacts are charged by their own cache entries and
  /// arenas by their own ledgers, so nothing is double-counted.
  /// Thread-safe (pure walk of immutable state).
  int64_t footprintBytes() const;

  /// Hang-diagnosis heartbeat, mirroring CompiledPlan::stuckReport(): one
  /// line per program execution currently inside the graph walk — how many
  /// nodes have completed out of the program total and the execution's
  /// age. Empty when nothing is in flight. Thread-safe.
  std::string stuckReport() const;

  /// Caps the idle program-arena cache (default 2). Thread-safe.
  void setArenaCacheCap(int N);

private:
  /// All mutable state of one program execution: one ExecArena per member
  /// statement (instance buffers + leaf engines, reused across program
  /// executions), one fault-injection scope for the whole program, and the
  /// owned context. Pooled like CompiledPlan's arenas.
  struct ProgramArena {
    std::vector<std::unique_ptr<ExecArena>> Arenas;
    FaultInjector::ExecutionScope Fault;
    std::unique_ptr<ExecContext> OwnCtx;
    /// Heartbeat: nodes completed by the execution currently running in
    /// this arena, and its steady-clock start (ns) — read by stuckReport.
    std::atomic<int32_t> HbDone{0};
    std::atomic<int64_t> HbStartNs{0};
  };

  /// One dependency graph over the program's nodes (zero / task / end per
  /// statement). Two are precomputed: the linked graph (residency elision
  /// active, producer-task edges) and the barrier graph (every
  /// cross-statement edge routed through the producer's writeback node) —
  /// the latter drives views-off executions, where no in-place write makes
  /// producer-task data final early.
  struct Graph {
    std::vector<int32_t> InDeg;
    std::vector<std::vector<int32_t>> Succs;
  };

  std::unique_ptr<ProgramArena> acquireArena();
  void releaseArena(std::unique_ptr<ProgramArena> PA);
  void buildGraphs();
  void runBody(ProgramArena &PA, const ExecutionSlot &Slot,
               const std::map<TensorVar, Region *> &Regions,
               const ExecOptions &Opts);
  /// Runs one node: a statement's zero, one of its tasks (the member's
  /// per-task walker with this program's link overrides), or its
  /// writeback. \p W carries the execution's bindings.
  void runNode(ProgramArena &PA, int32_t Node,
               const CompiledPlan::TaskWalk &W);

  std::vector<std::shared_ptr<CompiledPlan>> Members;
  ProgramLinkResult Link;
  LinkStats Links;
  CompiledPlan::DataMovementStats Movement;
  Trace Skeleton;
  /// Node numbering: statement I with T tasks owns [NodeBase[I],
  /// NodeBase[I] + T + 2): zero node, T task nodes, end (writeback) node.
  std::vector<int32_t> NodeBase;
  int32_t NumNodes = 0;
  Graph Linked, Barrier;

  mutable std::mutex StateMutex;
  std::vector<std::unique_ptr<ProgramArena>> FreeArenas;
  int ArenaCacheCap = 2;
  CompiledPlan::ArenaStats Arenas;
  /// Program arenas currently inside runBody (see stuckReport).
  std::vector<const ProgramArena *> InFlight;
};

} // namespace distal

#endif // DISTAL_RUNTIME_COMPILEDPROGRAM_H
