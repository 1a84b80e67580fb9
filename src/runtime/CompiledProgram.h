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
/// PlanCache eviction of a member can never invalidate a live program. It
/// executes on the same ExecEngine a single statement does (see
/// runtime/ExecEngine.h): one walker, one arena pool, one admission queue.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_COMPILEDPROGRAM_H
#define DISTAL_RUNTIME_COMPILEDPROGRAM_H

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/CompiledPlan.h"
#include "runtime/PlanAnalysis.h"

namespace distal {

/// The whole-program execution artifact. Immutable after construction and
/// therefore reentrant: concurrent tryExecute/submit calls each run in
/// their own pooled ExecArena (per-member task state, one fault scope, one
/// owned context), and a failed execution's arena is discarded — the
/// artifact and sibling executions are untouched, and the artifact remains
/// reusable.
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

  /// Submits one execution through the program's admission queue, with
  /// CompiledPlan::submit's contract: identical not-yet-started requests
  /// coalesce onto one pass, requests whose maps share a region any member
  /// writes are serialized, and the ExecFuture carries the result (its
  /// trace is the concatenated skeleton under TraceMode::Full). \p Keeper
  /// anchors the artifact in the future; \p RunAnchor is held by the
  /// request until its execution completes (see AdmissionQueue::submit).
  /// Thread-safe.
  ExecFuture submit(const std::map<TensorVar, Region *> &Regions,
                    const ExecOptions &Opts = {},
                    AdmissionQueue::Dispatch D =
                        AdmissionQueue::Dispatch::Background,
                    std::shared_ptr<void> Keeper = nullptr,
                    std::shared_ptr<void> RunAnchor = nullptr) {
    return Engine->admission().submit(Regions, Opts, D, std::move(Keeper),
                                      std::move(RunAnchor));
  }

  /// The program's admission/batching front-end. Thread-safe.
  AdmissionQueue &admission() { return Engine->admission(); }

  /// Arena-pool counters (CompiledPlan::ArenaStats): how program
  /// executions acquired their state and what containment did with failed
  /// arenas. Thread-safe.
  CompiledPlan::ArenaStats arenaStats() const { return Engine->arenaStats(); }

  /// Estimated resident bytes of the linking overhead (link records, and
  /// the engine's node numbering and dependency graphs) — what the
  /// PlanCache charges per cached program. Member artifacts are charged by
  /// their own cache entries and arenas by their own ledgers, so nothing is
  /// double-counted. Thread-safe (pure walk of immutable state).
  int64_t footprintBytes() const;

  /// Hang-diagnosis heartbeat, in CompiledPlan::stuckReport()'s format:
  /// one line per execution in flight, with the nodes complete out of the
  /// program total. Empty when nothing is in flight. Thread-safe.
  std::string stuckReport() const { return Engine->stuckReport(); }

  /// Caps the idle-arena cache (default 4). Thread-safe.
  void setArenaCacheCap(int N) { Engine->setArenaCacheCap(N); }

private:
  std::vector<std::shared_ptr<CompiledPlan>> Members;
  ProgramLinkResult Link;
  LinkStats Links;
  CompiledPlan::DataMovementStats Movement;
  Trace Skeleton;
  /// Built once the linking above is done; declared last so its admission
  /// queue shuts down before anything it runs dies.
  std::optional<ExecEngine> Engine;
};

} // namespace distal

#endif // DISTAL_RUNTIME_COMPILEDPROGRAM_H
