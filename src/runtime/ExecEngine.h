//===- runtime/ExecEngine.h - The one execution engine ---------*- C++ -*-===//
///
/// \file
/// The engine both compiled artifacts execute on. A statement is the
/// one-member program of itself: a CompiledPlan and a CompiledProgram each
/// hold an ExecEngine over their member statements, and every execution of
/// either is one walk of a dependency graph in which each member owns a
/// zero node (the region-wide zero of its output), one node per task (the
/// task's whole chain of gathers and leaves) and an end node (the
/// deterministic writeback merge). The engine also holds the per-execution
/// state the walk mutates — the ExecArena, pooled and reused — the
/// containment of a failed execution, the heartbeat behind stuckReport, and
/// the AdmissionQueue, whose ExecFuture is the one future type.
///
/// The artifacts are immutable after compilation and therefore reentrant:
/// any number of executions walk one compiled program concurrently, each in
/// its own arena. Arenas are pooled (bounded by setArenaCacheCap), so the
/// steady state allocates nothing: a cached arena hands back instance
/// buffers already sized at their compile-time maxima and leaf scratch
/// (Khatri-Rao workspace included) sized for the compiled leaf bindings,
/// which the artifact holds. A failed execution discards its arena instead
/// of returning it: the walk issues no detached work, so nothing references
/// the arena once the failing fan-out has unwound, and the artifact is
/// untouched and immediately reusable.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_EXECENGINE_H
#define DISTAL_RUNTIME_EXECENGINE_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/Admission.h"
#include "runtime/LeafCompiler.h"
#include "runtime/Ledger.h"
#include "runtime/Region.h"
#include "support/CancelToken.h"
#include "support/ExecContext.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"
#include "support/Status.h"

namespace distal {

class CompiledPlan;
struct ProgramLinkResult;

/// All mutable state of one execution.
struct ExecArena {
  /// Reusable per-task execution state, indexed by instance slot (the
  /// member statement's tensors()): instance buffers sized at compile time
  /// (max rectangle volume over all phases), what each slot is bound to at
  /// the current step, and the leaf scratch.
  struct TaskExec {
    std::vector<Instance> Owned;
    /// The data the leaf reads: Owned[S]'s buffer, or, when View[S] is
    /// set, a zero-copy view into region storage.
    std::vector<double *> Data;
    std::vector<uint8_t> View;
    leaf::LeafEngine Leaf;
  };

  /// [member][task]: built on first use, then reused.
  std::vector<std::vector<TaskExec>> Execs;
  /// [member][slot]: this execution's regions, resolved from the caller's
  /// map once per execution.
  std::vector<std::vector<Region *>> Regs;
  /// Scratch of the parallel walk (remaining in-degree per node, ready
  /// stack), kept so the steady state allocates nothing.
  std::vector<int32_t> InDeg, Ready;
  /// The fault injector's per-execution arrival counters: a fault schedule
  /// inside this execution is independent of sibling arenas' arrivals.
  FaultInjector::ExecutionScope Fault;
  /// Heartbeat of the execution running in this arena, published with
  /// relaxed stores and read by stuckReport: nodes and task-steps finished
  /// so far, and the steady-clock ns when the walk started.
  std::atomic<int32_t> NodesDone{0};
  std::atomic<int64_t> StepsDone{0};
  std::atomic<int64_t> HbStartNs{0};
  /// Context owned when the caller supplies none; rebuilt only when the
  /// budgeted thread count changes between this arena's executions.
  std::unique_ptr<ExecContext> OwnCtx;
  /// Governor ledger for the instance buffers and Khatri-Rao workspaces,
  /// charged when they are sized and released when the arena dies, so
  /// pooled-arena memory shows up in usedBytes().
  ResourceGovernor::Charge MemCharge;
};

/// The node walker, arena pool and admission queue of one artifact.
/// Thread-safe: every public member may be called concurrently.
class ExecEngine {
public:
  /// Builds the graph over \p Members (program order). \p Link, when set,
  /// carries the program's residency overrides and cross-statement edges
  /// (analyzeProgramLinks over the same members); a statement passes null.
  /// \p Skeleton is what TraceMode::Full executions report. The members,
  /// the link result and the skeleton belong to the owning artifact and
  /// must outlive the engine.
  ExecEngine(std::vector<const CompiledPlan *> Members,
             const ProgramLinkResult *Link, const Trace &Skeleton);
  ~ExecEngine();
  ExecEngine(const ExecEngine &) = delete;
  ExecEngine &operator=(const ExecEngine &) = delete;

  /// One execution over \p Regions, in a pooled arena. On success fills
  /// \p Out (when non-null) with the skeleton, or under TraceMode::Off an
  /// empty trace carrying only NumProcs. On failure the arena is discarded
  /// and the error returned; the artifact stays reusable.
  Status tryExecute(const std::map<TensorVar, Region *> &Regions, Trace *Out,
                    const ExecOptions &Opts);

  /// The artifact's admission front-end (see runtime/Admission.h).
  AdmissionQueue &admission() { return Queue; }

  /// The member statements, in program order.
  const std::vector<const CompiledPlan *> &members() const { return Members; }

  /// Arena-pool counters: how executions acquired their state, and what
  /// containment did with failed arenas.
  struct ArenaStats {
    int64_t Created = 0;   ///< Arenas newly allocated.
    int64_t Reused = 0;    ///< Acquisitions served from the cache.
    int64_t Discarded = 0; ///< Failed executions' arenas thrown away.
    int Cached = 0;        ///< Currently idle in the cache.
  };
  ArenaStats arenaStats() const;

  /// One line per execution in flight: its age, the graph nodes complete
  /// and the task-steps done. Empty when nothing is in flight.
  std::string stuckReport() const;

  /// Caps the idle-arena cache (default 4); 0 disables reuse.
  void setArenaCacheCap(int N);

  /// Resident bytes of the node numbering and the dependency graphs.
  int64_t footprintBytes() const;

private:
  /// What one execution binds every node to (the regions are the arena's
  /// resolved slots).
  struct Walk {
    const CancelToken &Cancel;
    FaultInjector::ExecutionScope *Fault;
    /// Pool and ways budget handed to gathers and leaves.
    LeafParallelism LeafLP;
    /// Zero-copy views on.
    bool ViewsOn;
    /// The end nodes' striped merge runs here; null merges sequentially.
    ThreadPool *Pool;
  };

  /// One dependency graph over the nodes. Two are built: the linked graph
  /// (residency elision active, producer-task edges) and the barrier graph
  /// (every cross-statement edge through the producer's end node), which
  /// drives views-off executions, where no in-place write makes producer
  /// data final early. Without links the two are the same graph.
  struct Graph {
    std::vector<int32_t> InDeg;
    std::vector<std::vector<int32_t>> Succs;
    /// Nodes nothing waits for, ascending. The parallel walk runs them
    /// after its workers join, with the whole pool free for the merge.
    std::vector<int32_t> Sinks;
  };

  std::unique_ptr<ExecArena> acquireArena();
  void releaseArena(std::unique_ptr<ExecArena> A);
  void buildGraphs();
  /// The walk proper over \p A; throws on failure.
  void run(ExecArena &A, const ExecutionSlot &Slot,
           const std::map<TensorVar, Region *> &Regions,
           const ExecOptions &Opts);
  void runNode(ExecArena &A, int32_t Node, const Walk &W) const;
  /// One task's whole chain: its launch gathers, then every step's gathers
  /// and leaf, with a cancellation check at each step boundary and the
  /// program's link overrides applied on top of the statement's own
  /// classification.
  void runTask(ExecArena &A, size_t Member, size_t TaskIdx,
               const Walk &W) const;
  /// The end node: merges every non-view task instance into the output in
  /// task order, striped over output rows when a pool is bound.
  void writeback(ExecArena &A, size_t Member, const Walk &W) const;

  std::vector<const CompiledPlan *> Members;
  const ProgramLinkResult *Link;
  const Trace &Skeleton;
  /// Node numbering: member I with T tasks owns [NodeBase[I],
  /// NodeBase[I] + T + 2): zero node, T task nodes, end node.
  std::vector<int32_t> NodeBase;
  /// [member] 1: no element ever reads member I's region-wide zero when
  /// views are on — every task overwrites its output rectangle in place
  /// (SkipOutputZero with an Aliasable or link OutView output) and the
  /// rectangles cover the tensor — so its zero node skips the memset. The
  /// node and its edges stay: they order WAR/WAW against earlier members.
  std::vector<uint8_t> DeadZero;
  int32_t NumNodes = 0;
  int64_t NumTasks = 0, TaskSteps = 0;
  Graph Linked, Barrier;

  /// Guards the pool bookkeeping below — never held across an execution.
  mutable std::mutex StateMutex;
  std::vector<std::unique_ptr<ExecArena>> FreeArenas;
  int ArenaCacheCap = 4;
  ArenaStats Arenas;
  /// Arenas currently inside run(), rendered by stuckReport.
  std::vector<const ExecArena *> InFlight;

  /// Declared last so it is destroyed first: its destructor fails
  /// unclaimed requests and waits out running executions before the
  /// arenas above die.
  AdmissionQueue Queue{this};
};

} // namespace distal

#endif // DISTAL_RUNTIME_EXECENGINE_H
