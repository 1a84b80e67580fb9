//===- runtime/ExecEngine.cpp ---------------------------------*- C++ -*-===//
//
// The execute phase: a thin walk over the compiled program that only moves
// data and runs kernels. Gathers replay the recorded rectangles into reused
// Instance buffers, leaves run through the persistent per-task engines, and
// the writeback merge applies task instances in task order within each
// output stripe — so output data is bitwise-identical at every thread count
// and task/leaf split, and across repeated executions. Nothing here touches
// the trace: it was fully computed at compile time (PlanAnalysis).
//
// Reentrancy: everything the walk mutates lives in the execution's own
// ExecArena — the artifact state read here (tasks, step values, leaf tapes,
// link records, the graphs) is immutable after construction, so concurrent
// executions share it freely. tryExecute is acquire-arena / run /
// release-or-discard; there is no execution-wide lock. Each execution also
// claims an ExecutionSlot, dividing the configured thread count by the
// number of executions in flight so N concurrent executions never
// oversubscribe the machine (and at budget 1 an execution runs fully
// inline on its client thread — N clients, N truly parallel walks).
//
// One walk, statement or program: every member's zero node, task nodes and
// end node form one dependency graph. A task node runs its whole chain —
// launch gathers, then (gather -> leaf) per step — with no step barrier
// against sibling tasks. This is legal because every gather only reads
// input Regions, immutable until the graph orders a producer's bytes final,
// and every accumulator is either task-private or an exclusively-owned
// alias of the output region; so no task can observe another's progress.
// Copy/compute overlap is left to the distributed runtime, which the
// Simulator models as MachineSpec::OverlapFactor.
//
// Scheduling: a mutex/condvar ready queue drained by TaskWays workers
// running as one structured parallelFor on the execution context's pool.
// Dependencies only point to earlier statements' nodes (or a task's own
// zero node), so the graph is acyclic by construction and plain node order
// is a valid topological order — the sequential path just walks it. Two
// rules keep a statement's fork-join speed: a worker that finds no node
// left to claim returns to the pool, where it can run the leaf sub-jobs of
// the tasks still in flight; and sink nodes (nothing waits for them, like a
// statement's end node) run after the workers join, so the striped merge
// has the whole pool. The walk issues no detached jobs, so failure
// containment has nothing in flight to wait for.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecEngine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <sstream>

#include "runtime/CompiledPlan.h"
#include "runtime/PlanAnalysis.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

using namespace distal;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// How one execution spreads over threads.
struct ThreadLayout {
  ThreadPool *Pool = nullptr; ///< Null: every fan-out runs inline.
  int TaskWays = 1;           ///< Task-level fan-out width.
  LeafParallelism LeafLP;     ///< Pool + ways budget handed to leaves.
};

/// The thread resolution of every execution: the configured width
/// (Opts.Ctx, else Opts.NumThreads, else the process default) divided by
/// the execution census (ExecutionSlot::budget), run on the caller's
/// context when it has exactly that width and on \p OwnCtx otherwise
/// (rebuilt only when the width changes), with the task/leaf split for
/// \p NumTasks (or the pinned ForceTaskWays / ForceLeafWays). At one thread
/// \p Inline is engaged so the whole run, nested BLAS included, stays on
/// the calling thread. The layout only changes scheduling, never output
/// bytes.
ThreadLayout resolveThreads(const ExecOptions &Opts, const ExecutionSlot &Slot,
                            int64_t NumTasks,
                            std::unique_ptr<ExecContext> &OwnCtx,
                            std::optional<ThreadPool::InlineScope> &Inline) {
  int Configured = Opts.Ctx              ? Opts.Ctx->numThreads()
                   : Opts.NumThreads > 0 ? Opts.NumThreads
                                         : defaultExecutorThreads();
  int Threads = Slot.budget(Configured);
  ThreadLayout L;
  if (Threads == 1) {
    Inline.emplace();
    return L;
  }
  ExecContext *Ctx = Opts.Ctx;
  if (!Ctx || Ctx->numThreads() != Threads) {
    if (!OwnCtx || OwnCtx->numThreads() != Threads)
      OwnCtx = std::make_unique<ExecContext>(Threads);
    Ctx = OwnCtx.get();
  }
  // Divide the context's threads between task fan-out and leaf fan-out.
  // Leaf kernels receive the pool plus a ways budget and fan out as
  // sub-range jobs on the *same* pool, so task- and leaf-level work share
  // one set of threads with no oversubscription.
  ExecContext::Split Split =
      Opts.ForceTaskWays > 0
          ? ExecContext::Split{Opts.ForceTaskWays, Opts.ForceLeafWays}
          : Ctx->splitFor(NumTasks);
  if (Split.TaskWays > 1 || Split.LeafWays > 1)
    L.Pool = Ctx->pool();
  L.TaskWays = Split.TaskWays;
  if (L.Pool && Split.LeafWays > 1)
    L.LeafLP = {L.Pool, Split.LeafWays};
  return L;
}

/// Builds one member's per-task instance buffers and leaf scratch on first
/// use (idempotent), sized at the compile-time maxima so reuse never
/// reallocates, and charges their reserved capacity — the Khatri-Rao
/// workspaces the compiled GEMM routes need included — to \p Mem in one
/// sum (Instance::reserve only reserves, so the ledger records the maxima
/// the buffers will grow to).
void ensureExecState(const std::vector<CompiledTask> &Tasks, size_t NumSlots,
                     const leaf::LeafShape &Shape, const leaf::Tape &Tape,
                     std::vector<ExecArena::TaskExec> &Execs,
                     ResourceGovernor::Charge &Mem) {
  if (!Execs.empty() || Tasks.empty())
    return;
  Execs.resize(Tasks.size());
  int64_t Sum = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const CompiledTask &CT = Tasks[I];
    ExecArena::TaskExec &TE = Execs[I];
    TE.Owned.resize(NumSlots);
    TE.Data.assign(NumSlots, nullptr);
    TE.View.assign(NumSlots, 0);
    std::vector<int64_t> MaxVol(NumSlots, -1);
    auto note = [&](const CompiledGather &G) {
      int64_t &V = MaxVol[static_cast<size_t>(G.Slot)];
      V = std::max(V, G.R.volume());
    };
    for (const CompiledGather &G : CT.LaunchGathers)
      note(G);
    for (const auto &Step : CT.StepGathers)
      for (const CompiledGather &G : Step)
        note(G);
    for (size_t S = 0; S < NumSlots; ++S)
      if (MaxVol[S] >= 0) {
        TE.Owned[S].reserve(MaxVol[S]);
        Sum += std::max<int64_t>(MaxVol[S], 1) * 8;
      }
    int64_t Workspace = 0;
    for (const leaf::LeafBinding &B : CT.Leaf)
      Workspace = std::max(Workspace, B.Route.WorkspaceElems);
    TE.Leaf.size(Shape, Tape, Workspace);
    Sum += Workspace * 8;
  }
  Mem.add(Sum);
}

/// Resolves a member's instance slots \p Slots to regions of \p Regions,
/// checking that every tensor has one and that it has the tensor's shape
/// (the compiled view offsets and strides assume it).
void resolveRegions(const std::vector<TensorVar> &Slots,
                    const std::map<TensorVar, Region *> &Regions,
                    std::vector<Region *> &Out) {
  Out.resize(Slots.size());
  for (size_t S = 0; S < Slots.size(); ++S) {
    const TensorVar &TV = Slots[S];
    auto It = Regions.find(TV);
    if (It == Regions.end() || !It->second)
      throwError(ErrorCode::InvalidArgument,
                 "no region provided for tensor '" + TV.name() + "'");
    if (It->second->shape() != TV.shape())
      throwError(ErrorCode::InvalidArgument,
                 "the region provided for tensor '" + TV.name() +
                     "' has another shape than the tensor");
    Out[S] = It->second;
  }
}

} // namespace

ExecEngine::ExecEngine(std::vector<const CompiledPlan *> Ms,
                       const ProgramLinkResult *L, const Trace &Sk)
    : Members(std::move(Ms)), Link(L), Skeleton(Sk) {
  NodeBase.resize(Members.size());
  int32_t Base = 0;
  for (size_t I = 0; I < Members.size(); ++I) {
    int64_t Tasks = static_cast<int64_t>(Members[I]->compiledTasks().size());
    NodeBase[I] = Base;
    Base += static_cast<int32_t>(Tasks) + 2;
    NumTasks += Tasks;
    TaskSteps += Tasks * Members[I]->stepCount();
  }
  NumNodes = Base;
  buildGraphs();

  // A member's region-wide zero is dead when every task writes its output
  // rectangle in place and the rectangles cover the tensor: each task then
  // zeroes its own rectangle at launch, or overwrites it (SkipOutputZero),
  // and PlanAnalysis proved the in-place rectangles exclusive, so every
  // element is cleared or assigned exactly once before anything reads it.
  DeadZero.assign(Members.size(), 0);
  for (size_t I = 0; I < Members.size(); ++I) {
    const CompiledPlan &CP = *Members[I];
    bool Dead = true;
    std::vector<Rect> Cover;
    for (size_t T = 0; T < CP.Tasks.size() && Dead; ++T) {
      const CompiledTask &CT = CP.Tasks[T];
      Dead = Link && Link->Stmts[I].Tasks[T].OutView;
      for (const CompiledGather &G : CT.LaunchGathers)
        Dead |= G.IsOutput && G.Class == GatherClass::Aliasable;
      Cover.push_back(CT.OutRect);
    }
    DeadZero[I] =
        Dead && coveredByUnion(
                    Rect::forExtents(CP.P.Nest.Stmt.lhs().tensor().shape()),
                    Cover);
  }
}

ExecEngine::~ExecEngine() = default;

void ExecEngine::buildGraphs() {
  for (Graph *G : {&Linked, &Barrier}) {
    G->InDeg.assign(static_cast<size_t>(NumNodes), 0);
    G->Succs.assign(static_cast<size_t>(NumNodes), {});
  }
  auto addEdge = [](Graph &G, int32_t From, int32_t To) {
    G.Succs[static_cast<size_t>(From)].push_back(To);
    ++G.InDeg[static_cast<size_t>(To)];
  };
  auto endNode = [&](int32_t Stmt) {
    return NodeBase[static_cast<size_t>(Stmt)] +
           static_cast<int32_t>(
               Members[static_cast<size_t>(Stmt)]->compiledTasks().size()) +
           1;
  };
  for (size_t I = 0; I < Members.size(); ++I) {
    const ProgramStmtLinks *SL = Link ? &Link->Stmts[I] : nullptr;
    int32_t Zero = NodeBase[I];
    int32_t End = endNode(static_cast<int32_t>(I));
    if (SL)
      for (int32_t J : SL->ZeroDeps) {
        addEdge(Linked, endNode(J), Zero);
        addEdge(Barrier, endNode(J), Zero);
      }
    for (int32_t Task = Zero + 1; Task < End; ++Task) {
      addEdge(Linked, Zero, Task);
      addEdge(Barrier, Zero, Task);
      addEdge(Linked, Task, End);
      addEdge(Barrier, Task, End);
      if (!SL)
        continue;
      // Linked graph: a producer task that writes in place is depended on
      // directly; everything else routes through the producer's end node.
      // Barrier graph: every cross-statement edge is an end-node edge
      // (dedup — several task deps of one producer collapse to one).
      int32_t LastBarrier = -1;
      for (const ProgramDep &D :
           SL->Tasks[static_cast<size_t>(Task - Zero - 1)].Deps) {
        addEdge(Linked, D.Task >= 0
                            ? NodeBase[static_cast<size_t>(D.Stmt)] + 1 + D.Task
                            : endNode(D.Stmt),
                Task);
        if (D.Stmt != LastBarrier) {
          addEdge(Barrier, endNode(D.Stmt), Task);
          LastBarrier = D.Stmt;
        }
      }
    }
  }
  for (Graph *G : {&Linked, &Barrier})
    for (int32_t Node = 0; Node < NumNodes; ++Node)
      if (G->Succs[static_cast<size_t>(Node)].empty())
        G->Sinks.push_back(Node);
}

std::unique_ptr<ExecArena> ExecEngine::acquireArena() {
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    if (!FreeArenas.empty()) {
      std::unique_ptr<ExecArena> A = std::move(FreeArenas.back());
      FreeArenas.pop_back();
      ++Arenas.Reused;
      return A;
    }
    ++Arenas.Created;
  }
  return std::make_unique<ExecArena>();
}

void ExecEngine::releaseArena(std::unique_ptr<ExecArena> A) {
  // Under memory pressure the pool stops caching: the idle arena's buffers
  // are freed immediately (its Charge releases their bytes), draining
  // usage instead of parking it.
  if (ResourceGovernor::pressure() != ResourceGovernor::Pressure::None) {
    ResourceGovernor::noteArenaCacheBypass();
    return;
  }
  std::lock_guard<std::mutex> Lock(StateMutex);
  if (static_cast<int>(FreeArenas.size()) < ArenaCacheCap)
    FreeArenas.push_back(std::move(A));
  // Past the cap, A simply dies here.
}

ExecEngine::ArenaStats ExecEngine::arenaStats() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  ArenaStats S = Arenas;
  S.Cached = static_cast<int>(FreeArenas.size());
  return S;
}

void ExecEngine::setArenaCacheCap(int N) {
  std::lock_guard<std::mutex> Lock(StateMutex);
  ArenaCacheCap = N < 0 ? 0 : N;
  while (static_cast<int>(FreeArenas.size()) > ArenaCacheCap)
    FreeArenas.pop_back();
}

int64_t ExecEngine::footprintBytes() const {
  int64_t Sum = static_cast<int64_t>(NodeBase.size() * sizeof(int32_t));
  for (const Graph *G : {&Linked, &Barrier}) {
    Sum += static_cast<int64_t>((G->InDeg.size() + G->Sinks.size()) *
                                sizeof(int32_t));
    for (const auto &Succ : G->Succs)
      Sum += static_cast<int64_t>(sizeof(std::vector<int32_t>) +
                                  Succ.size() * sizeof(int32_t));
  }
  return Sum;
}

std::string ExecEngine::stuckReport() const {
  int64_t Now = nowNs();
  std::ostringstream OS;
  std::lock_guard<std::mutex> Lock(StateMutex);
  for (const ExecArena *A : InFlight)
    OS << "execution (age "
       << (Now - A->HbStartNs.load(std::memory_order_relaxed)) / 1000000
       << " ms): " << A->NodesDone.load(std::memory_order_relaxed) << " of "
       << NumNodes << " nodes complete, "
       << A->StepsDone.load(std::memory_order_relaxed) << " of " << TaskSteps
       << " task-steps done\n";
  return OS.str();
}

Status ExecEngine::tryExecute(const std::map<TensorVar, Region *> &Regions,
                              Trace *Out, const ExecOptions &Opts) {
  std::unique_ptr<ExecArena> A = acquireArena();
  // Census in, budget derived: while this slot is held, sibling executions
  // see one more active execution and size their thread budgets down.
  ExecutionSlot Slot;
  // Per-arena fault scope: this execution's injection-site arrivals are
  // counted privately, so a configured fault schedule hits THIS execution
  // deterministically regardless of what sibling arenas are doing.
  FaultInjector::beginExecution(A->Fault);
  // Heartbeat start, then registration: stuckReport() renders the arenas
  // on this list.
  A->HbStartNs.store(nowNs(), std::memory_order_relaxed);
  A->NodesDone.store(0, std::memory_order_relaxed);
  A->StepsDone.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.push_back(A.get());
  }
  auto Unregister = [&] {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.erase(std::find(InFlight.begin(), InFlight.end(), A.get()));
  };
  try {
    run(*A, Slot, Regions, Opts);
    if (Out && Opts.Mode == TraceMode::Off) {
      *Out = Trace();
      Out->NumProcs = Skeleton.NumProcs;
    } else if (Out) {
      *Out = Skeleton;
    }
    Unregister();
    releaseArena(std::move(A));
    return Status();
  } catch (...) {
    Unregister();
    Status S = statusFromCurrentException();
    // Containment, per-arena: the walk issues no detached work, so once
    // the failing fan-out has unwound nothing references the arena. It is
    // discarded instead of returning to the pool, so no partially-mutated
    // buffer survives into a later run; the artifact and sibling
    // executions are untouched.
    {
      std::lock_guard<std::mutex> Lock(StateMutex);
      ++Arenas.Discarded;
    }
    A.reset();
    S.appendNote("failed execution's arena discarded; the artifact "
                 "remains reusable");
    return S;
  }
}

void ExecEngine::run(ExecArena &A, const ExecutionSlot &Slot,
                     const std::map<TensorVar, Region *> &Regions,
                     const ExecOptions &Opts) {
  if (A.Execs.size() != Members.size()) {
    A.Execs.resize(Members.size());
    A.Regs.resize(Members.size());
  }
  for (size_t I = 0; I < Members.size(); ++I)
    resolveRegions(Members[I]->Slots, Regions, A.Regs[I]);
  // A token tripped before the walk starts cancels here, before any side
  // effect; runNode re-checks at every node boundary and runTask at every
  // step.
  Opts.Cancel.check();

  for (size_t I = 0; I < Members.size(); ++I) {
    const CompiledPlan &CP = *Members[I];
    ensureExecState(CP.Tasks, CP.Slots.size(), CP.LeafS, CP.RhsTape,
                    A.Execs[I], A.MemCharge);
  }

  std::optional<ThreadPool::InlineScope> Inline;
  ThreadLayout Layout = resolveThreads(Opts, Slot, NumTasks, A.OwnCtx, Inline);
  Walk W{Opts.Cancel,        &A.Fault,   Layout.LeafLP,
         Opts.ZeroCopyViews, Layout.Pool};

  if (!Layout.Pool || Layout.TaskWays <= 1) {
    for (int32_t Node = 0; Node < NumNodes; ++Node)
      runNode(A, Node, W);
    return;
  }

  // With views off the conservative barrier graph runs: no override makes
  // producer-task data final early, so every cross-statement dependency
  // must see the producer's writeback.
  const Graph &G = W.ViewsOn ? Linked : Barrier;
  std::vector<int32_t> &InDeg = A.InDeg, &Ready = A.Ready;
  InDeg = G.InDeg;
  Ready.clear();
  for (int32_t Node = NumNodes - 1; Node >= 0; --Node)
    if (InDeg[static_cast<size_t>(Node)] == 0 &&
        !G.Succs[static_cast<size_t>(Node)].empty())
      Ready.push_back(Node);
  int32_t Unclaimed = NumNodes - static_cast<int32_t>(G.Sinks.size());
  std::mutex Mu;
  std::condition_variable CV;
  bool Failed = false;
  std::exception_ptr Error;
  // Workers block on the condvar only while some sibling is mid-node (an
  // idle graph with unclaimed nodes always has a ready one), so draining
  // terminates; a node failure latches the first error, wakes everyone,
  // and the workers exit before the error is rethrown here.
  auto worker = [&] {
    for (;;) {
      int32_t Node = -1;
      {
        std::unique_lock<std::mutex> L(Mu);
        CV.wait(L, [&] { return Failed || Unclaimed == 0 || !Ready.empty(); });
        if (Failed || Ready.empty())
          return; // Nothing left to claim: back to the pool.
        Node = Ready.back();
        Ready.pop_back();
        if (--Unclaimed == 0)
          CV.notify_all();
      }
      try {
        runNode(A, Node, W);
      } catch (...) {
        std::lock_guard<std::mutex> L(Mu);
        if (!Error)
          Error = std::current_exception();
        Failed = true;
        CV.notify_all();
        return;
      }
      bool Woke = false;
      {
        std::lock_guard<std::mutex> L(Mu);
        for (int32_t S : G.Succs[static_cast<size_t>(Node)])
          if (--InDeg[static_cast<size_t>(S)] == 0 &&
              !G.Succs[static_cast<size_t>(S)].empty()) {
            Ready.push_back(S);
            Woke = true;
          }
      }
      if (Woke)
        CV.notify_all();
    }
  };
  int64_t Workers = std::min<int64_t>(Layout.TaskWays, Unclaimed);
  const CancelToken *Tok = Opts.Cancel.valid() ? &Opts.Cancel : nullptr;
  Layout.Pool->parallelFor(Workers, [&](int64_t) { worker(); }, Tok);
  if (Error)
    std::rethrow_exception(Error);
  for (int32_t Node : G.Sinks)
    runNode(A, Node, W);
}

void ExecEngine::runNode(ExecArena &A, int32_t Node, const Walk &W) const {
  // Node boundaries are cancellation points (task nodes re-check at every
  // step): a tripped token stops the walk here and the throw flows through
  // the containment path.
  W.Cancel.check();
  // Decode: members own contiguous node ranges in program order.
  size_t I = static_cast<size_t>(
      std::upper_bound(NodeBase.begin(), NodeBase.end(), Node) -
      NodeBase.begin() - 1);
  int32_t Local = Node - NodeBase[I];
  int32_t Tasks = static_cast<int32_t>(Members[I]->Tasks.size());
  if (Local == 0) {
    // Zero node: region-wide zero of the member's output, unless the tasks
    // clear their own rectangles (DeadZero).
    if (!(W.ViewsOn && DeadZero[I]))
      A.Regs[I][static_cast<size_t>(Members[I]->OutSlot)]->zero();
  } else if (Local == Tasks + 1)
    writeback(A, I, W);
  else
    runTask(A, I, static_cast<size_t>(Local - 1), W);
  A.NodesDone.fetch_add(1, std::memory_order_relaxed);
}

void ExecEngine::runTask(ExecArena &A, size_t Member, size_t TaskIdx,
                         const Walk &W) const {
  const CompiledPlan &CP = *Members[Member];
  const CompiledTask &CT = CP.Tasks[TaskIdx];
  ExecArena::TaskExec &TE = A.Execs[Member][TaskIdx];
  const std::vector<Region *> &Regs = A.Regs[Member];
  const ProgramTaskLinks *Links =
      Link ? &Link->Stmts[Member].Tasks[TaskIdx] : nullptr;
  // A view is the region's storage at the rectangle's recorded offset
  // (the rectangle was proved inside the shape at compile time, and the
  // region's shape checked when the map was resolved).
  auto bindView = [&](const CompiledGather &G) {
    const size_t S = static_cast<size_t>(G.Slot);
    TE.Data[S] = Regs[S]->data() + G.Runs.RegBase;
    TE.View[S] = 1;
  };
  auto bindOwned = [&](const CompiledGather &G) -> Instance & {
    const size_t S = static_cast<size_t>(G.Slot);
    Instance &Inst = TE.Owned[S];
    Inst.reset(G.R);
    TE.Data[S] = Inst.data();
    TE.View[S] = 0;
    return Inst;
  };
  // Bind one recorded input gather. Aliasable gathers (and, in a linked
  // program, link-elided ones) bind a zero-copy view of Region storage;
  // the rest reset + replay the precomputed coalesced run program.
  auto bindInput = [&](const CompiledGather &G, bool LinkElided) {
    FaultInjector::inject(FaultInjector::Site::Gather, W.Fault);
    if (W.ViewsOn && (G.Class == GatherClass::Aliasable || LinkElided))
      bindView(G);
    else
      Regs[static_cast<size_t>(G.Slot)]->gatherCompiled(bindOwned(G), G.Runs,
                                                        W.LeafLP);
  };

  // Launch phase: task-level instances (private accumulator for the
  // output, fetched copies for the inputs). The accumulator's zero is
  // skipped when the compile phase proved the leaf overwrites it entirely.
  // An aliased accumulator (exclusive home-resident rectangle, or a linked
  // in-place writer) binds the region storage itself and elides its
  // writeback at the end node; the zero node cleared that storage, unless
  // its zero is dead, in which case the task clears its own rectangle here.
  for (size_t Gi = 0; Gi < CT.LaunchGathers.size(); ++Gi) {
    const CompiledGather &G = CT.LaunchGathers[Gi];
    if (!G.IsOutput) {
      bindInput(G, Links && Links->LaunchView[Gi]);
    } else if (W.ViewsOn && (G.Class == GatherClass::Aliasable ||
                             (Links && Links->OutView))) {
      bindView(G);
      if (DeadZero[Member] && !CT.SkipOutputZero)
        Regs[static_cast<size_t>(G.Slot)]->zeroCompiled(G.R, G.Runs,
                                                        W.LeafLP);
    } else if (Instance &Inst = bindOwned(G); !CT.SkipOutputZero) {
      Inst.zero();
    }
  }

  // Steps: fetches and leaf kernels replayed from the compiled program
  // (rectangles, residency dedup, leaf activation and the leaf bindings
  // were all decided at compile time).
  for (size_t S = 0; S < CP.StepVals.size(); ++S) {
    W.Cancel.check();
    const std::vector<CompiledGather> &Gs = CT.StepGathers[S];
    for (size_t Gi = 0; Gi < Gs.size(); ++Gi)
      bindInput(Gs[Gi], Links && Links->StepView[S][Gi]);
    if (CT.RunLeaf[S]) {
      FaultInjector::inject(FaultInjector::Site::Leaf, W.Fault);
      leaf::runCompiledLeaf(TE.Leaf, CP.LeafS, CT.Leaf[S], TE.Data.data(),
                            TE.View.data(), CP.RhsTape, W.LeafLP,
                            CT.SkipOutputZero);
    }
    A.StepsDone.fetch_add(1, std::memory_order_relaxed);
  }
}

void ExecEngine::writeback(ExecArena &A, size_t Member, const Walk &W) const {
  // A viewed accumulator already wrote the home region in place, so its
  // merge is elided entirely (the alias proof guarantees no other task
  // contributes to those elements, so there is no merge order to
  // preserve).
  const CompiledPlan &CP = *Members[Member];
  const size_t Out = static_cast<size_t>(CP.OutSlot);
  Region *OutR = A.Regs[Member][Out];
  std::vector<ExecArena::TaskExec> &Execs = A.Execs[Member];
  if (!W.Pool || CP.Slots[Out].order() == 0) {
    for (ExecArena::TaskExec &TE : Execs)
      if (!TE.View[Out]) {
        FaultInjector::inject(FaultInjector::Site::Writeback, W.Fault);
        OutR->reduceBack(TE.Owned[Out]);
      }
    return;
  }
  // Stripe the merge over output rows. Within a stripe every element
  // still accumulates the tasks in task order, so the result is
  // bitwise-identical to the sequential merge.
  W.Pool->parallelForChunks(
      OutR->shape()[0],
      [&](int64_t RowLo, int64_t RowHi) {
        FaultInjector::inject(FaultInjector::Site::Writeback, W.Fault);
        for (ExecArena::TaskExec &TE : Execs)
          if (!TE.View[Out])
            OutR->reduceBackRows(TE.Owned[Out], RowLo, RowHi);
      },
      W.Cancel.valid() ? &W.Cancel : nullptr);
}
