//===- runtime/CompiledProgram.cpp ----------------------------*- C++ -*-===//
//
// Whole-program execution: one dependency graph over statement tasks. A
// task node runs the member's own per-task walker (CompiledPlan::runTask:
// launch gathers, then the full step loop), and the writeback node the
// deterministic merge, with two program-level overrides decided at link
// time: a tier-A consumer gather binds the producer's region bytes as a
// zero-copy view instead of copying them, and a tier-B producer task binds
// the output region in place so its writeback merge vanishes. Both
// overrides are byte-transparent: Region storage is one dense row-major
// array whatever the distribution, a viewed rectangle reads the same bytes
// a copy would have snapshotted (the graph orders the read after the bytes
// are final), and an exclusive in-place writer over a pre-zeroed region
// produces the bytes the merge would have produced. With views off,
// execution uses the conservative barrier graph (every cross-statement
// edge through the producer's writeback node) and no overrides — the
// differential reference path.
//
// Scheduling: a mutex/condvar ready queue drained by TaskWays
// workers running as one structured parallelFor on the execution
// context's pool. Dependencies only point to earlier statements' nodes
// (or a task's own zero node), so the graph is acyclic by construction
// and plain program order is a valid topological order — the 1-thread
// path just walks nodes sequentially. The program walk issues no
// detached jobs, so failure containment has nothing in flight to wait for.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledProgram.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <optional>
#include <sstream>

#include "runtime/LeafCompiler.h"
#include "support/Error.h"
#include "support/ExecContext.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

using namespace distal;

namespace distal::detail {
/// Shared state of one asynchronous program execution (see
/// CompiledProgram::submit): the detached-lane ticket plus the latched
/// Status.
struct ProgramRunState {
  std::mutex Mu;
  bool Done = false;
  Status S;
  ThreadPool::Ticket T;
};
} // namespace distal::detail

ProgramFuture::ProgramFuture(std::shared_ptr<detail::ProgramRunState> St)
    : St(std::move(St)) {}

bool ProgramFuture::done() const {
  if (!St)
    return false;
  std::lock_guard<std::mutex> Lock(St->Mu);
  return St->Done;
}

const Status &ProgramFuture::wait() {
  static const Status Invalid(ErrorCode::FailedPrecondition,
                              "wait() on an invalid ProgramFuture");
  if (!St)
    return Invalid;
  // The ticket's wait is the caller-runs path: an unclaimed job runs
  // inline on this thread, so waiting can never stall on a busy pool. The
  // job never throws (it latches a Status), so wait() cannot either.
  St->T.waitNoThrow();
  std::lock_guard<std::mutex> Lock(St->Mu);
  return St->S;
}

CompiledProgram::CompiledProgram(
    std::vector<std::shared_ptr<CompiledPlan>> Ms)
    : Members(std::move(Ms)) {
  if (Members.empty())
    throwError(ErrorCode::InvalidArgument,
               "CompiledProgram requires at least one statement");
  for (const std::shared_ptr<CompiledPlan> &M : Members)
    if (!M)
      throwError(ErrorCode::InvalidArgument,
                 "CompiledProgram member artifact is null");

  std::vector<const CompiledPlan *> Raw;
  Raw.reserve(Members.size());
  for (const std::shared_ptr<CompiledPlan> &M : Members)
    Raw.push_back(M.get());
  Link = analyzeProgramLinks(Raw);

  // Node numbering: zero node, one node per task, writeback node.
  NodeBase.resize(Members.size());
  int32_t Base = 0;
  for (size_t I = 0; I < Members.size(); ++I) {
    NodeBase[I] = Base;
    Base += static_cast<int32_t>(Members[I]->compiledTasks().size()) + 2;
  }
  NumNodes = Base;
  buildGraphs();

  // Link stats: elision counts from the analysis; the dependency split
  // counts only pass-3 consumer edges (WAR/WAW zero edges are inherent in
  // both execution styles and are not a linking outcome).
  Links.ElidedGathers = Link.ElidedGathers;
  Links.ElidedGatherBytes = Link.ElidedGatherBytes;
  Links.ElidedWritebackTasks = Link.ElidedWritebackTasks;
  Links.ElidedWritebackBytes = Link.ElidedWritebackBytes;
  for (const ProgramStmtLinks &SL : Link.Stmts)
    for (const ProgramTaskLinks &TL : SL.Tasks)
      for (const ProgramDep &D : TL.Deps)
        ++(D.Task >= 0 ? Links.DirectDeps : Links.BarrierDeps);

  // Linked data-movement volume: member sums with the link-elided bytes
  // shifted into the elided buckets.
  for (const std::shared_ptr<CompiledPlan> &M : Members) {
    CompiledPlan::DataMovementStats D = M->dataMovementStats();
    Movement.GatheredBytes += D.GatheredBytes;
    Movement.ElidedBytes += D.ElidedBytes;
    Movement.WritebackBytes += D.WritebackBytes;
    Movement.WritebackElidedBytes += D.WritebackElidedBytes;
  }
  Movement.GatheredBytes -= Link.ElidedGatherBytes;
  Movement.ElidedBytes += Link.ElidedGatherBytes;
  Movement.WritebackBytes -= Link.ElidedWritebackBytes;
  Movement.WritebackElidedBytes += Link.ElidedWritebackBytes;

  // The unlinked per-statement skeleton, concatenated in program order.
  for (const std::shared_ptr<CompiledPlan> &M : Members) {
    const Trace &T = M->trace();
    Skeleton.Phases.insert(Skeleton.Phases.end(), T.Phases.begin(),
                           T.Phases.end());
    Skeleton.NumProcs = std::max(Skeleton.NumProcs, T.NumProcs);
    for (const auto &[Proc, Bytes] : T.PeakMemBytes) {
      int64_t &Slot = Skeleton.PeakMemBytes[Proc];
      Slot = std::max(Slot, Bytes);
    }
  }
}

CompiledProgram::~CompiledProgram() = default;

void CompiledProgram::buildGraphs() {
  Linked.InDeg.assign(static_cast<size_t>(NumNodes), 0);
  Linked.Succs.assign(static_cast<size_t>(NumNodes), {});
  Barrier.InDeg.assign(static_cast<size_t>(NumNodes), 0);
  Barrier.Succs.assign(static_cast<size_t>(NumNodes), {});
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
    const ProgramStmtLinks &SL = Link.Stmts[I];
    int32_t Zero = NodeBase[I];
    int32_t End = endNode(static_cast<int32_t>(I));
    for (int32_t J : SL.ZeroDeps) {
      addEdge(Linked, endNode(J), Zero);
      addEdge(Barrier, endNode(J), Zero);
    }
    for (size_t T = 0; T < SL.Tasks.size(); ++T) {
      int32_t Task = Zero + 1 + static_cast<int32_t>(T);
      addEdge(Linked, Zero, Task);
      addEdge(Barrier, Zero, Task);
      addEdge(Linked, Task, End);
      addEdge(Barrier, Task, End);
      // Linked graph: a producer task that writes in place is depended on
      // directly; everything else routes through the producer's writeback
      // node. Barrier graph: every cross-statement edge is a writeback
      // edge (dedup — several task deps of one producer collapse to one).
      int32_t LastBarrier = -1;
      for (const ProgramDep &D : SL.Tasks[T].Deps) {
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
}

std::unique_ptr<CompiledProgram::ProgramArena> CompiledProgram::acquireArena() {
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    if (!FreeArenas.empty()) {
      std::unique_ptr<ProgramArena> PA = std::move(FreeArenas.back());
      FreeArenas.pop_back();
      ++Arenas.Reused;
      return PA;
    }
    ++Arenas.Created;
  }
  return std::make_unique<ProgramArena>();
}

void CompiledProgram::releaseArena(std::unique_ptr<ProgramArena> PA) {
  // Under memory pressure the pool stops caching (mirroring
  // CompiledPlan::releaseArena): the member arenas' buffers free now and
  // their governor charges release, draining usage.
  if (ResourceGovernor::pressure() != ResourceGovernor::Pressure::None) {
    ResourceGovernor::noteArenaCacheBypass();
    return;
  }
  std::lock_guard<std::mutex> Lock(StateMutex);
  if (static_cast<int>(FreeArenas.size()) < ArenaCacheCap)
    FreeArenas.push_back(std::move(PA));
}

CompiledPlan::ArenaStats CompiledProgram::arenaStats() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  CompiledPlan::ArenaStats S = Arenas;
  S.Cached = static_cast<int>(FreeArenas.size());
  return S;
}

int64_t CompiledProgram::footprintBytes() const {
  // Linking overhead only: the member artifacts are charged by their own
  // cache entries, so a program entry adds just the graphs and link
  // records it built on top of them.
  int64_t Sum = static_cast<int64_t>(sizeof(*this));
  Sum += static_cast<int64_t>(NodeBase.size() * sizeof(int32_t));
  for (const Graph *G : {&Linked, &Barrier}) {
    Sum += static_cast<int64_t>(G->InDeg.size() * sizeof(int32_t));
    for (const auto &Succ : G->Succs)
      Sum += static_cast<int64_t>(sizeof(std::vector<int32_t>) +
                                  Succ.size() * sizeof(int32_t));
  }
  for (const ProgramStmtLinks &SL : Link.Stmts)
    for (const ProgramTaskLinks &TL : SL.Tasks) {
      Sum += static_cast<int64_t>(sizeof(ProgramTaskLinks));
      Sum += static_cast<int64_t>(TL.Deps.size() * sizeof(ProgramDep));
      Sum += static_cast<int64_t>(TL.LaunchView.size());
      for (const auto &Step : TL.StepView)
        Sum += static_cast<int64_t>(Step.size());
    }
  return Sum;
}

std::string CompiledProgram::stuckReport() const {
  int64_t NowNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  std::ostringstream OS;
  std::lock_guard<std::mutex> Lock(StateMutex);
  for (const ProgramArena *PA : InFlight) {
    int64_t Start = PA->HbStartNs.load(std::memory_order_relaxed);
    int64_t AgeMs = Start > 0 ? (NowNs - Start) / 1000000 : 0;
    OS << "program execution (age " << AgeMs << " ms): "
       << PA->HbDone.load(std::memory_order_relaxed) << " of " << NumNodes
       << " nodes complete\n";
  }
  return OS.str();
}

void CompiledProgram::setArenaCacheCap(int N) {
  std::lock_guard<std::mutex> Lock(StateMutex);
  ArenaCacheCap = N < 0 ? 0 : N;
  while (static_cast<int>(FreeArenas.size()) > ArenaCacheCap)
    FreeArenas.pop_back();
}

void CompiledProgram::execute(const std::map<TensorVar, Region *> &Regions,
                              const ExecOptions &Opts) {
  Status S = tryExecute(Regions, Opts);
  if (!S.ok())
    throwStatus(std::move(S));
}

Status CompiledProgram::tryExecute(const std::map<TensorVar, Region *> &Regions,
                                   const ExecOptions &Opts) {
  std::unique_ptr<ProgramArena> PA = acquireArena();
  // One census slot and one fault scope for the whole program: a
  // configured fault schedule counts site arrivals across the entire
  // program execution, deterministically per execution.
  ExecutionSlot Slot;
  FaultInjector::beginExecution(PA->Fault);
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.push_back(PA.get());
  }
  auto Unregister = [&] {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.erase(std::find(InFlight.begin(), InFlight.end(), PA.get()));
  };
  try {
    runBody(*PA, Slot, Regions, Opts);
    Unregister();
    releaseArena(std::move(PA));
    return Status();
  } catch (...) {
    Unregister();
    Status S = statusFromCurrentException();
    // Containment, mirroring CompiledPlan::tryExecute: nothing references
    // the arena once the walk has unwound, so it is discarded.
    {
      std::lock_guard<std::mutex> Lock(StateMutex);
      ++Arenas.Discarded;
    }
    PA.reset();
    S.appendNote("failed program execution's arena discarded; the "
                 "program artifact remains reusable");
    return S;
  }
}

ProgramFuture
CompiledProgram::submit(const std::map<TensorVar, Region *> &Regions,
                        const ExecOptions &Opts,
                        std::shared_ptr<void> Keeper) {
  auto St = std::make_shared<detail::ProgramRunState>();
  std::map<TensorVar, Region *> RegionsCopy = Regions;
  St->T = ThreadPool::global().submitAsync(
      [this, St, RegionsCopy = std::move(RegionsCopy), Opts,
       Keeper = std::move(Keeper)]() mutable {
        Status S = tryExecute(RegionsCopy, Opts);
        {
          std::lock_guard<std::mutex> Lock(St->Mu);
          St->S = std::move(S);
          St->Done = true;
        }
        Keeper.reset();
      });
  return ProgramFuture(std::move(St));
}

void CompiledProgram::runBody(ProgramArena &PA, const ExecutionSlot &Slot,
                              const std::map<TensorVar, Region *> &Regions,
                              const ExecOptions &Opts) {
  for (const std::shared_ptr<CompiledPlan> &M : Members)
    for (const TensorVar &TV : M->P.Nest.Stmt.tensors())
      if (!Regions.count(TV))
        throwError(ErrorCode::InvalidArgument,
                   "no region provided for tensor '" + TV.name() + "'");

  // A token tripped before the walk starts cancels here, before any node
  // runs; runNode re-checks at every node boundary.
  Opts.Cancel.check();
  PA.HbDone.store(0, std::memory_order_relaxed);
  PA.HbStartNs.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count(),
                     std::memory_order_relaxed);

  // Per-member execution state, built once per arena and reused across
  // program executions (the same steady-state contract as CompiledPlan's
  // arenas).
  if (PA.Arenas.size() != Members.size())
    PA.Arenas.resize(Members.size());
  for (size_t I = 0; I < Members.size(); ++I) {
    if (!PA.Arenas[I])
      PA.Arenas[I] = std::make_unique<ExecArena>();
    Members[I]->ensureExecState(*PA.Arenas[I]);
  }

  int64_t TotalTasks =
      static_cast<int64_t>(NumNodes) - 2 * static_cast<int64_t>(Members.size());
  std::optional<ThreadPool::InlineScope> Inline;
  CompiledPlan::ThreadLayout Layout = CompiledPlan::resolveThreads(
      Opts, Slot, TotalTasks, PA.OwnCtx, Inline);

  // With views off the conservative barrier graph runs: no override makes
  // producer-task data final early, so every cross-statement dependency
  // must see the producer's writeback.
  CompiledPlan::TaskWalk W{Regions, Opts.Cancel, &PA.Fault, Layout.LeafLP,
                           Opts.ZeroCopyViews};
  const Graph &G = W.ViewsOn ? Linked : Barrier;

  if (!Layout.Pool || Layout.TaskWays <= 1) {
    // Sequential: program order is a valid topological order because every
    // dependency points to an earlier statement's nodes (or the task's own
    // zero node).
    for (int32_t Node = 0; Node < NumNodes; ++Node) {
      runNode(PA, Node, W);
      PA.HbDone.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  // Ready-queue scheduler over the structured pool. Workers block on the
  // condvar only while some sibling is mid-node (an idle DAG with work
  // remaining always has a ready source node), so draining terminates; a
  // node failure latches the first error, wakes everyone, and the workers
  // exit before the error is rethrown on the submitting thread.
  std::vector<int32_t> InDeg = G.InDeg;
  std::mutex Mu;
  std::condition_variable CV;
  std::vector<int32_t> Ready;
  for (int32_t Node = 0; Node < NumNodes; ++Node)
    if (InDeg[static_cast<size_t>(Node)] == 0)
      Ready.push_back(Node);
  int32_t Remaining = NumNodes;
  bool Failed = false;
  std::exception_ptr Error;
  auto worker = [&] {
    for (;;) {
      int32_t Node = -1;
      {
        std::unique_lock<std::mutex> L(Mu);
        CV.wait(L, [&] { return Failed || Remaining == 0 || !Ready.empty(); });
        if (Failed || Remaining == 0)
          return;
        Node = Ready.back();
        Ready.pop_back();
      }
      try {
        runNode(PA, Node, W);
      } catch (...) {
        std::lock_guard<std::mutex> L(Mu);
        if (!Error)
          Error = std::current_exception();
        Failed = true;
        CV.notify_all();
        return;
      }
      PA.HbDone.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> L(Mu);
        --Remaining;
        for (int32_t S : G.Succs[static_cast<size_t>(Node)])
          if (--InDeg[static_cast<size_t>(S)] == 0)
            Ready.push_back(S);
        CV.notify_all();
      }
    }
  };
  int64_t Workers = std::min<int64_t>(Layout.TaskWays, NumNodes);
  const CancelToken *Tok = Opts.Cancel.valid() ? &Opts.Cancel : nullptr;
  Layout.Pool->parallelFor(Workers, [&](int64_t) { worker(); }, Tok);
  if (Error)
    std::rethrow_exception(Error);
}

void CompiledProgram::runNode(ProgramArena &PA, int32_t Node,
                              const CompiledPlan::TaskWalk &W) {
  // Node boundaries are the program walk's cancellation points (task nodes
  // re-check at every step): a tripped token stops the graph walk here and
  // the throw flows through the existing containment path.
  W.Cancel.check();
  // Decode: statements own contiguous node ranges in program order.
  size_t I = static_cast<size_t>(
      std::upper_bound(NodeBase.begin(), NodeBase.end(), Node) -
      NodeBase.begin() - 1);
  CompiledPlan &CP = *Members[I];
  ExecArena &A = *PA.Arenas[I];
  const TensorVar &Out = CP.P.Nest.Stmt.lhs().tensor();
  int32_t Local = Node - NodeBase[I];
  int32_t NumTasks = static_cast<int32_t>(CP.Tasks.size());

  if (Local == 0) { // Zero node: region-wide zero of the statement output.
    W.Regions.at(Out)->zero();
    return;
  }

  if (Local == NumTasks + 1) { // Writeback node.
    // Sequential merge in task order — bitwise-identical to the striped
    // parallel merge of the per-statement path (which preserves task order
    // within every stripe). In-place writers (per-statement alias or
    // tier-B link) are views and skip the merge.
    Region *OutR = W.Regions.at(Out);
    for (ExecArena::TaskExec &TE : A.Execs) {
      const Instance &OutInst = TE.OwnedInsts.at(Out);
      if (!OutInst.isView()) {
        FaultInjector::inject(FaultInjector::Site::Writeback, W.Fault);
        OutR->reduceBack(OutInst);
      }
    }
    return;
  }

  // Task node: the member's own per-task walk, with the link overrides
  // applied on top of the per-statement classification.
  size_t TaskIdx = static_cast<size_t>(Local - 1);
  CP.runTask(A, TaskIdx, W, &Link.Stmts[I].Tasks[TaskIdx]);
}
