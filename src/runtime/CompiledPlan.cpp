//===- runtime/CompiledPlan.cpp -------------------------------*- C++ -*-===//
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
// ExecArena — the artifact members read here (Tasks, StepVals, RhsTape,
// Skeleton, the gather run programs) are immutable after construction, so
// concurrent executions share them freely. tryExecute is acquire-arena /
// run / release-or-discard; there is no execution-wide lock. Each
// execution also claims an ExecutionSlot, dividing the configured thread
// count by the number of executions in flight so N concurrent executions
// never oversubscribe the machine (and at budget 1 an execution runs fully
// inline on its client thread — N clients, N truly parallel walks).
//
// One execution order: tasks fan out once, and each task runs its own
// chain — launch gathers, then (gather -> leaf) per step — with no global
// step barrier (runTask, which CompiledProgram's task nodes run too). This
// is legal because every gather only reads input Regions, which are
// immutable for the whole execution, and every accumulator is either
// task-private or an exclusively-owned alias of the output region; so no
// task can observe another's progress, and at one thread the walk is
// simply task-major. Copy/compute overlap is left to the distributed
// runtime, which the Simulator models as MachineSpec::OverlapFactor.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledPlan.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "runtime/PlanAnalysis.h"
#include "support/Error.h"
#include "support/ExecContext.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

using namespace distal;

CompiledPlan::CompiledPlan(Plan Pl, const Mapper &Map)
    : P(std::move(Pl)), RhsTape(leaf::compileTape(P.Nest.Stmt.rhs())) {
  PlanAnalysisResult R = analyzePlan(P, Map);
  Skeleton = std::move(R.Skeleton);
  Tasks = std::move(R.Tasks);
  StepVals = std::move(R.StepVals);
}

CompiledPlan::~CompiledPlan() = default;

CompiledPlan::DataMovementStats CompiledPlan::dataMovementStats() const {
  DataMovementStats D;
  for (const CompiledTask &CT : Tasks) {
    for (const CompiledGather &G : CT.LaunchGathers) {
      int64_t Bytes = (G.R.dim() == 0 ? 1 : G.R.volume()) * 8;
      if (G.IsOutput)
        (G.Class == GatherClass::Aliasable ? D.WritebackElidedBytes
                                           : D.WritebackBytes) += Bytes;
      else
        (G.Class == GatherClass::Aliasable ? D.ElidedBytes
                                           : D.GatheredBytes) += Bytes;
    }
    for (const auto &Step : CT.StepGathers)
      for (const CompiledGather &G : Step)
        (G.Class == GatherClass::Aliasable ? D.ElidedBytes
                                           : D.GatheredBytes) +=
            (G.R.dim() == 0 ? 1 : G.R.volume()) * 8;
  }
  return D;
}

int64_t CompiledPlan::zeroSkipTaskCount() const {
  int64_t N = 0;
  for (const CompiledTask &CT : Tasks)
    N += CT.SkipOutputZero ? 1 : 0;
  return N;
}

void CompiledPlan::ensureExecState(ExecArena &A) const {
  if (!A.Execs.empty() || Tasks.empty())
    return;
  A.Execs.resize(Tasks.size());
  // The reserved capacities are charged against the governor in one sum —
  // Instance::reserve only reserves capacity, so the ledger records the
  // compile-time maxima the buffers will grow to.
  int64_t Sum = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const CompiledTask &CT = Tasks[I];
    ExecArena::TaskExec &TE = A.Execs[I];
    TE.FixedVals = CT.DistVals;
    // Size every instance buffer once, at the maximum rectangle volume the
    // compiled program will ever bind it to, so steady-state executions
    // never reallocate.
    std::map<TensorVar, int64_t> MaxVol;
    for (const CompiledGather &G : CT.LaunchGathers)
      MaxVol[G.Tensor] = std::max(MaxVol[G.Tensor], G.R.volume());
    for (const auto &Step : CT.StepGathers)
      for (const CompiledGather &G : Step)
        MaxVol[G.Tensor] = std::max(MaxVol[G.Tensor], G.R.volume());
    for (const auto &[TV, Vol] : MaxVol) {
      TE.OwnedInsts[TV].reserve(Vol);
      Sum += std::max<int64_t>(Vol, 1) * 8;
    }
  }
  A.MemCharge.add(Sum);
}

bool CompiledPlan::poisoned() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  return Poisoned;
}

void CompiledPlan::poisonForTesting() {
  std::lock_guard<std::mutex> Lock(StateMutex);
  Poisoned = true;
}

std::unique_ptr<ExecArena> CompiledPlan::acquireArena() {
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

void CompiledPlan::releaseArena(std::unique_ptr<ExecArena> A) {
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

CompiledPlan::ArenaStats CompiledPlan::arenaStats() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  ArenaStats S = Arenas;
  S.Cached = static_cast<int>(FreeArenas.size());
  return S;
}

int64_t CompiledPlan::footprintBytes() const {
  // An estimate of the artifact's resident metadata: the dominant term is
  // the per-task gather programs. Exact malloc accounting is not the goal
  // — the PlanCache only needs a consistent measure to charge cached
  // artifacts with.
  int64_t Sum = static_cast<int64_t>(sizeof(*this));
  for (const CompiledTask &CT : Tasks) {
    Sum += static_cast<int64_t>(sizeof(CompiledTask));
    Sum += static_cast<int64_t>(CT.LaunchGathers.size() *
                                sizeof(CompiledGather));
    for (const auto &Step : CT.StepGathers)
      Sum += static_cast<int64_t>(Step.size() * sizeof(CompiledGather));
    Sum += static_cast<int64_t>(CT.RunLeaf.size());
  }
  return Sum;
}

std::string CompiledPlan::stuckReport() const {
  using Clock = std::chrono::steady_clock;
  int64_t NowNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  std::lock_guard<std::mutex> Lock(StateMutex);
  std::ostringstream OS;
  for (const ExecArena *A : InFlight) {
    int64_t AgeMs =
        (NowNs - A->HbStartNs.load(std::memory_order_relaxed)) / 1000000;
    OS << "execution (age " << AgeMs << " ms): ";
    switch (A->HbPhase.load(std::memory_order_relaxed)) {
    case 1:
      OS << "task walk, " << A->StepsDone.load(std::memory_order_relaxed)
         << " of " << Tasks.size() * StepVals.size() << " task-steps done";
      break;
    case 2:
      OS << "writeback";
      break;
    default:
      OS << "entering";
      break;
    }
    OS << "\n";
  }
  return OS.str();
}

void CompiledPlan::setArenaCacheCap(int N) {
  std::lock_guard<std::mutex> Lock(StateMutex);
  ArenaCacheCap = N < 0 ? 0 : N;
  while (static_cast<int>(FreeArenas.size()) > ArenaCacheCap)
    FreeArenas.pop_back();
}

Trace CompiledPlan::execute(const std::map<TensorVar, Region *> &Regions,
                            const ExecOptions &Opts) {
  Trace Out;
  Status S = tryExecute(Regions, Out, Opts);
  if (!S.ok())
    throwStatus(std::move(S));
  return Out;
}

Status CompiledPlan::tryExecute(const std::map<TensorVar, Region *> &Regions,
                                Trace &Out, const ExecOptions &Opts) {
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    if (Poisoned)
      return Status(ErrorCode::FailedPrecondition,
                    "CompiledPlan is poisoned; recompile the plan (and evict "
                    "any PlanCache entry holding it)");
  }
  std::unique_ptr<ExecArena> A = acquireArena();
  // Census in, budget derived: while this slot is held, sibling executions
  // see one more active execution and size their thread budgets down.
  ExecutionSlot Slot;
  // Per-arena fault scope: this execution's injection-site arrivals are
  // counted privately, so a configured fault schedule hits THIS execution
  // deterministically regardless of what sibling arenas are doing.
  FaultInjector::beginExecution(A->Fault);
  // Heartbeat registration: stuckReport() renders the arenas on this list.
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.push_back(A.get());
  }
  auto Unregister = [&] {
    std::lock_guard<std::mutex> Lock(StateMutex);
    InFlight.erase(std::find(InFlight.begin(), InFlight.end(), A.get()));
  };
  try {
    Out = executeBody(*A, Slot, Regions, Opts);
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

CompiledPlan::ThreadLayout CompiledPlan::resolveThreads(
    const ExecOptions &Opts, const ExecutionSlot &Slot, int64_t NumTasks,
    std::unique_ptr<ExecContext> &OwnCtx,
    std::optional<ThreadPool::InlineScope> &Inline) {
  // The configured width is divided by the number of executions in flight
  // (ExecutionSlot::budget) so concurrent executions share the machine
  // instead of oversubscribing it; at budget 1 the walk runs fully inline
  // on the calling thread.
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

void CompiledPlan::runTask(ExecArena &A, size_t TaskIdx, const TaskWalk &W,
                           const ProgramTaskLinks *Links) const {
  const CompiledTask &CT = Tasks[TaskIdx];
  ExecArena::TaskExec &TE = A.Execs[TaskIdx];
  // Bind one recorded input gather. Aliasable gathers (and, in a linked
  // program, link-elided ones) bind a zero-copy view of Region storage;
  // the rest reset + replay the precomputed coalesced run program.
  auto bindInput = [&](const CompiledGather &G, bool LinkElided) {
    FaultInjector::inject(FaultInjector::Site::Gather, W.Fault);
    Instance &Inst = TE.OwnedInsts[G.Tensor];
    if (W.ViewsOn && (G.Class == GatherClass::Aliasable || LinkElided)) {
      W.Regions.at(G.Tensor)->bindView(Inst, G.R);
    } else {
      Inst.reset(G.R);
      W.Regions.at(G.Tensor)->gatherCompiled(Inst, G.Runs, W.LeafLP);
    }
    TE.Insts[G.Tensor] = &Inst;
  };

  // Launch phase: task-level instances (private accumulator for the
  // output, fetched copies for the inputs). The accumulator's zero is
  // skipped when the compile phase proved the leaf overwrites it entirely;
  // an aliased accumulator (exclusive home-resident rectangle, or a linked
  // in-place writer) binds the region storage itself, which the
  // region-wide zero already cleared, and elides its writeback at the end.
  for (size_t Gi = 0; Gi < CT.LaunchGathers.size(); ++Gi) {
    const CompiledGather &G = CT.LaunchGathers[Gi];
    if (!G.IsOutput) {
      bindInput(G, Links && Links->LaunchView[Gi]);
      continue;
    }
    Instance &Inst = TE.OwnedInsts[G.Tensor];
    if (W.ViewsOn &&
        (G.Class == GatherClass::Aliasable || (Links && Links->OutView))) {
      W.Regions.at(G.Tensor)->bindView(Inst, G.R);
    } else {
      Inst.reset(G.R);
      if (!CT.SkipOutputZero)
        Inst.zero();
    }
    TE.Insts[G.Tensor] = &Inst;
  }

  // Steps: fetches and leaf kernels replayed from the compiled program
  // (rectangles, residency dedup, and leaf activation were all decided at
  // compile time).
  for (size_t S = 0; S < StepVals.size(); ++S) {
    W.Cancel.check();
    for (const auto &[V, C] : StepVals[S])
      TE.FixedVals[V] = C;
    const std::vector<CompiledGather> &Gs = CT.StepGathers[S];
    for (size_t Gi = 0; Gi < Gs.size(); ++Gi)
      bindInput(Gs[Gi], Links && Links->StepView[S][Gi]);
    if (CT.RunLeaf[S]) {
      FaultInjector::inject(FaultInjector::Site::Leaf, W.Fault);
      leaf::runCompiledLeaf(TE.Leaf, P, TE.FixedVals, TE.Insts, RhsTape,
                            W.LeafLP, CT.SkipOutputZero);
    }
    A.StepsDone.fetch_add(1, std::memory_order_relaxed);
  }
}

Trace CompiledPlan::executeBody(ExecArena &A, const ExecutionSlot &Slot,
                                const std::map<TensorVar, Region *> &Regions,
                                const ExecOptions &Opts) {
  const TensorVar &Out = P.Nest.Stmt.lhs().tensor();
  for (const TensorVar &TV : P.Nest.Stmt.tensors())
    if (!Regions.count(TV))
      reportFatalError("no region provided for tensor '" + TV.name() + "'");
  // Cancellation gate before any side effect, then heartbeat start. The
  // token (invalid: a pointer test; quiet: one relaxed load) is re-polled
  // at every task's step boundaries and every chunk claim below.
  Opts.Cancel.check();
  const CancelToken *Tok = Opts.Cancel.valid() ? &Opts.Cancel : nullptr;
  A.HbStartNs.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_relaxed);
  A.StepsDone.store(0, std::memory_order_relaxed);
  A.HbPhase.store(1, std::memory_order_relaxed);
  Regions.at(Out)->zero();

  int64_t NumTasks = static_cast<int64_t>(Tasks.size());
  std::optional<ThreadPool::InlineScope> Inline;
  ThreadLayout Layout = resolveThreads(Opts, Slot, NumTasks, A.OwnCtx, Inline);
  ensureExecState(A);

  // Tasks fan out once; each runs its whole chain.
  TaskWalk W{Regions, Opts.Cancel, &A.Fault, Layout.LeafLP, Opts.ZeroCopyViews};
  if (Layout.Pool && Layout.TaskWays > 1)
    Layout.Pool->parallelForWays(
        NumTasks, Layout.TaskWays,
        [&](int64_t Lo, int64_t Hi) {
          for (int64_t I = Lo; I < Hi; ++I)
            runTask(A, static_cast<size_t>(I), W);
        },
        Tok);
  else
    for (size_t I = 0; I < Tasks.size(); ++I)
      runTask(A, I, W);

  // Writeback / reduction of every task's output instance to its owners.
  // A viewed accumulator already wrote the home region in place — its
  // striped owner-ordered writeback is elided entirely (the alias proof
  // guarantees no other task contributes to those elements, so there is
  // no merge order to preserve).
  Region *OutR = Regions.at(Out);
  A.HbPhase.store(2, std::memory_order_relaxed);
  Opts.Cancel.check();
  if (!Layout.Pool || Out.order() == 0) {
    for (ExecArena::TaskExec &TE : A.Execs) {
      const Instance &OutInst = TE.OwnedInsts.at(Out);
      if (!OutInst.isView()) {
        FaultInjector::inject(FaultInjector::Site::Writeback, &A.Fault);
        OutR->reduceBack(OutInst);
      }
    }
  } else {
    // Stripe the merge over output rows. Within a stripe every element
    // still accumulates the tasks in task order, so the result is
    // bitwise-identical to the sequential merge.
    Coord Rows = OutR->shape()[0];
    Layout.Pool->parallelForChunks(
        Rows,
        [&](int64_t RowLo, int64_t RowHi) {
          FaultInjector::inject(FaultInjector::Site::Writeback, &A.Fault);
          for (ExecArena::TaskExec &TE : A.Execs) {
            const Instance &OutInst = TE.OwnedInsts.at(Out);
            if (!OutInst.isView())
              OutR->reduceBackRows(OutInst, RowLo, RowHi);
          }
        },
        Tok);
  }
  A.HbPhase.store(0, std::memory_order_relaxed);

  if (Opts.Mode == TraceMode::Off) {
    Trace Empty;
    Empty.NumProcs = Skeleton.NumProcs;
    return Empty;
  }
  return Skeleton;
}
