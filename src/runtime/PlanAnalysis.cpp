//===- runtime/PlanAnalysis.cpp -------------------------------*- C++ -*-===//
//
// The sequential compile-phase walk. All trace mutation happens here, so
// traces are bitwise-identical at every thread count and task/leaf split of
// the execute phase — the execute phase never adds to the trace, it replays
// the gather program this walk records.
//
//===----------------------------------------------------------------------===//

#include "runtime/PlanAnalysis.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>

#include "lower/Bounds.h"
#include "support/Error.h"

using namespace distal;

static int countMuls(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Access:
  case ExprKind::Literal:
    return 0;
  case ExprKind::Add:
  case ExprKind::Mul:
    return (E.kind() == ExprKind::Mul ? 1 : 0) + countMuls(E.lhs()) +
           countMuls(E.rhs());
  }
  unreachable("unknown expr kind");
}

/// Bounding box of the rectangles accessed by every access of \p T.
static Rect tensorRect(const TensorVar &T, const Assignment &Stmt,
                       const ProvenanceGraph &Prov,
                       const std::map<IndexVar, Interval> &Known) {
  Rect Result = Rect::empty(T.order());
  bool First = true;
  for (const Access &A : Stmt.accesses()) {
    if (A.tensor() != T)
      continue;
    Rect R = accessRect(A, Prov, Known);
    if (First) {
      Result = R;
      First = false;
      continue;
    }
    std::vector<Coord> Lo(T.order()), Hi(T.order());
    for (int D = 0; D < T.order(); ++D) {
      Lo[D] = std::min(Result.lo()[D], R.lo()[D]);
      Hi[D] = std::max(Result.hi()[D], R.hi()[D]);
    }
    Result = Rect(Point(std::move(Lo)), Point(std::move(Hi)));
  }
  DISTAL_ASSERT(!First, "tensor does not appear in the statement");
  return Result;
}

std::vector<Message> distal::planGatherMessages(const Plan &P,
                                                const TensorVar &T,
                                                const Rect &R,
                                                const Point &DstProc) {
  std::vector<Message> Msgs;
  if (R.isEmpty())
    return Msgs;
  const TensorDistribution &D = P.formatOf(T).distribution();
  const Machine &M = P.M;
  const std::vector<Coord> &Shape = T.shape();
  int64_t Dst = M.linearize(DstProc);
  int64_t DstNode = M.nodeOf(DstProc);

  // Recursively enumerate owner tiles overlapping R. Each machine level
  // partitions the piece selected by the previous level, so the recursion
  // carries the current piece rectangle.
  std::vector<Coord> Owner(M.dim());
  std::function<void(int, int, int, Rect)> Recurse =
      [&](int Level, int DimInLevel, int FlatDim, Rect Piece) {
        if (Level == D.numLevels()) {
          Rect Overlap = R.intersect(Piece);
          if (Overlap.isEmpty())
            return;
          Message Msg;
          Msg.Src = M.linearize(Point(Owner));
          Msg.Dst = Dst;
          Msg.Bytes = Overlap.volume() * 8;
          Msg.SameNode = M.nodeOf(Point(Owner)) == DstNode;
          Msg.Tensor = T.name();
          Msgs.push_back(Msg);
          return;
        }
        const DistributionLevel &L = D.level(Level);
        const MachineLevel &ML = M.level(Level);
        if (DimInLevel == ML.dim()) {
          Recurse(Level + 1, 0, FlatDim, Piece);
          return;
        }
        const MachineDimName &N = L.MachineDims[DimInLevel];
        switch (N.Kind) {
        case MachineDimName::Fixed:
          Owner[FlatDim] = N.Value;
          Recurse(Level, DimInLevel + 1, FlatDim + 1, Piece);
          return;
        case MachineDimName::Broadcast:
          // Fetch from the replica sharing the destination's coordinate
          // (Legion's mapper picks the nearest valid instance).
          Owner[FlatDim] = DstProc[FlatDim];
          Recurse(Level, DimInLevel + 1, FlatDim + 1, Piece);
          return;
        case MachineDimName::Name: {
          int TD = L.tensorDimNamed(N.Id);
          Coord PLo = std::max(R.lo()[TD], Piece.lo()[TD]);
          Coord PHi = std::min(R.hi()[TD], Piece.hi()[TD]);
          if (PLo >= PHi)
            return;
          Coord C0 = blockedColor1D(Piece.lo()[TD], Piece.hi()[TD],
                                    ML.Dims[DimInLevel], PLo);
          Coord C1 = blockedColor1D(Piece.lo()[TD], Piece.hi()[TD],
                                    ML.Dims[DimInLevel], PHi - 1);
          for (Coord C = C0; C <= C1; ++C) {
            Rect Block = blockedPiece1D(Piece.lo()[TD], Piece.hi()[TD],
                                        ML.Dims[DimInLevel], C);
            std::vector<Coord> Lo(Piece.lo().coords()),
                Hi(Piece.hi().coords());
            Lo[TD] = Block.lo()[0];
            Hi[TD] = Block.hi()[0];
            Owner[FlatDim] = C;
            Recurse(Level, DimInLevel + 1, FlatDim + 1,
                    Rect(Point(Lo), Point(Hi)));
          }
          return;
        }
        }
      };
  Recurse(0, 0, 0, Rect::forExtents(Shape));
  return Msgs;
}

PlanAnalysisResult distal::analyzePlan(const Plan &P, const Mapper &Map) {
  const Assignment &Stmt = P.Nest.Stmt;
  const ProvenanceGraph &Prov = P.Nest.Prov;
  const TensorVar &Out = Stmt.lhs().tensor();

  Rect Launch = P.launchDomain();
  Rect Steps = P.stepDomain();
  int64_t NumSteps = Steps.volume();

  PlanAnalysisResult Result;
  Trace &T = Result.Skeleton;
  T.NumProcs = P.M.numProcessors();
  T.Phases.resize(static_cast<size_t>(NumSteps) + 2);
  T.Phases.front().Label = "launch";
  for (int64_t S = 0; S < NumSteps; ++S)
    T.Phases[static_cast<size_t>(S) + 1].Label = "step " + std::to_string(S);
  T.Phases.back().Label = "writeback";

  // Baseline resident memory: owned tiles of every region per processor.
  std::map<int64_t, int64_t> TaskBytes;
  for (int64_t PId = 0; PId < T.NumProcs; ++PId) {
    Point Proc = P.M.delinearize(PId);
    int64_t Owned = 0;
    for (const TensorVar &TV : Stmt.tensors())
      Owned +=
          P.formatOf(TV).distribution().bytesOnProcessor(TV.shape(), P.M, Proc);
    T.PeakMemBytes[PId] = Owned;
  }

  std::vector<IndexVar> DistV = P.distVars();
  std::vector<IndexVar> StepV = P.stepVars();
  std::vector<TensorVar> TaskC = P.taskComms();
  std::vector<StepComm> StepC = P.stepComms();
  std::vector<IndexVar> OrigV = Stmt.defaultLoopOrder();
  double FlopsPerPoint = countMuls(Stmt.rhs()) + 1;

  /// Walk-local per-task state; what the execute phase needs lands in the
  /// recorded CompiledTask.
  struct TaskState {
    CompiledTask CT;
    std::map<IndexVar, Interval> Fixed;
    std::map<TensorVar, std::vector<Coord>> FetchKeys;
    int64_t TaskInstBytes = 0;
    int64_t MaxStepBytes = 0;
    int64_t TotalLeafPoints = 0;
  };
  std::vector<TaskState> States;

  // Statement-level preconditions of the output-alias elision: an aliased
  // accumulator writes the home region *during* the step phase, so nothing
  // may read the output region mid-execution — the output on the RHS or in
  // a step communication would observe in-flight partials (the copy path
  // lets them observe the initial zeroes instead). Scalar outputs stay on
  // the copy path (a 0-dim view buys nothing).
  bool OutAliasOK = Out.order() > 0;
  for (const Access &A : Stmt.rhsAccesses())
    OutAliasOK &= A.tensor() != Out;
  for (const StepComm &SC : StepC)
    OutAliasOK &= !(SC.Tensor == Out);

  // Statement-level precondition of the launch-phase zero-skip: a
  // non-reduction assignment (every original loop variable appears in the
  // distinct-indexed left-hand side, and the output is not read) writes
  // each output element exactly once, so a compiled leaf running in
  // overwrite mode makes the accumulator's prior contents irrelevant.
  bool OutOverwritable = Out.order() > 0;
  {
    const std::vector<IndexVar> &LhsIdx = Stmt.lhs().indices();
    std::set<IndexVar> LhsSet(LhsIdx.begin(), LhsIdx.end());
    OutOverwritable &= LhsSet.size() == LhsIdx.size();
    for (const IndexVar &V : Stmt.defaultLoopOrder())
      OutOverwritable &= LhsSet.count(V) != 0;
    for (const Access &A : Stmt.rhsAccesses())
      OutOverwritable &= A.tensor() != Out;
  }

  // Phase 0: task launch and task-level instances.
  Launch.forEachPoint([&](const Point &TP) {
    TaskState TS;
    TS.CT.TP = TP;
    TS.CT.ProcPt = Map.placeTask(TP, Launch, P.M);
    TS.CT.ProcId = P.M.linearize(TS.CT.ProcPt);
    for (size_t I = 0; I < DistV.size(); ++I) {
      TS.Fixed[DistV[I]] = Interval::point(TP[static_cast<int>(I)]);
      TS.CT.DistVals[DistV[I]] = TP[static_cast<int>(I)];
    }
    for (const TensorVar &TV : TaskC) {
      Rect R = tensorRect(TV, Stmt, Prov, TS.Fixed);
      // When the required rectangle is already resident (it lies within
      // this processor's owned piece), Legion maps the existing instance
      // instead of allocating a copy.
      Rect Owned = P.formatOf(TV).distribution().ownedRect(TV.shape(), P.M,
                                                           TS.CT.ProcPt);
      if (!Owned.contains(R) || TV == Out)
        TS.TaskInstBytes += R.volume() * 8;
      if (TV != Out)
        for (Message &Msg : planGatherMessages(P, TV, R, TS.CT.ProcPt))
          T.Phases.front().Messages.push_back(std::move(Msg));
      CompiledGather G{TV, R, TV == Out};
      G.Runs = compileGatherRuns(R, TV.shape());
      // Alias analysis, input side: a home-resident rectangle is exactly
      // the case where Legion maps the existing instance instead of a copy
      // — the execute phase binds a zero-copy view. Input regions are
      // immutable for the whole execution, so residency alone is the
      // proof. The output accumulator is classified after every task's
      // OutRect is known (it additionally needs exclusive ownership of its
      // elements).
      if (TV != Out && !R.isEmpty() && Owned.contains(R))
        G.Class = GatherClass::Aliasable;
      TS.CT.LaunchGathers.push_back(std::move(G));
    }
    TS.CT.OutRect = tensorRect(Out, Stmt, Prov, TS.Fixed);
    TS.CT.StepGathers.resize(static_cast<size_t>(NumSteps));
    TS.CT.RunLeaf.resize(static_cast<size_t>(NumSteps), 0);
    States.push_back(std::move(TS));
  });

  // Alias analysis, output side: a task's accumulator may alias the home
  // region — eliding both its launch-phase zero/copy and its owner-ordered
  // writeback — when the rectangle is home-resident on the executing
  // processor AND no other task writes any of its elements (otherwise the
  // copy path's deterministic task-ordered merge is what defines the
  // result). With those proofs, in-place accumulation performs the same
  // additions in the same order starting from the same region-wide zero,
  // so outputs stay bitwise-identical to the copy path.
  if (OutAliasOK) {
    const TensorDistribution &OutD = P.formatOf(Out).distribution();
    for (size_t I = 0; I < States.size(); ++I) {
      TaskState &TS = States[I];
      if (!OutD.ownsRect(Out.shape(), P.M, TS.CT.ProcPt, TS.CT.OutRect))
        continue;
      bool Exclusive = true;
      for (size_t J = 0; J < States.size() && Exclusive; ++J)
        Exclusive = I == J || !States[J].CT.OutRect.overlaps(TS.CT.OutRect);
      if (!Exclusive)
        continue;
      for (CompiledGather &G : TS.CT.LaunchGathers)
        if (G.IsOutput)
          G.Class = GatherClass::Aliasable;
    }
  }

  // Sequential steps, lock-stepped across all tasks. Holders track which
  // processors have each (tensor, rectangle) resident from the previous
  // step so fetches can relay from a neighbour instead of the home owner.
  using RectKey = std::pair<std::vector<Coord>, std::vector<Coord>>;
  std::map<TensorVar, std::map<RectKey, std::vector<int64_t>>> PrevHolders,
      CurHolders;
  auto keyOf = [](const Rect &R) {
    return RectKey{R.lo().coords(), R.hi().coords()};
  };
  int64_t StepIdx = 0;
  Steps.forEachPoint([&](const Point &SP) {
    Phase &Ph = T.Phases[static_cast<size_t>(StepIdx) + 1];
    CurHolders.clear();
    std::vector<std::pair<IndexVar, Coord>> Vals;
    for (size_t I = 0; I < StepV.size(); ++I)
      Vals.emplace_back(StepV[I], SP[static_cast<int>(I)]);
    Result.StepVals.push_back(std::move(Vals));
    for (TaskState &TS : States) {
      for (size_t I = 0; I < StepV.size(); ++I)
        TS.Fixed[StepV[I]] = Interval::point(SP[static_cast<int>(I)]);
      int64_t StepBytes = 0;
      for (const StepComm &SC : StepC) {
        // Loops at or above the communicate point are fixed; deeper
        // sequential loops are free (they rerun over the materialised
        // data).
        std::map<IndexVar, Interval> Known;
        std::vector<Coord> Key;
        for (size_t I = 0; I < DistV.size(); ++I) {
          Known[DistV[I]] = TS.Fixed[DistV[I]];
          Key.push_back(TS.CT.TP[static_cast<int>(I)]);
        }
        for (size_t I = 0; I < StepV.size(); ++I) {
          int LoopIdx = P.NumDist + static_cast<int>(I);
          if (LoopIdx > SC.LoopIdx)
            break;
          Known[StepV[I]] = TS.Fixed[StepV[I]];
          Key.push_back(SP[static_cast<int>(I)]);
        }
        Rect R = tensorRect(SC.Tensor, Stmt, Prov, Known);
        StepBytes += R.volume() * 8;
        CurHolders[SC.Tensor][keyOf(R)].push_back(TS.CT.ProcId);
        auto KeyIt = TS.FetchKeys.find(SC.Tensor);
        if (KeyIt != TS.FetchKeys.end() && KeyIt->second == Key)
          continue; // Data already resident from an inner iteration.
        TS.FetchKeys[SC.Tensor] = Key;

        std::vector<Message> Msgs =
            planGatherMessages(P, SC.Tensor, R, TS.CT.ProcPt);
        // Relay: if some processor held exactly this rectangle last step,
        // fetch from the closest holder when that beats the home owner.
        auto HIt = PrevHolders.find(SC.Tensor);
        if (HIt != PrevHolders.end()) {
          auto RIt = HIt->second.find(keyOf(R));
          if (RIt != HIt->second.end() && !RIt->second.empty()) {
            auto distanceTo = [&](int64_t Src) {
              if (Src == TS.CT.ProcId)
                return std::pair<int, int64_t>{0, 0};
              bool SameNode = P.M.nodeOf(P.M.delinearize(Src)) ==
                              P.M.nodeOf(TS.CT.ProcPt);
              return std::pair<int, int64_t>{SameNode ? 1 : 2,
                                             std::abs(Src - TS.CT.ProcId)};
            };
            int64_t BestSrc = RIt->second.front();
            for (int64_t Cand : RIt->second)
              if (distanceTo(Cand) < distanceTo(BestSrc))
                BestSrc = Cand;
            // Fetch locally when this processor owns the data; otherwise
            // always prefer the pipeline copy: that is what makes rotated
            // schedules truly systolic (each holder forwards to exactly
            // one neighbour).
            bool OwnerIsSelf =
                Msgs.size() == 1 && Msgs.front().Src == Msgs.front().Dst;
            if (!OwnerIsSelf) {
              Message Relay;
              Relay.Src = BestSrc;
              Relay.Dst = TS.CT.ProcId;
              Relay.Bytes = R.volume() * 8;
              Relay.SameNode = P.M.nodeOf(P.M.delinearize(BestSrc)) ==
                               P.M.nodeOf(TS.CT.ProcPt);
              Relay.Tensor = SC.Tensor.name();
              Msgs = {Relay};
            }
          }
        }
        for (Message &Msg : Msgs)
          Ph.Messages.push_back(std::move(Msg));
        CompiledGather SG{SC.Tensor, R, false};
        SG.Runs = compileGatherRuns(R, SC.Tensor.shape());
        // Alias analysis: a step rectangle that rotated back onto (or never
        // left) this processor's owned piece needs no copy at all — note
        // this is exactly the OwnerIsSelf case above, so the classification
        // never contradicts the relay routing. Step fetches of the output
        // tensor always copy (the region holds zeroes mid-execution by the
        // engine's semantics, and OutAliasOK already excluded aliasing).
        if (!(SC.Tensor == Out) &&
            P.formatOf(SC.Tensor).distribution().ownsRect(
                SC.Tensor.shape(), P.M, TS.CT.ProcPt, R))
          SG.Class = GatherClass::Aliasable;
        TS.CT.StepGathers[static_cast<size_t>(StepIdx)].push_back(
            std::move(SG));
      }
      TS.MaxStepBytes = std::max(TS.MaxStepBytes, StepBytes);

      // Leaf work: iteration sub-volume at this context.
      int64_t Count = iterationCount(OrigV, Prov, TS.Fixed);
      int64_t LeafBytes = 0;
      for (const Access &A : Stmt.accesses())
        LeafBytes += accessRect(A, Prov, TS.Fixed).volume() * 8;
      Ph.addWork(TS.CT.ProcId, static_cast<double>(Count) * FlopsPerPoint,
                 LeafBytes);

      // Tasks at the ragged edge of an uneven divide may own no
      // iterations at all.
      TS.CT.RunLeaf[static_cast<size_t>(StepIdx)] = Count > 0 ? 1 : 0;
      TS.TotalLeafPoints += Count;
    }
    std::swap(PrevHolders, CurHolders);
    ++StepIdx;
  });

  // Writeback / reduction of every task's output instance to its owners.
  for (TaskState &TS : States) {
    for (Message Msg : planGatherMessages(P, Out, TS.CT.OutRect, TS.CT.ProcPt)) {
      if (Msg.Src == Msg.Dst)
        continue;
      // Data flows from this task to the owner: reverse the direction.
      std::swap(Msg.Src, Msg.Dst);
      Msg.Reduction = true;
      T.Phases.back().Messages.push_back(std::move(Msg));
    }
    // Live instances: task-level + double-buffered step instances.
    TaskBytes[TS.CT.ProcId] = std::max(
        TaskBytes[TS.CT.ProcId], TS.TaskInstBytes + 2 * TS.MaxStepBytes);
  }
  for (auto &[ProcId, Bytes] : TaskBytes)
    T.PeakMemBytes[ProcId] += Bytes;

  Result.Tasks.reserve(States.size());
  for (TaskState &TS : States) {
    // The task's leaf iteration points cover OutRect exactly once (the
    // statement-level precondition rules out multiple writes per element,
    // so point count == volume is full single coverage): the output
    // accumulator never needs its launch-phase zero.
    TS.CT.SkipOutputZero =
        OutOverwritable && TS.TotalLeafPoints == TS.CT.OutRect.volume();
    Result.Tasks.push_back(std::move(TS.CT));
  }
  return Result;
}

// Guillotine recursion: intersect with the first overlapping cover
// rectangle, peel the uncovered remainder into disjoint slabs, and require
// each slab covered in turn. Terminates because every recursion strictly
// shrinks the uncovered volume.
bool distal::coveredByUnion(const Rect &R, const std::vector<Rect> &Cover) {
  if (R.isEmpty())
    return true;
  for (const Rect &C : Cover) {
    Rect O = R.intersect(C);
    if (O.isEmpty())
      continue;
    Rect Core = R;
    std::vector<Rect> Rest;
    for (int D = 0; D < R.dim(); ++D) {
      if (Core.lo()[D] < O.lo()[D]) {
        std::vector<Coord> Hi = Core.hi().coords();
        Hi[static_cast<size_t>(D)] = O.lo()[D];
        Rest.emplace_back(Core.lo(), Point(std::move(Hi)));
        std::vector<Coord> Lo = Core.lo().coords();
        Lo[static_cast<size_t>(D)] = O.lo()[D];
        Core = Rect(Point(std::move(Lo)), Core.hi());
      }
      if (Core.hi()[D] > O.hi()[D]) {
        std::vector<Coord> Lo = Core.lo().coords();
        Lo[static_cast<size_t>(D)] = O.hi()[D];
        Rest.emplace_back(Point(std::move(Lo)), Core.hi());
        std::vector<Coord> Hi = Core.hi().coords();
        Hi[static_cast<size_t>(D)] = O.hi()[D];
        Core = Rect(Core.lo(), Point(std::move(Hi)));
      }
    }
    for (const Rect &Piece : Rest)
      if (!coveredByUnion(Piece, Cover))
        return false;
    return true;
  }
  return false;
}

ProgramLinkResult
distal::analyzeProgramLinks(const std::vector<const CompiledPlan *> &Members) {
  ProgramLinkResult Result;
  int NumStmts = static_cast<int>(Members.size());
  Result.Stmts.resize(static_cast<size_t>(NumStmts));

  auto bytesOf = [](const Rect &R) {
    return (R.dim() == 0 ? 1 : R.volume()) * 8;
  };

  /// Statement index of the most recent writer of each tensor.
  std::map<TensorVar, int> LastWriter;
  /// Statements touching (reading or writing) each tensor, in order.
  std::map<TensorVar, std::vector<int32_t>> Touched;
  /// One recorded consumer gather of an interior tensor, resolved back to
  /// its elision flag in the tier-B pass.
  struct ReaderRef {
    int Stmt, Task;
    int StepIdx; ///< -1: launch gather.
    int GatherIdx;
    Rect R;
    int64_t ProcId;
  };
  /// Consumer gathers per producer statement.
  std::map<int, std::vector<ReaderRef>> ReadersOf;
  /// Per statement, per task: intersecting producer tasks per producer
  /// statement (empty set = ordering against the producer's zero/writeback
  /// only), resolved into node dependencies in the final pass.
  std::vector<std::vector<std::map<int, std::set<int32_t>>>> RawDeps(
      static_cast<size_t>(NumStmts));
  /// Tier-B candidacy per statement (statement-level preconditions plus
  /// per-task output-rectangle exclusivity).
  std::vector<std::vector<uint8_t>> OutCandidate(
      static_cast<size_t>(NumStmts));

  // Pass 1: consumer-side residency linking (tier A) and dependency
  // discovery, statements in program order.
  for (int I = 0; I < NumStmts; ++I) {
    const CompiledPlan &CP = *Members[static_cast<size_t>(I)];
    const Plan &P = CP.plan();
    const Assignment &Stmt = P.Nest.Stmt;
    const TensorVar &Out = Stmt.lhs().tensor();
    const std::vector<CompiledTask> &Tasks = CP.compiledTasks();
    ProgramStmtLinks &SL = Result.Stmts[static_cast<size_t>(I)];
    SL.Tasks.resize(Tasks.size());
    RawDeps[static_cast<size_t>(I)].resize(Tasks.size());

    // WAR/WAW on the output tensor: every earlier statement touching it
    // must fully complete before this statement's region-wide zero.
    if (auto It = Touched.find(Out); It != Touched.end())
      SL.ZeroDeps = It->second;

    // Per-processor producer output residency, lazily built per producer.
    std::map<std::pair<int, int64_t>, std::vector<Rect>> ProducerCover;
    auto coverFor = [&](int Producer, int64_t ProcId) -> std::vector<Rect> & {
      auto Key = std::make_pair(Producer, ProcId);
      auto It = ProducerCover.find(Key);
      if (It != ProducerCover.end())
        return It->second;
      std::vector<Rect> Cover;
      for (const CompiledTask &PT :
           Members[static_cast<size_t>(Producer)]->compiledTasks())
        if (PT.ProcId == ProcId && !PT.OutRect.isEmpty())
          Cover.push_back(PT.OutRect);
      return ProducerCover.emplace(Key, std::move(Cover)).first->second;
    };

    for (size_t T = 0; T < Tasks.size(); ++T) {
      const CompiledTask &CT = Tasks[T];
      ProgramTaskLinks &TL = SL.Tasks[T];
      TL.LaunchView.assign(CT.LaunchGathers.size(), 0);
      TL.StepView.resize(CT.StepGathers.size());
      for (size_t S = 0; S < CT.StepGathers.size(); ++S)
        TL.StepView[S].assign(CT.StepGathers[S].size(), 0);

      // One consumer gather: residency check + dependency + reader record.
      auto linkGather = [&](const CompiledGather &G, int StepIdx,
                            int GatherIdx, uint8_t &ViewFlag) {
        if (G.IsOutput || G.Tensor == Out || G.R.isEmpty())
          return;
        auto WIt = LastWriter.find(G.Tensor);
        if (WIt == LastWriter.end())
          return; // External input: immutable for the whole program.
        int Producer = WIt->second;
        std::set<int32_t> &Intersecting =
            RawDeps[static_cast<size_t>(I)][T][Producer];
        for (size_t S = 0;
             S < Members[static_cast<size_t>(Producer)]->compiledTasks().size();
             ++S)
          if (Members[static_cast<size_t>(Producer)]
                  ->compiledTasks()[S]
                  .OutRect.overlaps(G.R))
            Intersecting.insert(static_cast<int32_t>(S));
        ReadersOf[Producer].push_back(
            {I, static_cast<int>(T), StepIdx, GatherIdx, G.R, CT.ProcId});
        // Tier A: the rectangle is covered by the producer's output
        // residency on this very processor — the bytes are already here,
        // so the copy downgrades to a zero-copy view of region storage.
        if (G.Class != GatherClass::Aliasable &&
            coveredByUnion(G.R, coverFor(Producer, CT.ProcId))) {
          ViewFlag = 1;
          ++Result.ElidedGathers;
          Result.ElidedGatherBytes += bytesOf(G.R);
        }
      };
      for (size_t G = 0; G < CT.LaunchGathers.size(); ++G)
        linkGather(CT.LaunchGathers[G], -1, static_cast<int>(G),
                   TL.LaunchView[G]);
      for (size_t S = 0; S < CT.StepGathers.size(); ++S)
        for (size_t G = 0; G < CT.StepGathers[S].size(); ++G)
          linkGather(CT.StepGathers[S][G], static_cast<int>(S),
                     static_cast<int>(G), TL.StepView[S][G]);
    }

    // Tier-B candidacy: the same statement-level preconditions as the
    // per-statement output alias (nothing may read the output region
    // mid-execution, non-scalar), plus exclusive output rectangles —
    // without them the copy path's task-ordered merge defines the result
    // and in-place writes could diverge.
    bool OutAliasOK = Out.order() > 0;
    for (const Access &A : Stmt.rhsAccesses())
      OutAliasOK &= A.tensor() != Out;
    for (const StepComm &SC : P.stepComms())
      OutAliasOK &= !(SC.Tensor == Out);
    OutCandidate[static_cast<size_t>(I)].assign(Tasks.size(), 0);
    if (OutAliasOK)
      for (size_t T = 0; T < Tasks.size(); ++T) {
        bool Exclusive = true;
        for (size_t J = 0; J < Tasks.size() && Exclusive; ++J)
          Exclusive = T == J || !Tasks[J].OutRect.overlaps(Tasks[T].OutRect);
        OutCandidate[static_cast<size_t>(I)][T] = Exclusive ? 1 : 0;
      }

    for (const TensorVar &TV : Stmt.tensors())
      Touched[TV].push_back(I);
    LastWriter[Out] = I;
  }

  // Pass 2: producer-side writeback elision (tier B). A task writes the
  // output region in place — eliding its writeback merge — when the
  // statement allows aliasing, the task owns its rectangle exclusively,
  // the output is interior (it has at least one later reader), and every
  // reader gather overlapping the rectangle is a link-elided view on the
  // same processor (the data never needs to reach its home distribution;
  // final outputs and tensors with remote or copying readers always
  // materialise through the deterministic merge).
  for (int I = 0; I < NumStmts; ++I) {
    auto RIt = ReadersOf.find(I);
    if (RIt == ReadersOf.end() || RIt->second.empty())
      continue; // No later reader: the output is user-facing, keep merging.
    const std::vector<CompiledTask> &Tasks =
        Members[static_cast<size_t>(I)]->compiledTasks();
    for (size_t T = 0; T < Tasks.size(); ++T) {
      if (!OutCandidate[static_cast<size_t>(I)][T])
        continue;
      const CompiledTask &CT = Tasks[T];
      // The per-statement alias already elides this writeback; count
      // nothing and leave the statement-level classification in charge.
      bool AlreadyAliased = false;
      for (const CompiledGather &G : CT.LaunchGathers)
        AlreadyAliased |= G.IsOutput && G.Class == GatherClass::Aliasable;
      if (AlreadyAliased || CT.OutRect.isEmpty())
        continue;
      bool AllLocal = true;
      for (const ReaderRef &R : RIt->second) {
        if (!R.R.overlaps(CT.OutRect))
          continue;
        const ProgramTaskLinks &RL =
            Result.Stmts[static_cast<size_t>(R.Stmt)]
                .Tasks[static_cast<size_t>(R.Task)];
        uint8_t Elided =
            R.StepIdx < 0
                ? RL.LaunchView[static_cast<size_t>(R.GatherIdx)]
                : RL.StepView[static_cast<size_t>(R.StepIdx)]
                             [static_cast<size_t>(R.GatherIdx)];
        if (R.ProcId != CT.ProcId || !Elided) {
          AllLocal = false;
          break;
        }
      }
      if (!AllLocal)
        continue;
      Result.Stmts[static_cast<size_t>(I)].Tasks[T].OutView = 1;
      ++Result.ElidedWritebackTasks;
      Result.ElidedWritebackBytes += bytesOf(CT.OutRect);
    }
  }

  // Pass 3: resolve dependencies. A consumer task depends on the producer
  // tasks whose rectangles it reads when ALL of them write the region in
  // place (their data is final as soon as the task completes); otherwise
  // it waits for the producer's writeback node. An empty intersection
  // still orders against the writeback node — the consumer reads zeroes
  // (or merge results) the producer's zero/merge must have published.
  for (int I = 0; I < NumStmts; ++I)
    for (size_t T = 0; T < RawDeps[static_cast<size_t>(I)].size(); ++T) {
      std::set<ProgramDep> Deps;
      for (const auto &[Producer, TaskSet] :
           RawDeps[static_cast<size_t>(I)][T]) {
        bool AllInPlace = !TaskSet.empty();
        for (int32_t S : TaskSet)
          AllInPlace &= Result.Stmts[static_cast<size_t>(Producer)]
                            .Tasks[static_cast<size_t>(S)]
                            .OutView != 0;
        if (AllInPlace)
          for (int32_t S : TaskSet)
            Deps.insert({static_cast<int32_t>(Producer), S});
        else
          Deps.insert({static_cast<int32_t>(Producer), -1});
      }
      Result.Stmts[static_cast<size_t>(I)].Tasks[T].Deps.assign(Deps.begin(),
                                                                Deps.end());
    }
  return Result;
}
