//===- runtime/CompiledPlan.cpp -------------------------------*- C++ -*-===//
//
// The compile side of the artifact: the constructor runs the
// data-independent analysis once (PlanAnalysis), binds every (task, step)'s
// leaf (leaf::bindLeaf) and hands the result to the statement's
// ExecEngine, which walks it as a one-member program on every execution
// (see ExecEngine.cpp for the execute phase). Nothing here touches the
// trace after construction.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledPlan.h"

#include <algorithm>

#include "runtime/PlanAnalysis.h"
#include "support/Error.h"

using namespace distal;

CompiledPlan::CompiledPlan(Plan Pl, const Mapper &Map)
    : P(std::move(Pl)), RhsTape(leaf::compileTape(P.Nest.Stmt.rhs())),
      Slots(P.Nest.Stmt.tensors()) {
  PlanAnalysisResult R = analyzePlan(P, Map);
  Skeleton = std::move(R.Skeleton);
  Tasks = std::move(R.Tasks);
  StepVals = std::move(R.StepVals);
  OutSlot = static_cast<int>(
      std::find(Slots.begin(), Slots.end(), P.Nest.Stmt.lhs().tensor()) -
      Slots.begin());
  LeafS = leaf::compileLeafShape(P, Slots);
  bindTasks();
  Engine.emplace(std::vector<const CompiledPlan *>{this}, nullptr, Skeleton);
}

void CompiledPlan::bindTasks() {
  for (CompiledTask &CT : Tasks) {
    // The rectangle each slot holds at the current step: the last one
    // gathered into it (step gathers skip rectangles already resident).
    std::vector<const Rect *> Last(Slots.size(), nullptr);
    auto record = [&](CompiledGather &G) {
      G.Slot = static_cast<int>(
          std::find(Slots.begin(), Slots.end(), G.Tensor) - Slots.begin());
      // Every gather may bind as a view (by alias analysis, or by program
      // linking), which reads region storage from Runs.RegBase with the
      // tensor's strides: prove the rectangle inside the shape once, here.
      if (!G.R.isEmpty() &&
          !Rect::forExtents(G.Tensor.shape()).contains(G.R))
        throwError(ErrorCode::Internal,
                   "gather rectangle " + G.R.str() + " of tensor '" +
                       G.Tensor.name() + "' lies outside its shape");
      Last[static_cast<size_t>(G.Slot)] = &G.R;
    };
    for (CompiledGather &G : CT.LaunchGathers)
      record(G);
    std::map<IndexVar, Coord> Vals = CT.DistVals;
    std::vector<Coord> Coefs;
    CT.Leaf.resize(StepVals.size());
    for (size_t S = 0; S < StepVals.size(); ++S) {
      for (const auto &[V, C] : StepVals[S])
        Vals[V] = C;
      for (CompiledGather &G : CT.StepGathers[S])
        record(G);
      if (CT.RunLeaf[S])
        CT.Leaf[S] = leaf::bindLeaf(P, LeafS, RhsTape, Vals, Last,
                                    CT.SkipOutputZero, Coefs);
    }
  }
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
    for (const leaf::LeafBinding &B : CT.Leaf)
      Sum += B.footprintBytes();
  }
  return Sum + Engine->footprintBytes();
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
  return Engine->tryExecute(Regions, &Out, Opts);
}
