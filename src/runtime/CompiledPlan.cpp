//===- runtime/CompiledPlan.cpp -------------------------------*- C++ -*-===//
//
// The compile side of the artifact: the constructor runs the
// data-independent analysis once (PlanAnalysis) and hands the result to
// the statement's ExecEngine, which walks it as a one-member program on
// every execution (see ExecEngine.cpp for the execute phase). Nothing here
// touches the trace after construction.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledPlan.h"

#include "runtime/PlanAnalysis.h"
#include "support/Error.h"

using namespace distal;

CompiledPlan::CompiledPlan(Plan Pl, const Mapper &Map)
    : P(std::move(Pl)), RhsTape(leaf::compileTape(P.Nest.Stmt.rhs())) {
  PlanAnalysisResult R = analyzePlan(P, Map);
  Skeleton = std::move(R.Skeleton);
  Tasks = std::move(R.Tasks);
  StepVals = std::move(R.StepVals);
  Engine.emplace(std::vector<const CompiledPlan *>{this}, nullptr, Skeleton);
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
