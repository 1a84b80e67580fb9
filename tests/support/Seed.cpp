//===- tests/support/Seed.cpp ---------------------------------*- C++ -*-===//
//
// The seed's per-point region copies and the one-task-at-a-time engine
// that runs a compiled plan over them and the interpreted leaves.
//
//===----------------------------------------------------------------------===//

#include "Seed.h"

#include <algorithm>

#include "support/Error.h"

using namespace distal;

Instance distal::seed::gatherPointwise(const Region &R, const Rect &Rc) {
  Instance I(Rc);
  gatherIntoPointwise(R, I);
  return I;
}

void distal::seed::gatherIntoPointwise(const Region &Reg, Instance &I) {
  const Rect &R = I.rect();
  DISTAL_ASSERT(Rect::forExtents(Reg.shape()).contains(R) || R.isEmpty(),
                "gather rectangle outside region bounds");
  // Element-by-element copy, with both offsets maintained incrementally by
  // an odometer: the strides are fixed per dimension, so re-deriving them
  // per coordinate through Point-based at() calls only burned time.
  int Dim = R.dim();
  const double *Src = Reg.data();
  if (Dim == 0) { // Scalar region: one element.
    I.data()[0] = Src[0];
    return;
  }
  if (R.isEmpty())
    return;
  const std::vector<Coord> &Strides = Reg.strides();
  double *Dst = I.data();
  int64_t RegOff = 0;
  for (int D = 0; D < Dim; ++D)
    RegOff += R.lo()[D] * Strides[D];
  Coord InnerExtent = R.hi()[Dim - 1] - R.lo()[Dim - 1];
  std::vector<Coord> Idx(Dim > 1 ? Dim - 1 : 0, 0);
  int64_t InstOff = 0;
  for (;;) {
    // Innermost dimension: both sides advance by their unit stride
    // (row-major region => innermost region stride is 1).
    for (Coord E = 0; E < InnerExtent; ++E)
      Dst[InstOff + E] = Src[RegOff + E];
    InstOff += InnerExtent;
    int D = Dim - 2;
    for (; D >= 0; --D) {
      RegOff += Strides[D];
      if (++Idx[D] < R.hi()[D] - R.lo()[D])
        break;
      RegOff -= (R.hi()[D] - R.lo()[D]) * Strides[D];
      Idx[D] = 0;
    }
    if (D < 0)
      break;
  }
}

void distal::seed::reduceBackPointwise(Region &R, const Instance &I) {
  I.rect().forEachPoint([&](const Point &P) { R.at(P) += I.at(P); });
}

void distal::seed::writeBackPointwise(Region &R, const Instance &I) {
  I.rect().forEachPoint([&](const Point &P) { R.at(P) = I.at(P); });
}

distal::seed::Engine::Engine(const Plan &P, const Mapper &Map)
    : CP(P, Map) {}

Trace distal::seed::Engine::execute(
    const std::map<TensorVar, Region *> &Regions, TraceMode Mode) {
  const Plan &P = CP.plan();
  Region *OutR = Regions.at(P.Nest.Stmt.lhs().tensor());
  OutR->zero();
  const std::vector<CompiledTask> &CTs = CP.compiledTasks();
  if (Tasks.size() != CTs.size()) {
    // First execution: size every buffer once, at the largest rectangle it
    // will hold, as the engine's arenas do.
    Tasks.resize(CTs.size());
    for (size_t I = 0; I < CTs.size(); ++I) {
      const CompiledTask &CT = CTs[I];
      Tasks[I].FixedVals = CT.DistVals;
      std::map<TensorVar, int64_t> MaxVol;
      for (const CompiledGather &G : CT.LaunchGathers)
        MaxVol[G.Tensor] = std::max(MaxVol[G.Tensor], G.R.volume());
      for (const auto &Step : CT.StepGathers)
        for (const CompiledGather &G : Step)
          MaxVol[G.Tensor] = std::max(MaxVol[G.Tensor], G.R.volume());
      for (const auto &[TV, Vol] : MaxVol)
        Tasks[I].Owned[TV].reserve(Vol);
    }
  }
  for (size_t I = 0; I < CTs.size(); ++I) {
    const CompiledTask &CT = CTs[I];
    TaskState &TS = Tasks[I];
    auto bind = [&](const CompiledGather &G) {
      Instance &Inst = TS.Owned[G.Tensor];
      Inst.reset(G.R);
      if (G.IsOutput)
        Inst.zero();
      else
        gatherIntoPointwise(*Regions.at(G.Tensor), Inst);
      TS.Insts[G.Tensor] = &Inst;
    };
    for (const CompiledGather &G : CT.LaunchGathers)
      bind(G);
    for (int64_t S = 0; S < CP.stepCount(); ++S) {
      for (const auto &[V, C] : CP.stepValues(S))
        TS.FixedVals[V] = C;
      for (const CompiledGather &G : CT.StepGathers[S])
        bind(G);
      if (CT.RunLeaf[S])
        runInterpretedLeaf(P, TS.FixedVals, TS.Insts);
    }
  }
  // Every task's accumulator merges only after all tasks ran: a statement
  // may read its own output, and no task may see another's contribution.
  for (TaskState &TS : Tasks)
    reduceBackPointwise(*OutR, TS.Owned.at(P.Nest.Stmt.lhs().tensor()));
  if (Mode == TraceMode::Off) {
    Trace Empty;
    Empty.NumProcs = CP.trace().NumProcs;
    return Empty;
  }
  return CP.trace();
}
