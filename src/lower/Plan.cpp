//===- lower/Plan.cpp -----------------------------------------*- C++ -*-===//

#include "lower/Plan.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "support/Error.h"

using namespace distal;

Rect Plan::launchDomain() const {
  std::vector<Coord> Extents;
  for (int I = 0; I < NumDist; ++I)
    Extents.push_back(Nest.Prov.extent(Nest.Loops[I].Var));
  return Rect::forExtents(Extents);
}

std::vector<IndexVar> Plan::distVars() const {
  std::vector<IndexVar> Vars;
  for (int I = 0; I < NumDist; ++I)
    Vars.push_back(Nest.Loops[I].Var);
  return Vars;
}

std::vector<IndexVar> Plan::stepVars() const {
  std::vector<IndexVar> Vars;
  for (int I = NumDist; I < LeafBegin; ++I)
    Vars.push_back(Nest.Loops[I].Var);
  return Vars;
}

std::vector<IndexVar> Plan::leafVars() const {
  std::vector<IndexVar> Vars;
  for (int I = LeafBegin; I < static_cast<int>(Nest.Loops.size()); ++I)
    Vars.push_back(Nest.Loops[I].Var);
  return Vars;
}

Rect Plan::stepDomain() const {
  std::vector<Coord> Extents;
  for (int I = NumDist; I < LeafBegin; ++I)
    Extents.push_back(Nest.Prov.extent(Nest.Loops[I].Var));
  return Rect::forExtents(Extents);
}

std::vector<TensorVar> Plan::taskComms() const {
  std::vector<TensorVar> Tensors;
  for (int I = 0; I < NumDist; ++I)
    for (const TensorVar &T : Nest.Loops[I].Communicate)
      Tensors.push_back(T);
  return Tensors;
}

std::vector<StepComm> Plan::stepComms() const {
  std::vector<StepComm> Comms;
  for (int I = NumDist; I < LeafBegin; ++I)
    for (const TensorVar &T : Nest.Loops[I].Communicate)
      Comms.push_back(StepComm{T, I});
  return Comms;
}

const Format &Plan::formatOf(const TensorVar &T) const {
  auto It = Formats.find(T);
  DISTAL_ASSERT(It != Formats.end(), "tensor has no format in plan");
  return It->second;
}

int64_t Plan::distReductionFactor() const {
  std::vector<IndexVar> Frees = Nest.Stmt.freeVars();
  std::set<IndexVar> FreeSet(Frees.begin(), Frees.end());
  // A distributed loop variable contributes to the reduction factor when no
  // free (output) variable derives from it. We check by recovering each free
  // variable's interval with only this loop bound to a point: if every free
  // variable still spans its full extent, the loop is reduction-only.
  int64_t Factor = 1;
  for (int I = 0; I < NumDist; ++I) {
    const IndexVar &V = Nest.Loops[I].Var;
    std::map<IndexVar, Interval> Known = {{V, Interval::point(0)}};
    bool AffectsOutput = false;
    for (const IndexVar &F : FreeSet) {
      Interval Full = Interval::range(0, Nest.Prov.extent(F));
      if (!(Nest.Prov.recoverInterval(F, Known) == Full))
        AffectsOutput = true;
    }
    if (!AffectsOutput)
      Factor *= Nest.Prov.extent(V);
  }
  return Factor;
}

std::string Plan::fingerprint() const {
  std::ostringstream OS;
  // Index variables are renamed canonically by order of first appearance
  // (loops first, then the statement), so structurally identical plans
  // built from fresh IndexVar objects fingerprint equal.
  std::map<int, int> Canon;
  auto canon = [&](const IndexVar &V) {
    auto [It, New] = Canon.emplace(V.id(), static_cast<int>(Canon.size()));
    (void)New;
    return "v" + std::to_string(It->second);
  };
  std::vector<TensorVar> Tensors = Nest.Stmt.tensors();
  std::map<TensorVar, int> TIdx;
  for (size_t I = 0; I < Tensors.size(); ++I)
    TIdx[Tensors[I]] = static_cast<int>(I);
  auto tensorTok = [&](const TensorVar &T) {
    return "t" + std::to_string(TIdx.at(T));
  };

  // Machine::str() omits flat node grouping, but compilation bakes
  // node-dependent SameNode flags and relay choices into the artifact, so
  // the node count must key too.
  OS << "machine=" << M.str() << ";nodes=" << M.numNodes()
     << ";dist=" << NumDist << ";leafbegin=" << LeafBegin
     << ";leafkernel=" << (Nest.Leaf == LeafKernel::GeMM ? "gemm" : "generic");

  OS << ";loops=[";
  for (const LoopSpec &L : Nest.Loops) {
    OS << canon(L.Var) << ":" << Nest.Prov.extent(L.Var);
    if (L.Distributed)
      OS << ":dist";
    if (L.Parallelized)
      OS << ":par";
    for (const TensorVar &T : L.Communicate)
      OS << ":comm(" << tensorTok(T) << ")";
    OS << ";";
  }
  OS << "]";

  std::function<void(const Expr &)> Emit = [&](const Expr &E) {
    switch (E.kind()) {
    case ExprKind::Access: {
      OS << tensorTok(E.access().tensor()) << "(";
      for (const IndexVar &V : E.access().indices())
        OS << canon(V) << ",";
      OS << ")";
      return;
    }
    case ExprKind::Literal:
      // Hexfloat: the default 6-digit precision would collide literals
      // differing beyond it, serving an artifact with the wrong constant.
      OS << std::hexfloat << E.literal() << std::defaultfloat;
      return;
    case ExprKind::Add:
    case ExprKind::Mul:
      OS << "(";
      Emit(E.lhs());
      OS << (E.kind() == ExprKind::Add ? "+" : "*");
      Emit(E.rhs());
      OS << ")";
      return;
    }
  };
  OS << ";stmt=" << tensorTok(Nest.Stmt.lhs().tensor()) << "(";
  for (const IndexVar &V : Nest.Stmt.lhs().indices())
    OS << canon(V) << ",";
  OS << ")=";
  Emit(Nest.Stmt.rhs());

  // Derivation structure. The relation strings use display names; the
  // canonical mapping recorded above pins which variable each display name
  // refers to in this plan, and extents pin the scheduling factors.
  OS << ";prov={" << Nest.Prov.str() << "}";

  OS << ";tensors=[";
  for (const TensorVar &T : Tensors) {
    OS << T.name() << "@" << T.identity() << ":shape(";
    for (Coord D : T.shape())
      OS << D << ",";
    OS << "):" << formatOf(T).str() << ";";
  }
  OS << "]";
  return OS.str();
}

std::string Plan::str() const {
  std::ostringstream OS;
  OS << "plan on " << M.str() << "\n";
  OS << "  launch domain " << launchDomain().str() << ", steps "
     << stepDomain().volume() << ", leaf loops "
     << (Nest.Loops.size() - LeafBegin) << "\n";
  OS << Nest.str();
  return OS.str();
}

Status distal::validateProgramPlans(const std::vector<const Plan *> &Plans) {
  if (Plans.empty())
    return Status(ErrorCode::InvalidArgument,
                  "program requires at least one statement");
  for (size_t I = 0; I < Plans.size(); ++I)
    if (!Plans[I])
      return Status(ErrorCode::InvalidArgument,
                    "program statement " + std::to_string(I) +
                        " has no plan");
  for (size_t I = 1; I < Plans.size(); ++I)
    if (Plans[I]->M != Plans.front()->M)
      return Status(ErrorCode::InvalidArgument,
                    "program statement " + std::to_string(I) +
                        " targets a different machine than statement 0; "
                        "residency linking requires one machine");
  return Status();
}

std::string distal::programFingerprint(const std::vector<const Plan *> &Plans) {
  std::string FP = "program{";
  for (const Plan *P : Plans) {
    FP += P ? P->fingerprint() : "<null>";
    FP += '|';
  }
  FP += '}';
  return FP;
}
