//===- runtime/Executor.cpp -----------------------------------*- C++ -*-===//
//
// The thin façade over the compile/execute split. Compilation (the
// sequential analysis walk producing the trace skeleton and the gather
// program) lives in PlanAnalysis.cpp, the persistent artifact and its
// steady-state walk in CompiledPlan.cpp, and the leaf-kernel compiler in
// LeafCompiler.cpp. An Executor memoizes one artifact per (plan, mapper)
// and forwards its knobs to every run. Also home to referenceExecute, the
// engine-independent sequential reference the suites validate plans with.
//
//===----------------------------------------------------------------------===//

#include "runtime/Executor.h"

#include "runtime/CompiledProgram.h"
#include "runtime/PlanAnalysis.h"
#include "support/Error.h"

using namespace distal;

Executor::Executor(const Plan &P, const Mapper &Map) : P(P), Map(Map) {}

Executor::~Executor() = default;

CompiledPlan &Executor::compiled() {
  if (!CP)
    CP = std::make_unique<CompiledPlan>(P, Map);
  return *CP;
}

ExecOptions Executor::execOptions(TraceMode Mode) const {
  ExecOptions Opts;
  Opts.Ctx = ExternalCtx;
  Opts.NumThreads = NumThreads;
  Opts.ForceTaskWays = ForceTaskWays;
  Opts.ForceLeafWays = ForceLeafWays;
  Opts.Mode = Mode;
  Opts.ZeroCopyViews = ZeroCopyViews;
  Opts.Cancel = Cancel;
  return Opts;
}

Trace Executor::run(const std::map<TensorVar, Region *> &Regions,
                    TraceMode Mode) {
  Trace Out;
  Status S = tryRun(Regions, Out, Mode);
  if (!S.ok())
    throwStatus(std::move(S));
  return Out;
}

Status Executor::tryRun(const std::map<TensorVar, Region *> &Regions,
                        Trace &Out, TraceMode Mode) {
  return compiled().tryExecute(Regions, Out, execOptions(Mode));
}

ExecFuture Executor::submit(const std::map<TensorVar, Region *> &Regions,
                            TraceMode Mode) {
  return compiled().submit(Regions, execOptions(Mode));
}

Trace Executor::simulate() { return compiled().trace(); }

std::vector<Message> Executor::gatherMessages(const TensorVar &T,
                                              const Rect &R,
                                              const Point &DstProc) const {
  return planGatherMessages(P, T, R, DstProc);
}

namespace {

/// One postfix instruction of the reference right-hand side. Each Add/Mul
/// combines its two operands exactly as the expression tree does, left
/// operand first, so evaluation order and association are the tree's.
struct RefOp {
  ExprKind Kind;
  int Acc = 0;
  double Lit = 0;
};

void compileRef(const Expr &E, std::vector<Access> &Accs,
                std::vector<RefOp> &Ops) {
  switch (E.kind()) {
  case ExprKind::Access:
    Ops.push_back({ExprKind::Access, static_cast<int>(Accs.size()), 0});
    Accs.push_back(E.access());
    return;
  case ExprKind::Literal:
    Ops.push_back({ExprKind::Literal, 0, E.literal()});
    return;
  case ExprKind::Add:
  case ExprKind::Mul:
    compileRef(E.lhs(), Accs, Ops);
    compileRef(E.rhs(), Accs, Ops);
    Ops.push_back({E.kind(), 0, 0});
    return;
  }
  unreachable("unknown expr kind");
}

} // namespace

void distal::referenceExecute(const Assignment &Stmt,
                              const std::map<TensorVar, Region *> &Regions) {
  std::vector<IndexVar> Vars = Stmt.defaultLoopOrder();
  std::map<IndexVar, Coord> Extents = Stmt.inferDomains();
  Regions.at(Stmt.lhs().tensor())->zero();

  int NumVars = static_cast<int>(Vars.size());
  std::vector<Coord> Domain(NumVars);
  std::map<IndexVar, int> VarPos;
  for (int V = 0; V < NumVars; ++V) {
    Domain[V] = Extents[Vars[V]];
    VarPos[Vars[V]] = V;
    if (Domain[V] <= 0)
      return; // No point to evaluate.
  }

  // Access 0 is the output; the rest follow the right-hand side left to
  // right. Each is resolved once per statement, ranges checked: its
  // region's storage and, per loop variable, the element stride the access
  // advances by when that variable steps.
  std::vector<Access> Accs = {Stmt.lhs()};
  std::vector<RefOp> Ops;
  compileRef(Stmt.rhs(), Accs, Ops);
  int NumAcc = static_cast<int>(Accs.size());
  std::vector<double *> Data(NumAcc);
  std::vector<std::vector<int64_t>> Coef(NumAcc,
                                         std::vector<int64_t>(NumVars, 0));
  for (int A = 0; A < NumAcc; ++A) {
    Region *R = Regions.at(Accs[A].tensor());
    const std::vector<IndexVar> &Idx = Accs[A].indices();
    DISTAL_ASSERT(Idx.size() == R->shape().size(),
                  "region access dimension mismatch");
    Data[A] = R->data();
    for (size_t D = 0; D < Idx.size(); ++D) {
      int V = VarPos.at(Idx[D]);
      DISTAL_ASSERT(Domain[V] <= R->shape()[D], "region access out of range");
      Coef[A][V] += R->strides()[D];
    }
  }

  // Row-major over the loop variables, every access offset kept
  // incrementally; the right-hand side adds into the output point by point.
  std::vector<double> Stack(Ops.size());
  std::vector<int64_t> Off(NumAcc, 0);
  std::vector<Coord> Pos(NumVars, 0);
  for (;;) {
    size_t Top = 0;
    for (const RefOp &Op : Ops) {
      switch (Op.Kind) {
      case ExprKind::Access:
        Stack[Top++] = Data[Op.Acc][Off[Op.Acc]];
        break;
      case ExprKind::Literal:
        Stack[Top++] = Op.Lit;
        break;
      case ExprKind::Add:
        --Top;
        Stack[Top - 1] = Stack[Top - 1] + Stack[Top];
        break;
      case ExprKind::Mul:
        --Top;
        Stack[Top - 1] = Stack[Top - 1] * Stack[Top];
        break;
      }
    }
    Data[0][Off[0]] += Stack[0];
    int V = NumVars - 1;
    for (; V >= 0; --V) {
      for (int A = 0; A < NumAcc; ++A)
        Off[A] += Coef[A][V];
      if (++Pos[V] < Domain[V])
        break;
      for (int A = 0; A < NumAcc; ++A)
        Off[A] -= Domain[V] * Coef[A][V];
      Pos[V] = 0;
    }
    if (V < 0)
      return;
  }
}

void Executor::runProgram(const std::vector<const Plan *> &Plans,
                          const std::map<TensorVar, Region *> &Regions,
                          const ExecOptions &Opts) {
  Status V = validateProgramPlans(Plans);
  if (!V.ok())
    throwStatus(std::move(V));
  std::vector<std::shared_ptr<CompiledPlan>> Members;
  Members.reserve(Plans.size());
  for (const Plan *P : Plans)
    Members.push_back(std::make_shared<CompiledPlan>(*P));
  CompiledProgram(std::move(Members)).execute(Regions, Opts);
}
