//===- runtime/Executor.cpp -----------------------------------*- C++ -*-===//
//
// The thin façade over the compile/execute split. Compilation (the
// sequential analysis walk producing the trace skeleton and the gather
// program) lives in PlanAnalysis.cpp, the persistent artifact and its
// steady-state walk in CompiledPlan.cpp, and the leaf-kernel compiler in
// LeafCompiler.cpp. An Executor memoizes one artifact per (plan, mapper,
// leaf strategy) and forwards its threading knobs per run.
//
//===----------------------------------------------------------------------===//

#include "runtime/Executor.h"

#include <functional>

#include "runtime/CompiledProgram.h"
#include "runtime/PlanAnalysis.h"
#include "support/Error.h"

using namespace distal;

Executor::Executor(const Plan &P, const Mapper &Map) : P(P), Map(Map) {}

Executor::~Executor() = default;

CompiledPlan &Executor::compiled() {
  if (!CP || CP->strategy() != Strategy || CP->poisoned())
    CP = std::make_unique<CompiledPlan>(P, Map, Strategy);
  return *CP;
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
  Trail.clear();
  ExecOptions Opts;
  Opts.Ctx = ExternalCtx;
  Opts.NumThreads = NumThreads;
  Opts.ForceTaskWays = ForceTaskWays;
  Opts.ForceLeafWays = ForceLeafWays;
  Opts.Mode = Mode;
  Opts.ZeroCopyViews = ZeroCopyViews;
  Opts.Cancel = Cancel;

  // Bad input fails identically on every rung, and a cancelled or expired
  // execution must stay cancelled — retrying would override the caller's
  // explicit stop (or burn the rest of a deadline that already passed).
  auto NeverRetry = [](const Status &S) {
    return S.code() == ErrorCode::InvalidArgument ||
           S.code() == ErrorCode::Cancelled ||
           S.code() == ErrorCode::DeadlineExceeded;
  };

  Status First = compiled().tryExecute(Regions, Out, Opts);
  if (First.ok())
    return First;
  Trail.push_back({"as-configured", First});
  if (NeverRetry(First))
    return First;

  // The degradation ladder: each rung removes one optimization that
  // narrows the machinery a fault can hide in — first the zero-copy alias
  // bindings, then the compiled leaf tapes. Every rung produces
  // bitwise-identical output, so a success anywhere on the ladder is a
  // full-fidelity result. compiled() is re-fetched per rung: a rung that
  // poisons the artifact gets a fresh compile for the next one.
  if (Opts.ZeroCopyViews) {
    Opts.ZeroCopyViews = false;
    Status S = compiled().tryExecute(Regions, Out, Opts);
    Trail.push_back({"zero-copy-views-off", S});
    if (S.ok() || NeverRetry(S))
      return S;
  }
  if (Strategy == LeafStrategy::Compiled) {
    // Last rung: the seed interpreter, on a temporary artifact so the
    // memoized compiled one is not clobbered by a one-off fallback.
    Status S;
    try {
      CompiledPlan Interp(P, Map, LeafStrategy::Interpreted);
      S = Interp.tryExecute(Regions, Out, Opts);
    } catch (...) {
      S = statusFromCurrentException();
    }
    Trail.push_back({"interpreted-leaves", S});
    if (S.ok() || NeverRetry(S))
      return S;
  }

  // Every rung failed: surface the original error, annotated with the
  // full degradation trail (degradationTrail() rendered end to end, the
  // first attempt included) so the Status alone tells the whole story.
  Status Result = First;
  std::string TrailNote = "degradation trail:";
  for (const RetryAttempt &A : Trail)
    TrailNote += " rung '" + A.Rung + "': [" + A.Outcome.str() + "]";
  Result.appendNote(TrailNote);
  return Result;
}

ExecFuture Executor::submit(const std::map<TensorVar, Region *> &Regions,
                            TraceMode Mode) {
  ExecOptions Opts;
  Opts.Ctx = ExternalCtx;
  Opts.NumThreads = NumThreads;
  Opts.ForceTaskWays = ForceTaskWays;
  Opts.ForceLeafWays = ForceLeafWays;
  Opts.Mode = Mode;
  Opts.ZeroCopyViews = ZeroCopyViews;
  Opts.Cancel = Cancel;
  return compiled().submit(Regions, Opts);
}

Trace Executor::simulate() { return compiled().trace(); }

std::vector<Message> Executor::gatherMessages(const TensorVar &T,
                                              const Rect &R,
                                              const Point &DstProc) const {
  return planGatherMessages(P, T, R, DstProc);
}

void distal::referenceExecute(const Assignment &Stmt,
                              const std::map<TensorVar, Region *> &Regions) {
  std::vector<IndexVar> Vars = Stmt.defaultLoopOrder();
  std::map<IndexVar, Coord> Extents = Stmt.inferDomains();
  Region *Out = Regions.at(Stmt.lhs().tensor());
  Out->zero();

  std::vector<Coord> Domain;
  for (const IndexVar &V : Vars)
    Domain.push_back(Extents[V]);

  std::map<IndexVar, Coord> Vals;
  std::function<double(const Expr &)> Eval = [&](const Expr &E) -> double {
    switch (E.kind()) {
    case ExprKind::Access: {
      std::vector<Coord> Coords;
      for (const IndexVar &V : E.access().indices())
        Coords.push_back(Vals.at(V));
      return Regions.at(E.access().tensor())->at(Point(Coords));
    }
    case ExprKind::Literal:
      return E.literal();
    case ExprKind::Add:
      return Eval(E.lhs()) + Eval(E.rhs());
    case ExprKind::Mul:
      return Eval(E.lhs()) * Eval(E.rhs());
    }
    unreachable("unknown expr kind");
  };

  Rect::forExtents(Domain).forEachPoint([&](const Point &P) {
    for (size_t I = 0; I < Vars.size(); ++I)
      Vals[Vars[I]] = P[static_cast<int>(I)];
    std::vector<Coord> OutCoords;
    for (const IndexVar &V : Stmt.lhs().indices())
      OutCoords.push_back(Vals.at(V));
    Out->at(Point(OutCoords)) += Eval(Stmt.rhs());
  });
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
