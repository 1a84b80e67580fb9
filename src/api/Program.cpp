//===- api/Program.cpp ----------------------------------------*- C++ -*-===//

#include "api/Program.h"

#include "runtime/PlanCache.h"
#include "support/Error.h"

using namespace distal;

/// Everything one program run needs, built under the api mutex: the linked
/// artifact, the materialised region map, the snapshotted options, and the
/// region anchor (see Tensor::pinRegions).
struct Program::Prepared {
  std::shared_ptr<CompiledProgram> Prog;
  std::map<TensorVar, Region *> Regions;
  ExecOptions Opts;
  std::shared_ptr<void> Hold;
};

Program &Program::add(Tensor &T) {
  Stmts.push_back(&T);
  return *this;
}

std::shared_ptr<CompiledProgram> Program::compile(const Machine &M) {
  std::lock_guard<std::mutex> Lock(Tensor::apiMu());
  if (Stmts.empty())
    throwError(ErrorCode::InvalidArgument,
               "Program has no statements; call add() first");

  // Member statements compile (or cache-hit) through the plan cache; the
  // memoized per-tensor key doubles as the program key component.
  std::vector<std::shared_ptr<CompiledPlan>> CPs;
  std::vector<std::string> Keys;
  CPs.reserve(Stmts.size());
  Keys.reserve(Stmts.size());
  for (Tensor *T : Stmts) {
    CPs.push_back(T->compileLocked(M));
    Keys.push_back(T->MemoKey);
  }
  std::vector<const Plan *> Plans;
  Plans.reserve(CPs.size());
  for (const std::shared_ptr<CompiledPlan> &CP : CPs)
    Plans.push_back(&CP->plan());
  Status V = validateProgramPlans(Plans);
  if (!V.ok())
    throwStatus(std::move(V));

  std::string PKey = PlanCache::programKeyFor(Keys);
  if (std::shared_ptr<CompiledProgram> Cached =
          PlanCache::global().findProgram(PKey))
    return Cached;
  auto Prog = std::make_shared<CompiledProgram>(std::move(CPs));
  PlanCache::global().putProgram(PKey, Prog);
  return Prog;
}

StatusOr<std::shared_ptr<CompiledProgram>> Program::tryCompile(
    const Machine &M) {
  try {
    return compile(M);
  } catch (...) {
    return statusFromCurrentException();
  }
}

Program::Prepared Program::prepare(const Machine &M) {
  Prepared R;
  R.Prog = compile(M);
  std::vector<const Assignment *> Chain;
  for (size_t I = 0; I < R.Prog->size(); ++I)
    Chain.push_back(&R.Prog->member(I).plan().Nest.Stmt);
  std::lock_guard<std::mutex> Lock(Tensor::apiMu());
  R.Hold = Tensor::pinRegions(Chain, M, R.Regions);
  R.Opts = ExecOpts;
  R.Opts.Mode = TraceMode::Off;
  return R;
}

void Program::evaluate(const Machine &M) {
  Status S = tryEvaluate(M);
  if (!S.ok())
    throwStatus(std::move(S));
}

Status Program::tryEvaluate(const Machine &M) {
  try {
    Prepared R = prepare(M);
    // Deferred, as in Tensor::evaluate: this thread claims the pass unless
    // an identical request is already queued, which it then shares.
    ExecFuture F = R.Prog->submit(R.Regions, R.Opts,
                                  AdmissionQueue::Dispatch::Deferred, R.Prog,
                                  R.Hold);
    return F.wait();
  } catch (...) {
    return statusFromCurrentException();
  }
}

ExecFuture Program::evaluateAsync(const Machine &M) {
  Prepared R = prepare(M);
  // The future anchors the artifact; the request holds the pinned regions
  // until the execution completes (Tensor::evaluateAsync's split).
  return R.Prog->submit(R.Regions, R.Opts,
                        AdmissionQueue::Dispatch::Background, R.Prog, R.Hold);
}
