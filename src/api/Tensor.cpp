//===- api/Tensor.cpp -----------------------------------------*- C++ -*-===//

#include "api/Tensor.h"

#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "api/Program.h"
#include "lower/Lower.h"
#include "runtime/PlanCache.h"
#include "support/Error.h"

using namespace distal;

namespace {

/// Registry resolving TensorVars back to their owning api::Tensor, so that
/// evaluate() can find operand formats and data fills. Entries are removed
/// when tensors are destroyed.
std::map<TensorVar, Tensor *> &registry() {
  static std::map<TensorVar, Tensor *> R;
  return R;
}
std::mutex &registryMutex() {
  static std::mutex M;
  return M;
}

Tensor &lookup(const TensorVar &V) {
  std::lock_guard<std::mutex> Lock(registryMutex());
  auto It = registry().find(V);
  if (It == registry().end())
    reportFatalError("tensor '" + V.name() +
                     "' is not backed by a live distal::Tensor");
  return *It->second;
}

/// Serializes the evaluate-family front half across all tensors: the
/// compile-memo writes (MemoKey/MemoMachine) and the Region
/// materialisation of the statement's tensors are shared mutable state.
/// Never held during an execution — executions run concurrently through
/// the artifact's admission queue. Process-wide (not per-tensor) because
/// one evaluation materialises its *operand* tensors' regions too.
std::mutex &apiMutex() {
  static std::mutex M;
  return M;
}

/// The RunAnchor of one admitted evaluation, statement or program: shared
/// ownership of every Region the execution touches, plus an execution pin
/// on each. Held by the admission request until the execution completes,
/// so (a) the storage cannot be freed under the execution by a
/// machine-change rebuild or a tensor's destruction, and (b)
/// Tensor::materialize can wait for pinned() to drain before copying data
/// out of a region a pending execution may still be writing. Deliberately
/// does NOT own the artifact (see the
/// RunAnchor contract in AdmissionQueue::submit): artifact lifetime across
/// a pending wait is the future's Keeper's job, and an artifact whose
/// queue still holds requests shuts the queue down safely on destruction.
struct RegionHold {
  std::vector<std::shared_ptr<Region>> Regions;

  void add(std::shared_ptr<Region> R) {
    R->pin();
    Regions.push_back(std::move(R));
  }
  ~RegionHold() {
    for (const std::shared_ptr<Region> &R : Regions)
      R->unpin();
  }
};

/// Blocks until no in-flight execution pins \p R. Only called for a region
/// about to be replaced on a machine change; every Tensor-submitted
/// execution either runs synchronously under its caller's wait (Deferred)
/// or was dispatched to the pool at admission (Background), so the pins
/// always drain without our help.
void drainPins(const Region &R) {
  while (R.pinned() > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

} // namespace

TensorAccess::TensorAccess(Tensor &T, std::vector<IndexVar> Indices)
    : T(T), Indices(std::move(Indices)) {}

TensorAccess &TensorAccess::operator=(const Expr &Rhs) {
  T.defineComputation(Assignment(Access(T.var(), Indices), Rhs));
  return *this;
}

TensorAccess::operator Expr() const {
  return Expr(Access(T.var(), Indices));
}

TensorAccess::operator Access() const { return Access(T.var(), Indices); }

Tensor::Tensor(std::string Name, std::vector<Coord> Dims, Format Fmt)
    : Var(std::move(Name), std::move(Dims)), Fmt(std::move(Fmt)) {
  if (this->Fmt.order() != Var.order())
    reportFatalError("format order does not match tensor '" + Var.name() +
                     "'");
  std::lock_guard<std::mutex> Lock(registryMutex());
  registry()[Var] = this;
}

Tensor::~Tensor() {
  std::lock_guard<std::mutex> Lock(registryMutex());
  registry().erase(Var);
}

void Tensor::defineComputation(Assignment Stmt) {
  Sched = std::make_unique<Schedule>(std::move(Stmt));
  MemoKey.clear();
}

Schedule &Tensor::schedule() {
  if (!Sched)
    reportFatalError("tensor '" + Var.name() +
                     "' has no computation to schedule");
  // Any scheduling access may mutate the nest; the next compile must
  // re-derive the cache key.
  MemoKey.clear();
  return *Sched;
}

void Tensor::fillRandom(uint64_t Seed) {
  fill([Seed, State = uint64_t(0)](const Point &) mutable {
    // Match Region::fillRandom's stream.
    if (State == 0)
      State = Seed * 2654435761u + 12345;
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((State >> 33) % 1000) / 999.0 - 0.5;
  });
}

void Tensor::fill(std::function<double(const Point &)> Fn) {
  PendingFill = std::move(Fn);
  if (Reg)
    Reg->fill(PendingFill);
}

const std::shared_ptr<Region> &Tensor::materialize(const Machine &M,
                                                   bool PreserveData) {
  // The backing Region persists across repeated evaluations (the
  // steady-state path never reallocates output storage). A machine change
  // rebuilds it for the new home distribution, carrying the element
  // values over when asked — data computed by a previous evaluate() (not
  // just pending fills) must survive for tensors read as operands, e.g.
  // one produced on machine A and consumed on machine B. Callers pass
  // PreserveData = false for a pure output, whose contents are about to
  // be zeroed anyway.
  if (Reg && Reg->machine() != M) {
    std::shared_ptr<Region> Old = std::move(Reg);
    // In-flight executions may still be writing the old storage; wait for
    // their pins to drain before reading values out of it. New pins cannot
    // appear: pinning only happens under the api mutex, which we hold. The
    // old storage itself stays alive as long as any execution anchors it,
    // whatever we do with our reference.
    drainPins(*Old);
    Reg = std::make_shared<Region>(Var, Fmt, M);
    if (PreserveData)
      Rect::forExtents(Var.shape()).forEachPoint(
          [&](const Point &P) { Reg->at(P) = Old->at(P); });
    else if (PendingFill)
      Reg->fill(PendingFill);
  }
  if (!Reg) {
    Reg = std::make_shared<Region>(Var, Fmt, M);
    if (PendingFill)
      Reg->fill(PendingFill);
  }
  return Reg;
}

Plan Tensor::lower(const Machine &M) {
  if (!Sched)
    reportFatalError("tensor '" + Var.name() + "' has no computation");
  std::map<TensorVar, Format> Formats;
  for (const TensorVar &T : Sched->nest().Stmt.tensors())
    Formats.emplace(T, lookup(T).format());
  return distal::lower(Sched->nest(), M, std::move(Formats));
}

std::shared_ptr<CompiledPlan> Tensor::compile(const Machine &M) {
  std::lock_guard<std::mutex> Lock(apiMutex());
  return compileLocked(M);
}

std::shared_ptr<CompiledPlan> Tensor::compileLocked(const Machine &M) {
  // Steady state: the memoized key skips lowering and fingerprinting but
  // still goes through the PlanCache, so explicit invalidation (or LRU
  // eviction) always forces a true recompile below.
  if (!MemoKey.empty() && MemoMachine == M)
    if (std::shared_ptr<CompiledPlan> Cached =
            PlanCache::global().find(MemoKey))
      return Cached;
  Plan P = lower(M);
  std::string Key = PlanCache::keyFor(P);
  MemoMachine = M;
  MemoKey = Key;
  if (std::shared_ptr<CompiledPlan> Cached = PlanCache::global().find(Key))
    return Cached;
  auto CP = std::make_shared<CompiledPlan>(std::move(P));
  PlanCache::global().put(Key, CP);
  return CP;
}

std::string Tensor::planKey(const Machine &M) {
  return PlanCache::keyFor(lower(M));
}

std::shared_ptr<void>
Tensor::pinRegions(const std::vector<const Assignment *> &Stmts,
                   const Machine &M, std::map<TensorVar, Region *> &Regions) {
  std::map<TensorVar, bool> Preserve;
  for (const Assignment *Stmt : Stmts) {
    for (const Access &A : Stmt->rhsAccesses())
      Preserve.emplace(A.tensor(), true);
    Preserve.emplace(Stmt->lhs().tensor(), false);
  }
  auto Hold = std::make_shared<RegionHold>();
  for (const auto &[TV, Keep] : Preserve) {
    const std::shared_ptr<Region> &R =
        lookup(TV).materialize(M, /*PreserveData=*/Keep);
    Regions[TV] = R.get();
    Hold->add(R);
  }
  return Hold;
}

StatusOr<std::shared_ptr<CompiledPlan>> Tensor::tryCompile(const Machine &M) {
  try {
    return compile(M);
  } catch (...) {
    return statusFromCurrentException();
  }
}

Tensor::PreparedRun Tensor::prepareRun(const Machine &M, TraceMode Mode) {
  std::lock_guard<std::mutex> Lock(apiMutex());
  PreparedRun R;
  R.CP = compileLocked(M);
  R.Hold = pinRegions({&R.CP->plan().Nest.Stmt}, M, R.Regions);
  R.Opts = ExecOpts;
  R.Opts.Mode = Mode;
  return R;
}

void Tensor::evaluate(const Machine &M) {
  PreparedRun R = prepareRun(M, TraceMode::Off);
  // Deferred: we wait immediately, so the claim happens on this thread
  // unless a concurrent identical request already runs (then we coalesce
  // and just wait for it).
  ExecFuture F = R.CP->submit(R.Regions, R.Opts,
                              AdmissionQueue::Dispatch::Deferred, R.CP,
                              R.Hold);
  Status S = F.wait();
  if (!S.ok())
    throwStatus(std::move(S));
}

Status Tensor::tryEvaluate(const Machine &M) {
  try {
    PreparedRun R = prepareRun(M, TraceMode::Off);
    ExecFuture F = R.CP->submit(R.Regions, R.Opts,
                                AdmissionQueue::Dispatch::Deferred, R.CP,
                                R.Hold);
    return F.wait();
  } catch (...) {
    return statusFromCurrentException();
  }
}

ExecFuture Tensor::evaluateAsync(const Machine &M) {
  PreparedRun R = prepareRun(M, TraceMode::Off);
  // The artifact shared_ptr rides in the future as its lifetime anchor: a
  // PlanCache eviction (or clear) between submit and wait cannot destroy
  // the artifact under the pending execution. The Hold rides in the
  // request itself, keeping the Regions alive and pinned until the
  // execution completes even if every future copy is dropped.
  return R.CP->submit(R.Regions, R.Opts,
                      AdmissionQueue::Dispatch::Background, R.CP, R.Hold);
}

Trace Tensor::evaluateWithTrace(const Machine &M) {
  PreparedRun R = prepareRun(M, TraceMode::Full);
  ExecFuture F = R.CP->submit(R.Regions, R.Opts,
                              AdmissionQueue::Dispatch::Deferred, R.CP,
                              R.Hold);
  Status S = F.wait();
  if (!S.ok())
    throwStatus(std::move(S));
  return F.trace();
}

Trace Tensor::evaluateUncached(const Machine &M) {
  CompiledPlan CP(lower(M));
  // The hold keeps the regions alive and pinned for this synchronous
  // execution, so a concurrent evaluation's machine change cannot rebuild
  // them under it; materialisation itself needs the api mutex.
  std::map<TensorVar, Region *> Regions;
  std::shared_ptr<void> Hold;
  {
    std::lock_guard<std::mutex> Lock(apiMutex());
    Hold = pinRegions({&CP.plan().Nest.Stmt}, M, Regions);
  }
  ExecOptions Opts = ExecOpts;
  Opts.Mode = TraceMode::Full;
  return CP.execute(Regions, Opts);
}

Trace Tensor::simulateOn(const Machine &M) { return compile(M)->trace(); }

std::mutex &Tensor::apiMu() { return apiMutex(); }

void Tensor::evaluateProgram(const std::vector<Tensor *> &Stmts,
                             const Machine &M) {
  Program P;
  for (Tensor *T : Stmts) {
    if (!T)
      reportFatalError("evaluateProgram: null tensor in statement list");
    P.add(*T);
  }
  P.evaluate(M);
}

double Tensor::at(const Point &P) const {
  if (!Reg)
    reportFatalError("tensor '" + Var.name() + "' has no data; call "
                     "evaluate() first");
  return Reg->at(P);
}
