//===- tests/CancelTest.cpp - Deadlines and cancellation -------------------===//
//
// End-to-end deadline and cancellation support: the CancelToken primitive,
// its cancellation points through the execute stack (ThreadPool chunk
// claims, per-task step boundaries, CompiledProgram node boundaries), the
// containment contract for a cancelled execution
// (arena discarded, artifact reusable, a clean re-execute bitwise-identical
// to the reference), the deadline-aware admission layer (cancel-before-
// claim, deadline-expired-while-queued, auto-cancel on dropping every
// future copy, bounded waitFor), Executor::tryRun returning Cancelled as
// is, and the progress heartbeat (stuckReport).
//
// Determinism substrate: mid-execution trips never race wall clocks
// directly — the fault injector's delay action (seeded, site-keyed sleeps)
// guarantees a delayed execution is still in flight when a short deadline
// expires, so every deadline assertion is reproducible. Runs under the
// TSan CI job, where cancel/claim/drop races would surface.
//
//===----------------------------------------------------------------------===//

#include "algorithms/Matmul.h"
#include "lower/Lower.h"
#include "runtime/CompiledProgram.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"
#include "support/CancelToken.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "TestSupport.h"

using namespace distal;
using namespace distal::algorithms;

namespace {

// This suite owns the injector configuration (delay schedules around the
// deadline assertions); start disarmed whatever the environment says, so
// the bitwise baselines compare clean runs.
class DisarmedBaseline : public ::testing::Environment {
public:
  void SetUp() override { FaultInjector::disarm(); }
};
const ::testing::Environment *const BaselineEnv =
    ::testing::AddGlobalTestEnvironment(new DisarmedBaseline);

/// A Cannon matmul: launch + step gathers, relay-fed step fetches, real
/// writeback — every cancellation point of the plan walk is on the path.
MatmulProblem makeCannon(Coord N = 24) {
  MatmulOptions O;
  O.N = N;
  O.Procs = 4;
  return buildMatmul(MatmulAlgo::Cannon, O);
}

/// One client's private region set, inputs filled with fixed seeds so all
/// clean outputs must be bitwise-identical.
struct ClientRegions {
  std::vector<std::unique_ptr<Region>> Storage;
  std::map<TensorVar, Region *> Regions;

  explicit ClientRegions(const MatmulProblem &Prob) {
    const TensorVar Tensors[] = {Prob.A, Prob.B, Prob.C};
    for (size_t I = 0; I < 3; ++I) {
      Storage.push_back(std::make_unique<Region>(
          Tensors[I], Prob.P.formatOf(Tensors[I]), Prob.P.M));
      if (I > 0)
        Storage.back()->fillRandom(37 * I + 7);
      Regions[Tensors[I]] = Storage.back().get();
    }
  }

  std::vector<double> output(const TensorVar &Out) const {
    std::vector<double> Data;
    Rect::forExtents(Out.shape()).forEachPoint([&](const Point &P) {
      Data.push_back(Regions.at(Out)->at(P));
    });
    return Data;
  }
};

ExecOptions fastOpts(int Threads = 2) {
  ExecOptions Opts;
  Opts.NumThreads = Threads;
  Opts.Mode = TraceMode::Off;
  return Opts;
}

/// Delay-action injector config: every leaf arrival sleeps \p Micros.
/// Results stay bitwise-correct; only timing stretches — the deterministic
/// way to hold an execution in flight past a short deadline.
FaultInjector::Config leafDelay(int64_t Micros) {
  FaultInjector::Config C;
  C.Rate = 1;
  C.SiteMask = FaultInjector::maskFor(FaultInjector::Site::Leaf);
  C.Act = FaultInjector::Action::Delay;
  C.DelayMicros = Micros;
  return C;
}

/// The ProgramTest chain: three linked elementwise statements (see
/// ProgramTest.cpp for the residency story; here it is simply a multi-
/// statement program with real node boundaries to cancel between).
Plan ewise(const TensorVar &Dst, const TensorVar &Src, double Mul, double Add,
           const Machine &M, std::map<TensorVar, Format> Formats,
           int Ways = 4) {
  IndexVar I("i"), Io("io"), Ii("ii");
  Assignment Stmt(Access(Dst, {I}), Access(Src, {I}) * Mul + Add);
  Schedule S(Stmt);
  S.distribute({I}, {Io}, {Ii}, std::vector<int>{Ways});
  return lower(S.takeNest(), M, std::move(Formats));
}

Plan ewiseSum(const TensorVar &Dst, const TensorVar &A, const TensorVar &B,
              const Machine &M, std::map<TensorVar, Format> Formats,
              int Ways = 4) {
  IndexVar I("i"), Io("io"), Ii("ii");
  Assignment Stmt(Access(Dst, {I}), Access(A, {I}) + Access(B, {I}));
  Schedule S(Stmt);
  S.distribute({I}, {Io}, {Ii}, std::vector<int>{Ways});
  return lower(S.takeNest(), M, std::move(Formats));
}

Format vec(const std::string &Spec) {
  return Format({ModeKind::Dense}, TensorDistribution::parse(Spec));
}

struct ChainProblem {
  Machine M = Machine::grid({4});
  TensorVar X{"X", {32}}, T{"T", {32}}, U{"U", {32}}, Y{"Y", {32}};
  std::vector<Plan> Plans;

  ChainProblem() {
    std::map<TensorVar, Format> F = {{X, vec("x->x")},
                                     {T, vec("x->0")},
                                     {U, vec("x->*")},
                                     {Y, vec("x->x")}};
    Plans.push_back(ewise(T, X, 2.0, 1.0, M, F));
    Plans.push_back(ewise(U, T, 3.0, 0.0, M, F));
    Plans.push_back(ewiseSum(Y, U, T, M, F));
  }
};

struct ChainRegions {
  std::vector<std::unique_ptr<Region>> Storage;
  std::map<TensorVar, Region *> Regions;

  explicit ChainRegions(const ChainProblem &C) {
    for (const TensorVar &T : {C.X, C.T, C.U, C.Y}) {
      Storage.push_back(
          std::make_unique<Region>(T, C.Plans[0].formatOf(T), C.M));
      Regions[T] = Storage.back().get();
    }
    Storage[0]->fillRandom(7);
  }

  std::vector<double> bytesOf(const TensorVar &T) const {
    std::vector<double> Out;
    Rect::forExtents(T.shape()).forEachPoint(
        [&](const Point &P) { Out.push_back(Regions.at(T)->at(P)); });
    return Out;
  }
};

std::shared_ptr<CompiledProgram> compileChain(const ChainProblem &C) {
  std::vector<std::shared_ptr<CompiledPlan>> Members;
  for (const Plan &P : C.Plans)
    Members.push_back(std::make_shared<CompiledPlan>(P));
  return std::make_shared<CompiledProgram>(std::move(Members));
}

} // namespace

// The primitive itself: invalid tokens are free and never trip; cancel()
// latches through every copy; the first trip wins; deadline tokens expire
// on their own and report DeadlineExceeded.
TEST(Cancel, TokenLifecycle) {
  CancelToken None;
  EXPECT_FALSE(None.valid());
  EXPECT_FALSE(None.tripped());
  None.check();  // Never throws.
  None.cancel(); // No-op.

  CancelToken T = CancelToken::create();
  CancelToken Copy = T;
  EXPECT_TRUE(T.valid());
  EXPECT_FALSE(T.tripped());
  EXPECT_EQ(T.reason(), ErrorCode::Ok);
  T.check(); // Quiet: returns.
  Copy.cancel();
  Status S;
  EXPECT_TRUE(T.tripped(&S)) << "cancel through any copy trips every copy";
  EXPECT_EQ(S.code(), ErrorCode::Cancelled);
  EXPECT_EQ(T.reason(), ErrorCode::Cancelled);
  try {
    T.check();
    FAIL() << "check() must throw once tripped";
  } catch (const DistalError &E) {
    EXPECT_EQ(E.status().code(), ErrorCode::Cancelled);
  }

  CancelToken D = CancelToken::withTimeout(std::chrono::nanoseconds(0));
  Status DS;
  EXPECT_TRUE(D.tripped(&DS));
  EXPECT_EQ(DS.code(), ErrorCode::DeadlineExceeded);
  D.cancel(); // Loses: the deadline trip latched first.
  EXPECT_EQ(D.reason(), ErrorCode::DeadlineExceeded);

  // A generous deadline stays quiet and still honours cancel().
  CancelToken Q = CancelToken::withTimeout(std::chrono::hours(1));
  EXPECT_FALSE(Q.tripped());
  Q.cancel();
  EXPECT_EQ(Q.reason(), ErrorCode::Cancelled);
}

// ThreadPool chunk claims are cancellation points: a pre-tripped token
// stops a parallelFor before any iteration runs, the trip surfaces through
// the pool's first-exception-wins protocol, and the pool stays fully
// usable afterwards.
TEST(Cancel, ThreadPoolParallelForHonoursToken) {
  ThreadPool &Pool = ThreadPool::global();
  CancelToken T = CancelToken::create();
  T.cancel();
  std::atomic<int64_t> Ran{0};
  try {
    Pool.parallelFor(64, [&](int64_t) { ++Ran; }, &T);
    FAIL() << "parallelFor over a tripped token must throw";
  } catch (const DistalError &E) {
    EXPECT_EQ(E.status().code(), ErrorCode::Cancelled);
  }
  EXPECT_EQ(Ran.load(), 0) << "no iteration may run under a tripped token";

  // Quiet token: everything runs. Pool reusable after the cancelled call.
  CancelToken Quiet = CancelToken::create();
  Pool.parallelFor(64, [&](int64_t) { ++Ran; }, &Quiet);
  EXPECT_EQ(Ran.load(), 64);
}

// The containment contract for cancellation, with views on and off: a
// pre-cancelled token fails the execution with Cancelled before any work,
// a delay-held execution trips its deadline mid-flight with
// DeadlineExceeded, both are contained exactly like any other failure
// (arena discarded, artifact reusable), and an immediate clean
// re-execute is bitwise-identical to the reference.
TEST(Cancel, CancelledExecutionLeavesArtifactReusableAcrossModes) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  for (bool Views : {true, false}) {
    SCOPED_TRACE(Views ? "views-on" : "views-off");
    ClientRegions Set(Prob);
    ExecOptions Opts = fastOpts(2);
    Opts.ZeroCopyViews = Views;

    // Cancelled at entry: deterministic, nothing executes.
    Opts.Cancel = CancelToken::create();
    Opts.Cancel.cancel();
    Trace T;
    Status S = CP.tryExecute(Set.Regions, T, Opts);
    EXPECT_EQ(S.code(), ErrorCode::Cancelled) << S.str();
    EXPECT_NE(S.message().find("reusable"), std::string::npos)
        << "containment note missing: " << S.str();

    // Deadline mid-execution: every leaf arrival sleeps 4ms, so the 1ms
    // deadline is guaranteed to pass while the walk is still in flight;
    // the next cancellation point trips DeadlineExceeded.
    {
      ScopedFaultInjection Inject(leafDelay(4000));
      Opts.Cancel = CancelToken::withTimeout(std::chrono::milliseconds(1));
      Status DS = CP.tryExecute(Set.Regions, T, Opts);
      EXPECT_EQ(DS.code(), ErrorCode::DeadlineExceeded) << DS.str();
    }

    // Clean re-execute in the same mode: bitwise-identical bytes.
    Opts.Cancel = CancelToken();
    ASSERT_TRUE(CP.tryExecute(Set.Regions, T, Opts).ok());
    EXPECT_EQ(Set.output(Prob.A), Expected);
  }
}

// Admission: cancelling an unclaimed Deferred request resolves it
// Cancelled immediately — it never executes, its slot frees, and the
// artifact serves the next request normally.
TEST(Cancel, CancelBeforeClaimNeverExecutes) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);

  ExecFuture F = CP.submit(Set.Regions, fastOpts(2),
                           AdmissionQueue::Dispatch::Deferred);
  ASSERT_TRUE(F.valid());
  F.cancel();
  EXPECT_TRUE(F.done()) << "an unclaimed cancel must resolve immediately";
  EXPECT_EQ(F.wait().code(), ErrorCode::Cancelled) << F.wait().str();
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Cancelled, 1);
  EXPECT_EQ(S.Active, 0);
  EXPECT_EQ(CP.arenaStats().Created + CP.arenaStats().Reused, 0)
      << "the cancelled request must never have executed";

  // The queue is healthy: a fresh request runs to the right bytes.
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  ExecFuture G = CP.submit(Set.Regions, fastOpts(2),
                           AdmissionQueue::Dispatch::Deferred);
  EXPECT_TRUE(G.wait().ok()) << G.wait().str();
  EXPECT_EQ(Set.output(Prob.A), Ref.output(Prob.A));

  // A program request cancelled before its claim never creates an arena.
  ChainProblem C;
  std::shared_ptr<CompiledProgram> Prog = compileChain(C);
  ChainRegions R(C);
  ExecFuture PF = Prog->submit(R.Regions, fastOpts(2),
                               AdmissionQueue::Dispatch::Deferred);
  PF.cancel();
  EXPECT_EQ(PF.wait().code(), ErrorCode::Cancelled) << PF.wait().str();
  EXPECT_EQ(Prog->admission().stats().Cancelled, 1);
  EXPECT_EQ(Prog->arenaStats().Created + Prog->arenaStats().Reused, 0);
}

// A token whose deadline already passed at submit resolves the future
// DeadlineExceeded without admitting anything.
TEST(Cancel, ExpiredDeadlineAtSubmitNeverAdmits) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);
  ExecOptions Opts = fastOpts(2);
  Opts.Cancel = CancelToken::withTimeout(std::chrono::nanoseconds(0));
  ExecFuture F = CP.submit(Set.Regions, Opts,
                           AdmissionQueue::Dispatch::Deferred);
  EXPECT_TRUE(F.done());
  EXPECT_EQ(F.wait().code(), ErrorCode::DeadlineExceeded) << F.wait().str();
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Admitted, 0);
  EXPECT_EQ(S.Cancelled, 1);
}

// Deadline expiring *while queued*: with one concurrency slot held by an
// unclaimed blocker, a second request queues; its deadline passes before
// it ever runs, so the queue pump resolves it DeadlineExceeded without
// executing, and the blocker completes untouched.
TEST(Cancel, DeadlineExpiredWhileQueuedResolvesWithoutRunning) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  CP.admission().setMaxConcurrent(1);
  ClientRegions S1(Prob), S2(Prob);

  ExecFuture F1 = CP.submit(S1.Regions, fastOpts(2),
                            AdmissionQueue::Dispatch::Deferred);
  ExecOptions Short = fastOpts(2);
  Short.Cancel = CancelToken::withTimeout(std::chrono::milliseconds(2));
  ExecFuture F2 = CP.submit(S2.Regions, Short,
                            AdmissionQueue::Dispatch::Deferred);
  {
    AdmissionQueue::Stats S = CP.admission().stats();
    ASSERT_EQ(S.Active, 1);
    ASSERT_EQ(S.Queued, 1) << "the second request must queue behind the slot";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // F2's wait pumps the queue, which sweeps the expired request before
  // anything could claim it.
  EXPECT_EQ(F2.wait().code(), ErrorCode::DeadlineExceeded) << F2.wait().str();
  EXPECT_TRUE(F1.wait().ok()) << F1.wait().str();
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Cancelled, 1);
  EXPECT_EQ(S.Queued, 0);

  // S2's output region was never touched by the expired request: a clean
  // run over it now must equal S1's result.
  Trace T;
  ASSERT_TRUE(CP.tryExecute(S2.Regions, T, fastOpts(2)).ok());
  EXPECT_EQ(S2.output(Prob.A), S1.output(Prob.A));
}

// Dropping every ExecFuture copy of an unclaimed Deferred request
// auto-cancels it (nobody can ever claim or read it); dropping only some
// copies does not.
TEST(Cancel, DroppingEveryFutureCopyAutoCancels) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);

  {
    ExecFuture F1 = CP.submit(Set.Regions, fastOpts(2),
                              AdmissionQueue::Dispatch::Deferred);
    {
      ExecFuture F2 = F1; // Second watcher.
      ExecFuture F3;
      F3 = F2; // Copy-assignment is a watcher too.
    }          // Partial drops: the request must survive.
    EXPECT_EQ(CP.admission().stats().Cancelled, 0);
    EXPECT_EQ(CP.admission().stats().Active, 1);
  } // Last copy gone: auto-cancel.
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Cancelled, 1);
  EXPECT_EQ(S.Active, 0);
  EXPECT_EQ(S.Queued, 0);
  EXPECT_EQ(CP.arenaStats().Created + CP.arenaStats().Reused, 0)
      << "the abandoned request must never have executed";

  // The artifact is untouched and immediately serviceable.
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  Trace T;
  ASSERT_TRUE(CP.tryExecute(Set.Regions, T, fastOpts(2)).ok());
  EXPECT_EQ(Set.output(Prob.A), Ref.output(Prob.A));
}

// waitFor is a pure bounded observer: with the execution held in flight by
// injected delays, it returns false on time; cancel() then stops the pass
// and wait() resolves it, leaving the artifact reusable.
TEST(Cancel, WaitForReturnsOnTimeWithExecutionInFlight) {
  if (ThreadPool::global().numThreads() <= 1)
    GTEST_SKIP() << "sequential pool: Background dispatch runs at submit";
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  ClientRegions Set(Prob);
  Status S;
  {
    // Every leaf arrival sleeps 50ms: the background pass is guaranteed
    // to still be in flight when the 5ms bounded wait expires.
    ScopedFaultInjection Inject(leafDelay(50000));
    ExecFuture F = CP.submit(Set.Regions, fastOpts(2),
                             AdmissionQueue::Dispatch::Background);
    ASSERT_TRUE(F.valid());
    EXPECT_FALSE(F.waitFor(std::chrono::milliseconds(5)))
        << "waitFor must return on time, not when the execution finishes";
    F.cancel();
    S = F.wait();
  }
  // Depending on when the background job claimed the request, the cancel
  // either resolved it before it ran or tripped it mid-execution; both
  // surface Cancelled, and the artifact stays reusable.
  EXPECT_EQ(S.code(), ErrorCode::Cancelled) << S.str();

  Trace T;
  ASSERT_TRUE(CP.tryExecute(Set.Regions, T, fastOpts(2)).ok());
  EXPECT_EQ(Set.output(Prob.A), Expected);
}

// Concurrent cancel against a sibling coalesced pair: cancelling one
// request (both its future copies) must not disturb an unrelated pair
// coalesced onto a different pass — the sibling completes with correct
// bytes. Exercised concurrently for the TSan job; the cancelled pair's
// outcome is whichever side of the race won, but both of its futures must
// agree and the artifact must stay reusable.
TEST(Cancel, ConcurrentCancelLeavesSiblingCoalescedPairIntact) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  ClientRegions SetA(Prob), SetB(Prob);
  ExecFuture FA1 = CP.submit(SetA.Regions, fastOpts(2),
                             AdmissionQueue::Dispatch::Deferred);
  ExecFuture FA2 = CP.submit(SetA.Regions, fastOpts(2),
                             AdmissionQueue::Dispatch::Deferred);
  ExecFuture FB1 = CP.submit(SetB.Regions, fastOpts(2),
                             AdmissionQueue::Dispatch::Deferred);
  ExecFuture FB2 = CP.submit(SetB.Regions, fastOpts(2),
                             AdmissionQueue::Dispatch::Deferred);
  ASSERT_EQ(CP.admission().stats().Coalesced, 2);

  std::thread Canceller([&] { FA1.cancel(); });
  std::thread Waiter([&] { FB2.wait(); });
  Canceller.join();
  Waiter.join();

  EXPECT_TRUE(FB1.wait().ok()) << FB1.wait().str();
  EXPECT_TRUE(FB2.wait().ok());
  EXPECT_EQ(SetB.output(Prob.A), Expected);

  // The cancelled pair: the cancel either beat the help-claim (resolved
  // Cancelled, never ran) or lost (the pass completed, or was tripped
  // mid-run). Every coalesced copy must observe the same latched result.
  const Status &A1 = FA1.wait();
  const Status &A2 = FA2.wait();
  EXPECT_EQ(A1.code(), A2.code());
  EXPECT_TRUE(A1.ok() || A1.code() == ErrorCode::Cancelled) << A1.str();

  Trace T;
  ASSERT_TRUE(CP.tryExecute(SetA.Regions, T, fastOpts(2)).ok());
  EXPECT_EQ(SetA.output(Prob.A), Expected);
}

// Whole-program cancellation: node boundaries are the program walk's
// cancellation points. A pre-cancelled token fails tryExecute with the
// program containment note; a deadline trips mid-walk under injected
// delays; both leave the artifact reusable and a clean re-execute
// bitwise-identical to the statement-by-statement story.
TEST(Cancel, ProgramCancelledBetweenStatementsStaysReusable) {
  ChainProblem C;
  std::shared_ptr<CompiledProgram> Prog = compileChain(C);
  ChainRegions Ref(C);
  Prog->execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.bytesOf(C.Y);

  ChainRegions R(C);
  ExecOptions Opts = fastOpts(2);
  Opts.Cancel = CancelToken::create();
  Opts.Cancel.cancel();
  Status S = Prog->tryExecute(R.Regions, Opts);
  EXPECT_EQ(S.code(), ErrorCode::Cancelled) << S.str();
  EXPECT_NE(S.message().find("reusable"), std::string::npos) << S.str();

  {
    ScopedFaultInjection Inject(leafDelay(4000));
    Opts.Cancel = CancelToken::withTimeout(std::chrono::milliseconds(1));
    Status DS = Prog->tryExecute(R.Regions, Opts);
    EXPECT_EQ(DS.code(), ErrorCode::DeadlineExceeded) << DS.str();
  }

  Opts.Cancel = CancelToken();
  ASSERT_TRUE(Prog->tryExecute(R.Regions, Opts).ok());
  EXPECT_EQ(R.bytesOf(C.Y), Expected);
}

// Executor::tryRun returns a cancelled run's Cancelled as is, and clearing
// the token restores normal runs.
TEST(Cancel, ExecutorTryRunReturnsCancelled) {
  MatmulProblem Prob = makeCannon();
  ClientRegions Set(Prob);
  Executor E(Prob.P);
  E.setNumThreads(2);

  CancelToken T = CancelToken::create();
  T.cancel();
  E.setCancelToken(T);
  Trace Out;
  Status S = E.tryRun(Set.Regions, Out, TraceMode::Off);
  EXPECT_EQ(S.code(), ErrorCode::Cancelled) << S.str();

  // Clearing the token restores normal runs.
  E.setCancelToken(CancelToken());
  EXPECT_TRUE(E.tryRun(Set.Regions, Out, TraceMode::Off).ok());
}

// The progress heartbeat: stuckReport is empty when idle and shows the
// in-flight execution's phase/step while a delay-held walk is parked in
// its leaf sleeps; after completion it empties again and the bytes are
// untouched by the observation.
TEST(Cancel, StuckReportShowsInFlightExecution) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);
  EXPECT_TRUE(CP.stuckReport().empty()) << CP.stuckReport();

  ClientRegions Set(Prob);
  Status S;
  std::string Seen;
  {
    // 20ms per leaf arrival holds the walk in flight for a comfortable
    // polling window (Cannon at 4 procs: >= 8 leaf arrivals).
    ScopedFaultInjection Inject(leafDelay(20000));
    std::thread Runner([&] {
      Trace T;
      S = CP.tryExecute(Set.Regions, T, fastOpts(2));
    });
    for (int I = 0; I < 3000 && Seen.empty(); ++I) {
      Seen = CP.stuckReport();
      if (Seen.empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Runner.join();
  }
  EXPECT_FALSE(Seen.empty()) << "the in-flight execution must be visible";
  EXPECT_NE(Seen.find("execution (age "), std::string::npos) << Seen;
  EXPECT_TRUE(S.ok()) << S.str();
  EXPECT_TRUE(CP.stuckReport().empty()) << CP.stuckReport();
  EXPECT_EQ(Set.output(Prob.A), Expected) << "delays must not corrupt bytes";
}

// Program-level heartbeat: nodes-complete progress of an in-flight
// program execution, empty once drained.
TEST(Cancel, ProgramStuckReportShowsNodeProgress) {
  ChainProblem C;
  std::shared_ptr<CompiledProgram> Prog = compileChain(C);
  EXPECT_TRUE(Prog->stuckReport().empty());

  ChainRegions R(C);
  Status S;
  std::string Seen;
  {
    ScopedFaultInjection Inject(leafDelay(20000));
    std::thread Runner([&] { S = Prog->tryExecute(R.Regions, fastOpts(2)); });
    for (int I = 0; I < 3000 && Seen.empty(); ++I) {
      Seen = Prog->stuckReport();
      if (Seen.empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Runner.join();
  }
  EXPECT_FALSE(Seen.empty());
  EXPECT_NE(Seen.find("nodes complete"), std::string::npos) << Seen;
  EXPECT_TRUE(S.ok()) << S.str();
  EXPECT_TRUE(Prog->stuckReport().empty());
}
