//===- tests/ConcurrencyTest.cpp - Concurrent multi-tenant execution ------===//
//
// The reentrancy contract of the compile-once / execute-many engine: one
// shared CompiledPlan artifact serves many client threads concurrently,
// each execution in its own ExecArena, with output bytes bitwise-identical
// to running the same calls serially. Also covers the admission/batching
// front-end (deterministic coalescing of identical requests, the bounded
// queue's ResourceExhausted rejection, shutdown resolution of pending
// futures), per-arena fault containment (an injected failure in one
// execution leaves concurrent siblings and the artifact untouched), the
// arena pool's steady-state reuse, the ExecutionSlot census/budget that
// divides threads among concurrent executions, and the user-facing
// concurrent surfaces (Tensor::evaluate coalescing, evaluateAsync's
// artifact anchoring across PlanCache eviction, Executor::submit).
//
// Runs under the TSan CI job (DISTAL_NUM_THREADS=8): any race between
// sibling arenas, the admission queue's claim protocol, or the pooled
// arena handoff would surface here.
//
//===----------------------------------------------------------------------===//

#include "algorithms/Matmul.h"
#include "api/Program.h"
#include "api/Tensor.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "runtime/Region.h"
#include "support/ExecContext.h"
#include "support/FaultInjector.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "TestSupport.h"

using namespace distal;
using namespace distal::algorithms;

namespace {

// Like FaultToleranceTest, this suite owns the injector configuration
// (ScopedFaultInjection around the failing phase); start disarmed whatever
// the environment says, so the bitwise assertions compare clean runs.
class DisarmedBaseline : public ::testing::Environment {
public:
  void SetUp() override { FaultInjector::disarm(); }
};
const ::testing::Environment *const BaselineEnv =
    ::testing::AddGlobalTestEnvironment(new DisarmedBaseline);

/// A Cannon matmul: launch + step gathers, relay-fed step fetches, real
/// writeback — the densest exercise of the execute walk.
MatmulProblem makeCannon(Coord N = 24) {
  MatmulOptions O;
  O.N = N;
  O.Procs = 4;
  return buildMatmul(MatmulAlgo::Cannon, O);
}

/// One client's private region set for \p Prob, inputs filled with the
/// same seeds for every client so all outputs must be bitwise-identical.
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

/// Simple start barrier so client threads enter the artifact together.
class StartGate {
public:
  explicit StartGate(int N) : Waiting(N) {}
  void arriveAndWait() {
    std::unique_lock<std::mutex> L(Mu);
    if (--Waiting == 0) {
      CV.notify_all();
      return;
    }
    CV.wait(L, [&] { return Waiting == 0; });
  }

private:
  std::mutex Mu;
  std::condition_variable CV;
  int Waiting;
};

} // namespace

// The ExecutionSlot census and the per-execution thread budget it derives:
// the machinery that keeps N concurrent executions from oversubscribing
// the configured thread count.
TEST(Concurrency, ExecutionSlotCensusAndBudget) {
  ASSERT_EQ(ExecutionSlot::activeExecutions(), 0)
      << "test assumes no execution in flight";
  ExecutionSlot::resetPeakActiveExecutions();
  {
    ExecutionSlot A;
    EXPECT_EQ(A.activeAtClaim(), 1);
    EXPECT_EQ(A.budget(8), 8); // Alone: full configured width.
    EXPECT_EQ(A.budget(1), 1);
    ExecutionSlot B;
    EXPECT_EQ(B.activeAtClaim(), 2);
    EXPECT_EQ(B.budget(8), 4); // Two in flight: half each.
    EXPECT_EQ(B.budget(3), 1); // Integer division floors...
    EXPECT_EQ(B.budget(1), 1); // ...but never below 1 (inline walk).
    EXPECT_EQ(ExecutionSlot::activeExecutions(), 2);
  }
  EXPECT_EQ(ExecutionSlot::activeExecutions(), 0);
  EXPECT_EQ(ExecutionSlot::peakActiveExecutions(), 2);
}

// The headline contract: N client threads hammer one artifact through the
// direct execute() path, each over its own region set, several rounds
// each. Every result must be bitwise-identical to a serial single-thread
// reference, and the execution census must show genuine overlap (no
// hidden serialization).
TEST(Concurrency, ConcurrentExecutionsBitwiseMatchSerial) {
  const int Clients = 8, Rounds = 8;
  MatmulProblem Prob = makeCannon(32);
  CompiledPlan CP(Prob.P);

  // Serial reference from the same artifact.
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  std::vector<std::unique_ptr<ClientRegions>> Sets;
  for (int I = 0; I < Clients; ++I)
    Sets.push_back(std::make_unique<ClientRegions>(Prob));

  // Overlap (two slots held at once) is certain per round on a multi-core
  // host but needs a timeslice boundary to land mid-execution on a
  // single-core one, so repeat gated rounds until the census shows it.
  // Output bytes are asserted on every attempt regardless.
  ExecutionSlot::resetPeakActiveExecutions();
  const int MaxAttempts = 25;
  for (int Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    StartGate Gate(Clients);
    std::atomic<int> Failures{0};
    std::vector<std::thread> Threads;
    for (int I = 0; I < Clients; ++I)
      Threads.emplace_back([&, I] {
        Gate.arriveAndWait();
        for (int R = 0; R < Rounds; ++R) {
          Trace T;
          Status S = CP.tryExecute(Sets[I]->Regions, T, fastOpts(2));
          if (!S.ok())
            ++Failures;
        }
      });
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Failures.load(), 0);
    for (int I = 0; I < Clients; ++I)
      EXPECT_EQ(Sets[I]->output(Prob.A), Expected) << "client " << I;
    if (HasFailure() || ExecutionSlot::peakActiveExecutions() >= 2)
      break;
  }
  // Two executions really were in flight at once at some point above —
  // no hidden serialization in the artifact.
  EXPECT_GE(ExecutionSlot::peakActiveExecutions(), 2);
}

// Deterministic coalescing: a Deferred request sits unclaimed until
// waited, so an identical second submission must piggyback on it — one
// admission, one execution, both futures resolving to the same result.
TEST(Concurrency, IdenticalRequestsCoalesceOntoOnePass) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  ClientRegions Set(Prob);
  ExecOptions Opts = fastOpts(2);
  ExecFuture F1 = CP.submit(Set.Regions, Opts,
                            AdmissionQueue::Dispatch::Deferred);
  ExecFuture F2 = CP.submit(Set.Regions, Opts,
                            AdmissionQueue::Dispatch::Deferred);
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Admitted, 1);
  EXPECT_EQ(S.Coalesced, 1);

  EXPECT_TRUE(F2.wait().ok()) << F2.wait().str(); // Claims + runs the pass.
  EXPECT_TRUE(F1.wait().ok());                    // Already resolved.
  EXPECT_TRUE(F1.done() && F2.done());
  EXPECT_EQ(Set.output(Prob.A), Expected);
  // Exactly one execution beyond the reference run: the coalesced request
  // must not have run its own pass.
  EXPECT_EQ(CP.arenaStats().Created + CP.arenaStats().Reused, 2);

  // A program's requests go through the same queue. The statement twice,
  // so the second waits on the first's end node: two Deferred submits
  // coalesce onto one pass.
  auto Stmt = std::make_shared<CompiledPlan>(Prob.P);
  CompiledProgram Prog({Stmt, Stmt});
  ClientRegions PSet(Prob);
  ExecFuture G1 = Prog.submit(PSet.Regions, Opts,
                              AdmissionQueue::Dispatch::Deferred);
  ExecFuture G2 = Prog.submit(PSet.Regions, Opts,
                              AdmissionQueue::Dispatch::Deferred);
  S = Prog.admission().stats();
  EXPECT_EQ(S.Admitted, 1);
  EXPECT_EQ(S.Coalesced, 1);
  EXPECT_TRUE(G2.wait().ok()) << G2.wait().str();
  EXPECT_TRUE(G1.wait().ok());
  EXPECT_EQ(PSet.output(Prob.A), Expected);
  EXPECT_EQ(Prog.arenaStats().Created + Prog.arenaStats().Reused, 1);
}

// Conflict serialization: two requests over the same region map whose
// options are NOT result-compatible (a trace-wanting request must not
// piggyback on a traceless pass) may never run concurrently either — the
// second queues behind the first instead of racing it on the shared
// output region.
TEST(Concurrency, IncompatibleOptionsOnSameOutputSerialize) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  ClientRegions Set(Prob);
  ExecOptions Off = fastOpts(2);
  ExecOptions Full = fastOpts(2);
  Full.Mode = TraceMode::Full;
  ExecFuture F1 = CP.submit(Set.Regions, Off,
                            AdmissionQueue::Dispatch::Deferred);
  ExecFuture F2 = CP.submit(Set.Regions, Full,
                            AdmissionQueue::Dispatch::Deferred);
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Admitted, 2) << "trace-incompatible requests must not coalesce";
  EXPECT_EQ(S.Coalesced, 0);
  EXPECT_EQ(S.Active, 1) << "the conflicting request must wait its turn";
  EXPECT_EQ(S.Queued, 1);

  // F2's wait help-runs F1 (the active lane blocker), then its own pass.
  EXPECT_TRUE(F2.wait().ok()) << F2.wait().str();
  EXPECT_TRUE(F1.wait().ok()) << F1.wait().str();
  EXPECT_EQ(F2.trace().NumProcs, CP.trace().NumProcs)
      << "the traced request must get a real trace, not the Off pass's";
  EXPECT_EQ(Set.output(Prob.A), Expected);
}

// The flip side: options that cannot change the output bytes (threading,
// views — everything but the trace mode) are not part of the coalescing
// key, and a Full pass satisfies an Off request.
TEST(Concurrency, ResultCompatibleOptionsCoalesce) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);
  ExecOptions Full = fastOpts(2);
  Full.Mode = TraceMode::Full;
  // Different thread count, views setting AND trace mode.
  ExecOptions Off = fastOpts(1);
  Off.ZeroCopyViews = false;

  ExecFuture F1 = CP.submit(Set.Regions, Full,
                            AdmissionQueue::Dispatch::Deferred);
  ExecFuture F2 = CP.submit(Set.Regions, Off,
                            AdmissionQueue::Dispatch::Deferred);
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Admitted, 1);
  EXPECT_EQ(S.Coalesced, 1);
  EXPECT_TRUE(F2.wait().ok()) << F2.wait().str();
  EXPECT_TRUE(F1.done());
}

// Coalescing must never serve stale bytes: a request only piggybacks on a
// pass that has not started yet, so data written *before* the submission
// is always visible to the pass that resolves it. (A running pass may
// already have read its inputs; attaching to it would time-travel.)
TEST(Concurrency, CoalescedPassReadsLatestInputs) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);

  ClientRegions Set(Prob);
  ExecOptions Opts = fastOpts(2);
  ExecFuture F1 = CP.submit(Set.Regions, Opts,
                            AdmissionQueue::Dispatch::Deferred);
  // F1 is admitted but unclaimed: nothing has read the inputs yet.
  // Overwrite them, then submit the identical request.
  Set.Storage[1]->fillRandom(1001);
  Set.Storage[2]->fillRandom(2002);
  ExecFuture F2 = CP.submit(Set.Regions, Opts,
                            AdmissionQueue::Dispatch::Deferred);
  EXPECT_EQ(CP.admission().stats().Coalesced, 1);
  EXPECT_TRUE(F2.wait().ok()) << F2.wait().str();

  // Serial reference over the *new* fills.
  ClientRegions Ref(Prob);
  Ref.Storage[1]->fillRandom(1001);
  Ref.Storage[2]->fillRandom(2002);
  CP.execute(Ref.Regions, fastOpts(1));
  EXPECT_EQ(Set.output(Prob.A), Ref.output(Prob.A))
      << "the coalesced pass must compute from the post-fill inputs";
}

// The bounded queue: beyond capacity, submission fails fast with an
// already-resolved ResourceExhausted future; admitted requests still run
// to completion via the waiters' claim/help protocol.
TEST(Concurrency, AdmissionBeyondCapacityIsRejected) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  CP.admission().setMaxConcurrent(1);
  CP.admission().setCapacity(2);

  // Three *distinct* requests (different region sets — identical ones
  // would coalesce instead).
  ClientRegions S1(Prob), S2(Prob), S3(Prob);
  ExecOptions Opts = fastOpts(2);
  ExecFuture F1 = CP.submit(S1.Regions, Opts,
                            AdmissionQueue::Dispatch::Deferred);
  ExecFuture F2 = CP.submit(S2.Regions, Opts,
                            AdmissionQueue::Dispatch::Deferred);
  ExecFuture F3 = CP.submit(S3.Regions, Opts,
                            AdmissionQueue::Dispatch::Deferred);

  EXPECT_TRUE(F3.done()) << "rejection must resolve immediately";
  EXPECT_EQ(F3.wait().code(), ErrorCode::ResourceExhausted);
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_EQ(S.Admitted, 2);
  EXPECT_EQ(S.Rejected, 1);

  // Waiting the queued future first exercises help-claiming: F2's wait
  // runs F1 (the unclaimed lane blocker), then its own request.
  EXPECT_TRUE(F2.wait().ok()) << F2.wait().str();
  EXPECT_TRUE(F1.wait().ok()) << F1.wait().str();
  EXPECT_EQ(S1.output(Prob.A), S2.output(Prob.A));
}

// Destroying the artifact (and with it the admission queue) must resolve
// every unclaimed pending future with FailedPrecondition rather than
// leaving waiters hanging or running against a dead artifact.
TEST(Concurrency, QueueShutdownFailsUnclaimedRequests) {
  MatmulProblem Prob = makeCannon();
  ClientRegions Set(Prob);
  ExecFuture F;
  {
    auto CP = std::make_unique<CompiledPlan>(Prob.P);
    F = CP->submit(Set.Regions, fastOpts(2),
                   AdmissionQueue::Dispatch::Deferred);
    // CP dies with F still pending and unclaimed.
  }
  ASSERT_TRUE(F.valid() && F.done());
  EXPECT_EQ(F.wait().code(), ErrorCode::FailedPrecondition);
}

// Per-arena fault containment under concurrency: with a global budget of
// one injection, exactly one of two concurrent executions fails; the
// sibling completes cleanly in the same instant, the failed arena is
// discarded (not recycled), and disarmed reruns of both region sets
// reproduce the reference bytes.
TEST(Concurrency, FaultInOneArenaLeavesSiblingUntouched) {
  MatmulProblem Prob = makeCannon(32);
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  ClientRegions SA(Prob), SB(Prob);
  Status StA, StB;
  {
    FaultInjector::Config C;
    C.Rate = 1;
    C.SiteMask = FaultInjector::maskFor(FaultInjector::Site::Gather);
    C.MaxInjections = 1; // The process-wide budget: exactly one firing.
    ScopedFaultInjection Inject(C);
    StartGate Gate(2);
    std::thread TA([&] {
      Gate.arriveAndWait();
      Trace T;
      StA = CP.tryExecute(SA.Regions, T, fastOpts(2));
    });
    std::thread TB([&] {
      Gate.arriveAndWait();
      Trace T;
      StB = CP.tryExecute(SB.Regions, T, fastOpts(2));
    });
    TA.join();
    TB.join();
  }
  EXPECT_NE(StA.ok(), StB.ok())
      << "exactly one execution must absorb the single injection: "
      << StA.str() << " / " << StB.str();
  const Status &Failed = StA.ok() ? StB : StA;
  EXPECT_EQ(Failed.code(), ErrorCode::Injected) << Failed.str();
  EXPECT_NE(Failed.message().find("reusable"), std::string::npos)
      << "containment note missing: " << Failed.str();
  EXPECT_EQ(CP.arenaStats().Discarded, 1);

  // Disarmed: both clients' reruns must produce the reference bytes.
  Trace T;
  ASSERT_TRUE(CP.tryExecute(SA.Regions, T, fastOpts(2)).ok());
  ASSERT_TRUE(CP.tryExecute(SB.Regions, T, fastOpts(2)).ok());
  EXPECT_EQ(SA.output(Prob.A), Expected);
  EXPECT_EQ(SB.output(Prob.A), Expected);
}

// The arena pool's steady state: serial executions reuse one cached arena
// (no per-execution allocation of instance buffers), and the cache cap is
// honoured.
TEST(Concurrency, ArenaPoolReusesInSteadyState) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);
  for (int I = 0; I < 10; ++I)
    CP.execute(Set.Regions, fastOpts(2));
  CompiledPlan::ArenaStats S = CP.arenaStats();
  EXPECT_EQ(S.Created, 1) << "serial steady state must reuse one arena";
  EXPECT_EQ(S.Reused, 9);
  EXPECT_EQ(S.Cached, 1);
  EXPECT_EQ(S.Discarded, 0);

  CP.setArenaCacheCap(0); // Drops the cached arena and disables reuse.
  EXPECT_EQ(CP.arenaStats().Cached, 0);
  CP.execute(Set.Regions, fastOpts(2));
  S = CP.arenaStats();
  EXPECT_EQ(S.Created, 2);
  EXPECT_EQ(S.Cached, 0);
}

// The user-facing surface: concurrent evaluate() calls of one tensor on
// one machine are admitted to the cached artifact's queue, where identical
// requests coalesce instead of racing on the shared output region; every
// call succeeds and the final bytes are the correct product.
TEST(Concurrency, TensorConcurrentEvaluatesCoalesce) {
  PlanCache::global().clear();
  Machine M = Machine::grid({2, 2});
  Format Tiles({ModeKind::Dense, ModeKind::Dense},
               TensorDistribution::parse("xy->xy"));
  Tensor A("A", {16, 16}, Tiles), B("B", {16, 16}, Tiles),
      C("C", {16, 16}, Tiles);
  B.fillRandom(5);
  C.fillRandom(7);
  IndexVar I("i"), J("j"), K("k");
  A(I, J) = B(I, K) * C(K, J);
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji"), Ko("ko"), Ki("ki");
  A.schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, M)
      .split(K, Ko, Ki, 8)
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .communicate(A, Jo)
      .communicate({B, C}, Ko)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);

  std::shared_ptr<CompiledPlan> CP = A.compile(M);
  const int Clients = 8;
  StartGate Gate(Clients);
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < Clients; ++T)
    Threads.emplace_back([&] {
      Gate.arriveAndWait();
      if (!A.tryEvaluate(M).ok())
        ++Failures;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // Every call was either admitted or coalesced — never dropped.
  AdmissionQueue::Stats S = CP->admission().stats();
  EXPECT_EQ(S.Admitted + S.Coalesced, Clients);
  EXPECT_EQ(S.Rejected, 0);
  // And the cache-level aggregate sees this artifact's counters.
  AdmissionQueue::Stats Agg = PlanCache::global().admissionStats();
  EXPECT_GE(Agg.Admitted + Agg.Coalesced, Clients);

  // The bytes are the real product (spot-check against the operands).
  for (Coord X = 0; X < 16; ++X)
    for (Coord Y = 0; Y < 16; ++Y) {
      double Acc = 0;
      for (Coord Z = 0; Z < 16; ++Z)
        Acc += B.region()->at(Point({X, Z})) * C.region()->at(Point({Z, Y}));
      ASSERT_EQ(A.at(Point({X, Y})), Acc) << "(" << X << "," << Y << ")";
    }
}

// The documented thread-safety of the mixed evaluate surfaces: one thread
// hammers evaluate() (TraceMode::Off) while another hammers
// evaluateWithTrace() (TraceMode::Full) on the SAME tensor. The requests
// share the output region but are not trace-compatible, so the admission
// queue must serialize them — never run two passes zeroing/writing the
// region at once. Runs under the TSan job, where any such race surfaces.
TEST(Concurrency, TensorEvaluateAndTraceOnOneTensorDoNotRace) {
  PlanCache::global().clear();
  Machine M = Machine::grid({2, 2});
  Format Tiles({ModeKind::Dense, ModeKind::Dense},
               TensorDistribution::parse("xy->xy"));
  Tensor A("A", {16, 16}, Tiles), B("B", {16, 16}, Tiles),
      C("C", {16, 16}, Tiles);
  B.fillRandom(13);
  C.fillRandom(17);
  IndexVar I("i"), J("j"), K("k");
  A(I, J) = B(I, K) * C(K, J);
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji"), Ko("ko"), Ki("ki");
  A.schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, M)
      .split(K, Ko, Ki, 8)
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .communicate(A, Jo)
      .communicate({B, C}, Ko)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);

  const int Rounds = 6;
  std::atomic<int> Failures{0};
  StartGate Gate(2);
  std::thread Plain([&] {
    Gate.arriveAndWait();
    for (int R = 0; R < Rounds; ++R)
      if (!A.tryEvaluate(M).ok())
        ++Failures;
  });
  std::thread Traced([&] {
    Gate.arriveAndWait();
    for (int R = 0; R < Rounds; ++R) {
      try {
        Trace T = A.evaluateWithTrace(M);
        if (T.NumProcs <= 0)
          ++Failures;
      } catch (...) {
        ++Failures;
      }
    }
  });
  Plain.join();
  Traced.join();
  EXPECT_EQ(Failures.load(), 0);

  for (Coord X = 0; X < 16; ++X)
    for (Coord Y = 0; Y < 16; ++Y) {
      double Acc = 0;
      for (Coord Z = 0; Z < 16; ++Z)
        Acc += B.region()->at(Point({X, Z})) * C.region()->at(Point({Z, Y}));
      ASSERT_EQ(A.at(Point({X, Y})), Acc) << "(" << X << "," << Y << ")";
    }
}

// Machine change under a pending execution: evaluateAsync(M1) reads B's
// M1 region; evaluating a second tensor that also reads B on M2 rebuilds
// B's backing Region. The rebuild must wait for the pending execution to
// drain and the old storage must stay alive until it completes — never a
// use-after-free (ASan-checked in CI), and both results must be right.
TEST(Concurrency, MachineChangeDrainsInFlightExecutions) {
  PlanCache::global().clear();
  Machine M1 = Machine::grid({2}), M2 = Machine::grid({4});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  Tensor A("A", {32}, V), B("B", {32}, V), D("D", {32}, V);
  B.fillRandom(19);
  IndexVar I("i"), Io("io"), Ii("ii");
  A(I) = B(I) + 1.0;
  A.schedule().distribute({I}, {Io}, {Ii}, M1);
  IndexVar J("j"), Jo("jo"), Ji("ji");
  D(J) = Expr(B(J)) * Expr(2.0);
  D.schedule().distribute({J}, {Jo}, {Ji}, M2);

  for (int Round = 0; Round < 4; ++Round) {
    ExecFuture F = A.evaluateAsync(M1); // Reads B on M1.
    D.evaluate(M2);                     // Rebuilds B's region for M2.
    EXPECT_TRUE(F.wait().ok()) << F.wait().str();
    for (Coord X = 0; X < 32; ++X) {
      // B's values survived the rebuild, so both outputs check out
      // against the *current* B region.
      EXPECT_EQ(A.at(Point({X})), B.region()->at(Point({X})) + 1.0);
      EXPECT_EQ(D.at(Point({X})), B.region()->at(Point({X})) * 2.0);
    }
    ExecFuture Back = A.evaluateAsync(M1); // And back again: B M2 -> M1.
    EXPECT_TRUE(Back.wait().ok()) << Back.wait().str();
  }
}

// evaluateAsync: the future is the result carrier AND the artifact's
// lifetime anchor — a PlanCache eviction between submit and wait must not
// destroy the artifact under the pending execution.
TEST(Concurrency, EvaluateAsyncSurvivesCacheEviction) {
  PlanCache::global().clear();
  Machine M = Machine::grid({2});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  Tensor A("A", {32}, V), B("B", {32}, V);
  B.fillRandom(11);
  IndexVar I("i"), Io("io"), Ii("ii");
  A(I) = B(I) + 1.0;
  A.schedule().distribute({I}, {Io}, {Ii}, M);

  ExecFuture F = A.evaluateAsync(M);
  ASSERT_TRUE(F.valid());
  PlanCache::global().clear(); // Evict: only the future anchors the artifact.
  EXPECT_TRUE(F.wait().ok()) << F.wait().str();
  for (Coord X = 0; X < 32; ++X)
    EXPECT_EQ(A.at(Point({X})), B.region()->at(Point({X})) + 1.0);
}

// Fire-and-forget teardown: drop every future immediately, then clear the
// cache while background requests may still be pending. The last artifact
// reference must never be the request's own RunAnchor (released from
// inside the dispatch job, where destroying the artifact would join the
// job's own pool ticket — a self-deadlock), so the clear() below tears
// the artifact down on this thread: unclaimed requests fail, running ones
// drain, and nothing hangs or touches freed Region storage.
TEST(Concurrency, AbandonedAsyncFuturesThenCacheClearTearDownCleanly) {
  PlanCache::global().clear();
  Machine M = Machine::grid({2});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  Tensor A("A", {32}, V), B("B", {32}, V);
  B.fillRandom(29);
  IndexVar I("i"), Io("io"), Ii("ii");
  A(I) = B(I) + 1.0;
  A.schedule().distribute({I}, {Io}, {Ii}, M);

  // Program futures too, over outputs disjoint from A's: each request
  // holds only weak references to its queue, so a dropped one leaks
  // nothing, whatever the pool size.
  Tensor C("C", {32}, V), D("D", {32}, V);
  IndexVar J("j"), Jo("jo"), Ji("ji"), K("k"), Ko("ko"), Ki("ki");
  C(J) = B(J) * 2.0;
  C.schedule().distribute({J}, {Jo}, {Ji}, M);
  D(K) = C(K) + 1.0;
  D.schedule().distribute({K}, {Ko}, {Ki}, M);
  Program P;
  P.add(C).add(D);

  for (int Round = 0; Round < 8; ++Round) {
    A.evaluateAsync(M); // Future dropped on the spot.
    P.evaluateAsync(M); // Likewise.
    if (Round % 2 == 1)
      PlanCache::global().clear();
  }
  PlanCache::global().clear();

  // The engine is fully usable afterwards; fresh evaluations recompile
  // and produce the right bytes.
  A.evaluate(M);
  for (Coord X = 0; X < 32; ++X)
    EXPECT_EQ(A.at(Point({X})), B.region()->at(Point({X})) + 1.0);
  P.evaluate(M);
  for (Coord X = 0; X < 32; ++X)
    EXPECT_EQ(D.at(Point({X})), B.region()->at(Point({X})) * 2.0 + 1.0);
}

// Executor::submit: the façade's asynchronous entry point delivers the
// same bytes and the same precomputed trace as a synchronous run.
TEST(Concurrency, ExecutorSubmitMatchesRun) {
  MatmulProblem Prob = makeCannon();
  ClientRegions RefSet(Prob), Set(Prob);
  Executor E(Prob.P);
  E.setNumThreads(2);
  E.run(RefSet.Regions, TraceMode::Off);
  const std::vector<double> Expected = RefSet.output(Prob.A);

  ExecFuture F = E.submit(Set.Regions, TraceMode::Full);
  ASSERT_TRUE(F.valid());
  EXPECT_TRUE(F.wait().ok()) << F.wait().str();
  EXPECT_EQ(F.trace().NumProcs, E.simulate().NumProcs);
  EXPECT_EQ(Set.output(Prob.A), Expected);
}
