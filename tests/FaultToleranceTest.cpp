//===- tests/FaultToleranceTest.cpp - Fault-tolerant execution --*- C++ -*-===//
//
// The failure contract of the execution engine, driven by deterministic
// fault injection: an injected failure at any hook site (gather, leaf
// launch, writeback, allocation), with views on or off, comes back as a
// recoverable Status; the artifact stays reusable and a subsequent clean
// execution is bitwise-identical to an uninjected run. Also covers
// Executor::tryRun returning a contained failure unretried, structured
// error propagation through Tensor::tryEvaluate, and the ThreadPool's
// exception-capture contract.
//
// The fractional-rate test honours DISTAL_FAULT_SEED so CI can sweep seeds;
// every seed must satisfy the same containment property.
//
//===----------------------------------------------------------------------===//

#include "algorithms/Matmul.h"
#include "api/Tensor.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "runtime/Region.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "TestSupport.h"

using namespace distal;
using namespace distal::algorithms;

namespace {

using Site = FaultInjector::Site;

// The suite tests the *containment* of injected faults, so it owns the
// injector configuration itself (ScopedFaultInjection around the failing
// statement); a process-level DISTAL_FAULT_RATE would also fail the
// reference runs the assertions compare against. Start disarmed, whatever
// the environment says — the seed is still honoured via envSeed().
class DisarmedBaseline : public ::testing::Environment {
public:
  void SetUp() override { FaultInjector::disarm(); }
};
const ::testing::Environment *const BaselineEnv =
    ::testing::AddGlobalTestEnvironment(new DisarmedBaseline);

uint64_t envSeed() {
  if (const char *S = std::getenv("DISTAL_FAULT_SEED"))
    return std::strtoull(S, nullptr, 10);
  return 0;
}

/// A Cannon matmul of \p N x \p N matrices on 2 x 2 processors (systolic
/// rotations: launch + step gathers, relay-fed step fetches, real
/// writeback) with regions, the densest exercise of every hook site. Its
/// leaf GEMMs are (N/2)^3 multiply-adds: under blas::gemm's 2^16 pack
/// cutoff at the default N = 16, over it from N = 128.
struct Harness {
  MatmulProblem Prob;
  std::vector<std::unique_ptr<Region>> Storage;
  std::map<TensorVar, Region *> Regions;

  static MatmulProblem makeCannon(Coord N) {
    MatmulOptions O;
    O.N = N;
    O.Procs = 4;
    return buildMatmul(MatmulAlgo::Cannon, O);
  }

  explicit Harness(Coord N = 16) : Prob(makeCannon(N)) {
    for (const TensorVar &T : {Prob.A, Prob.B, Prob.C}) {
      Storage.push_back(
          std::make_unique<Region>(T, Prob.P.formatOf(T), Prob.P.M));
      Regions[T] = Storage.back().get();
    }
    Regions[Prob.B]->fillRandom(5);
    Regions[Prob.C]->fillRandom(7);
  }

  std::vector<double> output() const {
    std::vector<double> Out;
    Rect::forExtents(Prob.A.shape()).forEachPoint([&](const Point &P) {
      Out.push_back(Regions.at(Prob.A)->at(P));
    });
    return Out;
  }
};

ExecOptions optsFor(bool Views) {
  ExecOptions Opts;
  Opts.NumThreads = 4;
  Opts.Mode = TraceMode::Off;
  Opts.ZeroCopyViews = Views;
  return Opts;
}

FaultInjector::Config alwaysFire(Site S, int64_t MaxInjections = -1) {
  FaultInjector::Config C;
  C.Seed = envSeed();
  C.Rate = 1;
  C.SiteMask = FaultInjector::maskFor(S);
  C.MaxInjections = MaxInjections;
  return C;
}

} // namespace

// Every hook site, with views on and off, against a fresh artifact (so
// the Alloc site fires in ensureExecState): every site must actually fire
// and surface as a recoverable Status, after which the same artifact
// executes cleanly and bitwise matches the uninjected reference.
TEST(FaultTolerance, EverySiteEveryConfigIsContained) {
  Harness H;
  // Uninjected reference output, from its own artifact.
  CompiledPlan Ref(H.Prob.P);
  Ref.execute(H.Regions, optsFor(true));
  const std::vector<double> Expected = H.output();

  const Site Sites[] = {Site::Gather, Site::Leaf, Site::Writeback,
                        Site::Alloc};
  for (bool Views : {true, false}) {
    ExecOptions Opts = optsFor(Views);
    for (Site S : Sites) {
      SCOPED_TRACE(std::string("site=") + FaultInjector::siteName(S) +
                   " views=" + (Views ? "on" : "off"));
      CompiledPlan CP(H.Prob.P);
      Trace T;
      {
        ScopedFaultInjection Inject(alwaysFire(S));
        Status St = CP.tryExecute(H.Regions, T, Opts);
        ASSERT_FALSE(St.ok()) << "the site must be reached";
        EXPECT_EQ(St.code(), ErrorCode::Injected) << St.str();
        EXPECT_NE(St.message().find(FaultInjector::siteName(S)),
                  std::string::npos)
            << St.str();
        EXPECT_NE(St.message().find("reusable"), std::string::npos)
            << "containment note missing: " << St.str();
      }
      // The artifact must be reusable after the failure, and a clean
      // execution must be bitwise-identical to the uninjected run.
      Status Clean = CP.tryExecute(H.Regions, T, Opts);
      ASSERT_TRUE(Clean.ok()) << Clean.str();
      EXPECT_EQ(H.output(), Expected);
    }
  }
}

// Fractional injection rate over repeated executions of one artifact: every
// failed attempt is contained and the first clean attempt produces the
// reference bytes. DISTAL_FAULT_SEED varies the firing set in CI.
TEST(FaultTolerance, FractionalRateRepeatedExecutionsStayContained) {
  Harness H;
  CompiledPlan Ref(H.Prob.P);
  Ref.execute(H.Regions, optsFor(true));
  const std::vector<double> Expected = H.output();

  CompiledPlan CP(H.Prob.P);
  ExecOptions Opts = optsFor(true);
  int Failures = 0;
  {
    FaultInjector::Config C;
    C.Seed = envSeed();
    C.Rate = 0.05;
    C.SiteMask = FaultInjector::allSites();
    ScopedFaultInjection Inject(C);
    Trace T;
    for (int Attempt = 0; Attempt < 20; ++Attempt) {
      Status S = CP.tryExecute(H.Regions, T, Opts);
      if (!S.ok()) {
        ++Failures;
        EXPECT_EQ(S.code(), ErrorCode::Injected) << S.str();
      }
    }
  }
  // Disarmed: the artifact must run cleanly whatever the failure history.
  Trace T;
  Status S = CP.tryExecute(H.Regions, T, Opts);
  ASSERT_TRUE(S.ok()) << S.str() << " (after " << Failures << " failures)";
  EXPECT_EQ(H.output(), Expected);
}

// tryRun is one tryExecute: a contained failure comes back unretried. The
// n=128 leaf GEMMs run the packed kernel, whose bytes no other way of
// computing the leaf reproduces, so an OK result after a fault would have
// to carry the clean bytes. At 1 thread a transient fault (two injections)
// fails the one attempt, a persistent fault fails tryRun and makes run()
// throw, and disarmed, the same executor reproduces the clean bytes.
TEST(FaultTolerance, TryRunReturnsContainedFaultUnretried) {
  Harness H(128);
  Executor Ref(H.Prob.P);
  Ref.setNumThreads(1);
  Ref.run(H.Regions, TraceMode::Off);
  const std::vector<double> Expected = H.output();

  Executor E(H.Prob.P);
  E.setNumThreads(1);
  Trace T;
  Status S;
  {
    ScopedFaultInjection Inject(alwaysFire(Site::Leaf, /*MaxInjections=*/2));
    S = E.tryRun(H.Regions, T, TraceMode::Off);
  }
  EXPECT_EQ(S.code(), ErrorCode::Injected) << S.str();
  if (S.ok()) {
    EXPECT_EQ(H.output(), Expected) << "an OK result must carry clean bytes";
  }

  {
    ScopedFaultInjection Inject(alwaysFire(Site::Leaf));
    S = E.tryRun(H.Regions, T, TraceMode::Off);
    EXPECT_EQ(S.code(), ErrorCode::Injected) << S.str();
    EXPECT_DISTAL_ERROR(E.run(H.Regions, TraceMode::Off), "injected fault");
  }
  Status Clean = E.tryRun(H.Regions, T, TraceMode::Off);
  ASSERT_TRUE(Clean.ok()) << Clean.str();
  EXPECT_EQ(H.output(), Expected);
}

// Bad input comes back from tryRun's one attempt as InvalidArgument.
TEST(FaultTolerance, MissingRegionReturnsInvalidArgument) {
  Harness H;
  Executor E(H.Prob.P);
  std::map<TensorVar, Region *> Missing = H.Regions;
  Missing.erase(H.Prob.B);
  Trace T;
  Status S = E.tryRun(Missing, T, TraceMode::Off);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
}

// Structured propagation through the user-facing Tensor boundary: an
// injected execution failure comes back as a Status from tryEvaluate, and
// the next clean evaluate() produces the same bytes as a never-failed run.
TEST(FaultTolerance, TensorTryEvaluatePropagatesStatus) {
  Machine M = Machine::grid({2});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  Tensor A("A", {32}, V), B("B", {32}, V);
  B.fillRandom(11);
  IndexVar I("i"), Io("io"), Ii("ii");
  A(I) = B(I) + 1.0;
  A.schedule().distribute({I}, {Io}, {Ii}, M);

  Status S;
  {
    ScopedFaultInjection Inject(alwaysFire(Site::Gather));
    S = A.tryEvaluate(M);
  }
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Injected);
  ASSERT_TRUE(A.tryEvaluate(M).ok());
  for (Coord X = 0; X < 32; ++X)
    EXPECT_EQ(A.at(Point({X})), B.region()->at(Point({X})) + 1.0);
}

// The structured fan-out contract: a throw inside a chunk cancels the job,
// rethrows first-wins on the submitting thread, and leaves the pool usable.
TEST(FaultTolerance, ParallelForPropagatesFirstExceptionAndPoolSurvives) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(1000,
                                [](int64_t I) {
                                  if (I == 37)
                                    throw std::runtime_error("chunk 37 died");
                                }),
               std::runtime_error);
  // The pool must be fully usable after the failed job.
  std::atomic<int64_t> Sum{0};
  Pool.parallelFor(100, [&](int64_t I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 99 * 100 / 2);
}

// The detached-job contract: the ticket's wait() rethrows the captured
// exception exactly once (including when the waiter helps inline), and a
// destroyed un-waited ticket consumes the exception instead of terminating.
TEST(FaultTolerance, TicketCapturesAndRethrowsDetachedFailure) {
  ThreadPool Pool(4);
  ThreadPool::Ticket T = Pool.submitAsync(
      [] { throwError(ErrorCode::Internal, "detached job failed"); });
  EXPECT_DISTAL_ERROR(T.wait(), "detached job failed");
  T.wait(); // Consumed: a second wait returns cleanly.

  {
    // Dropping a failed ticket must not terminate (the destructor consumes
    // and logs the exception).
    ThreadPool::Ticket Dropped = Pool.submitAsync(
        [] { throwError(ErrorCode::Internal, "dropped ticket"); });
  }
  // Sequential pools run submitAsync inline; the throw happens at the
  // submission site, never from a destructor.
  ThreadPool Seq(1);
  EXPECT_DISTAL_ERROR(
      Seq.submitAsync([] { throwError(ErrorCode::Internal, "inline"); }),
      "inline");
}

// Disarmed hooks must not perturb results or arrivals: the injector is off
// by default and the steady-state suites run with it off.
TEST(FaultTolerance, DisarmedInjectorIsInert) {
  EXPECT_FALSE(FaultInjector::armed());
  Harness H;
  CompiledPlan CP(H.Prob.P);
  Trace T;
  ASSERT_TRUE(
      CP.tryExecute(H.Regions, T, optsFor(true)).ok());
}

// Strict DISTAL_FAULT_* parsing: every malformed value is ignored (the
// matching Config field keeps its default) and reported as one warning
// line naming the variable — a typo must not silently arm a different
// schedule than the matrix row intended. parseEnvConfig is pure, so this
// drives it directly without touching the environment.
TEST(FaultTolerance, ParseEnvConfigRejectsMalformedValues) {
  std::string W;
  FaultInjector::Config C = FaultInjector::parseEnvConfig(
      "0.5x", "-3", "gather,bogus", "12junk", "explode", "-5", &W);
  EXPECT_EQ(C.Rate, 0);
  EXPECT_EQ(C.Seed, 0u);
  EXPECT_EQ(C.SiteMask, FaultInjector::maskFor(Site::Gather))
      << "the known site must survive the unknown sibling";
  EXPECT_EQ(C.MaxInjections, -1);
  EXPECT_EQ(C.Act, FaultInjector::Action::Throw);
  EXPECT_EQ(C.DelayMicros, 1000);
  for (const char *Var :
       {"DISTAL_FAULT_RATE", "DISTAL_FAULT_SEED", "DISTAL_FAULT_SITES",
        "DISTAL_FAULT_MAX", "DISTAL_FAULT_ACTION", "DISTAL_FAULT_DELAY_US"})
    EXPECT_NE(W.find(Var), std::string::npos)
        << "no warning names " << Var << "; got:\n"
        << W;

  // Well-formed values parse with no warnings.
  W.clear();
  C = FaultInjector::parseEnvConfig("0.25", "42", "leaf", "7", "delay",
                                    "1500", &W);
  EXPECT_TRUE(W.empty()) << W;
  EXPECT_EQ(C.Rate, 0.25);
  EXPECT_EQ(C.Seed, 42u);
  EXPECT_EQ(C.SiteMask, FaultInjector::maskFor(Site::Leaf));
  EXPECT_EQ(C.MaxInjections, 7);
  EXPECT_EQ(C.Act, FaultInjector::Action::Delay);
  EXPECT_EQ(C.DelayMicros, 1500);

  // Empty strings are "unset", not malformed: GH Actions matrix rows pass
  // "" for the knobs a row does not use.
  W.clear();
  C = FaultInjector::parseEnvConfig("", "", "", "", "", "", &W);
  EXPECT_TRUE(W.empty()) << W;
  EXPECT_EQ(C.Rate, 0);
  EXPECT_EQ(C.SiteMask, FaultInjector::allSites());

  // Out-of-range rate is malformed too (probability, not a multiplier).
  W.clear();
  C = FaultInjector::parseEnvConfig("1.5", nullptr, nullptr, nullptr, nullptr,
                                    nullptr, &W);
  EXPECT_EQ(C.Rate, 0);
  EXPECT_NE(W.find("DISTAL_FAULT_RATE"), std::string::npos) << W;
}

// parseSites warns on every unknown name instead of silently shrinking
// the mask.
TEST(FaultTolerance, ParseSitesWarnsOnUnknownNames) {
  std::string W;
  uint32_t Mask =
      FaultInjector::parseSites("leaf,gahter,prefetch,writeback", &W);
  EXPECT_EQ(Mask, FaultInjector::maskFor(Site::Leaf) |
                      FaultInjector::maskFor(Site::Writeback));
  EXPECT_NE(W.find("unknown fault site 'gahter'"), std::string::npos) << W;
  EXPECT_NE(W.find("unknown fault site 'prefetch'"), std::string::npos)
      << "the retired prefetch site must warn: " << W;
  EXPECT_TRUE(FaultInjector::parseSites("all", &W) ==
              FaultInjector::allSites());
}

// The delay action: firing arrivals sleep instead of throwing, so an
// armed delay schedule stretches time but never corrupts — the execution
// succeeds and its bytes bitwise-match the uninjected reference. This is
// the substrate the deadline tests (CancelTest) and the CI delay sweep
// row stand on.
TEST(FaultTolerance, DelayActionStretchesTimeWithoutCorruption) {
  Harness H;
  CompiledPlan CP(H.Prob.P);
  CP.execute(H.Regions, optsFor(true));
  const std::vector<double> Expected = H.output();

  FaultInjector::Config C;
  C.Seed = envSeed();
  C.Rate = 1;
  C.SiteMask = FaultInjector::allSites();
  C.Act = FaultInjector::Action::Delay;
  C.DelayMicros = 200;
  int64_t Fired = 0;
  {
    ScopedFaultInjection Inject(C);
    Trace T;
    Status S = CP.tryExecute(H.Regions, T, optsFor(true));
    ASSERT_TRUE(S.ok()) << "delays must never fail an execution: " << S.str();
    Fired = FaultInjector::stats().totalInjected();
  }
  EXPECT_GT(Fired, 0) << "the schedule must actually have fired";
  EXPECT_EQ(H.output(), Expected) << "delays must not change any byte";
}
