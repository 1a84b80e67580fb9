//===- tests/OverloadTest.cpp - Memory governor and overload behavior -----===//
//
// The resource-governance contract under overload: every significant
// allocation (Region storage, arena instance buffers, PlanCache
// artifacts) is charged against the process-wide ResourceGovernor budget,
// and the three pressure responses degrade service instead of dying in
// std::bad_alloc — soft pressure stops caching idle arenas and shrinks
// the PlanCache LRUs to their floors (output bytes untouched), hard pressure
// sheds queued unclaimed requests newest-first with ResourceExhausted and
// a machine-readable retry-after hint (running executions are never
// touched), and the per-artifact circuit breaker fails fast with
// FailedPrecondition after K consecutive non-user-error failures, with a
// deterministic rejected-submissions cooldown before a half-open canary.
//
// Also covers charge/release exactness across success, failure, and
// cancellation, the strict DISTAL_MEM_*/DISTAL_BREAKER_* env parsing
// (driven through the pure parsers, no environment mutation), and the
// disarmed-governor zero-behavior-change guarantee.
//
// Runs under the TSan CI job (DISTAL_NUM_THREADS=8): the breaker state
// machine and the shed path are hammered by concurrent submitters here.
//
//===----------------------------------------------------------------------===//

#include "algorithms/Matmul.h"
#include "runtime/CompiledProgram.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "runtime/Region.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"

#include <atomic>
#include <chrono>
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

// This suite owns both the injector and the governor configuration; start
// disarmed whatever the environment says, so the bitwise assertions
// compare clean runs and the accounting assertions start from zero.
class DisarmedBaseline : public ::testing::Environment {
public:
  void SetUp() override {
    FaultInjector::disarm();
    ResourceGovernor::disarm();
  }
};
const ::testing::Environment *const BaselineEnv =
    ::testing::AddGlobalTestEnvironment(new DisarmedBaseline);

/// RAII governor configuration: installs \p C and restores the previous
/// configuration (usually disarmed) on destruction. Accounted usage
/// survives both configures by the governor's contract.
class ScopedGovernor {
public:
  explicit ScopedGovernor(const ResourceGovernor::Config &C)
      : Prev(ResourceGovernor::current()) {
    ResourceGovernor::configure(C);
  }
  ~ScopedGovernor() { ResourceGovernor::configure(Prev); }
  ScopedGovernor(const ScopedGovernor &) = delete;
  ScopedGovernor &operator=(const ScopedGovernor &) = delete;

private:
  ResourceGovernor::Config Prev;
};

/// A tiny budget with the soft watermark pinned at zero and the hard one
/// unreachable: any accounted usage at all reads Pressure::Soft.
ResourceGovernor::Config softPinned() {
  ResourceGovernor::Config C;
  C.BudgetBytes = 1;
  C.SoftFraction = 0.0;
  C.HardFraction = 1e15;
  return C;
}

/// Both watermarks pinned at zero: any accounted usage reads
/// Pressure::Hard.
ResourceGovernor::Config hardPinned() {
  ResourceGovernor::Config C;
  C.BudgetBytes = 1;
  C.SoftFraction = 0.0;
  C.HardFraction = 0.0;
  return C;
}

/// A budget far above anything the tests allocate: armed accounting with
/// Pressure::None throughout.
ResourceGovernor::Config observeOnly() {
  ResourceGovernor::Config C;
  C.BudgetBytes = int64_t(1) << 40;
  return C;
}

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

FaultInjector::Config alwaysFail(FaultInjector::Site S) {
  FaultInjector::Config C;
  C.Rate = 1;
  C.SiteMask = FaultInjector::maskFor(S);
  return C;
}

} // namespace

// ---- Strict env parsing (satellite 1) -------------------------------------

// The pure DISTAL_MEM_* parser: defaults on unset, strict rejection with
// one warning line per malformed value, empty string = plain unset, and
// the hard watermark never below the soft one.
TEST(Overload, GovernorEnvParsingStrict) {
  std::string W;
  ResourceGovernor::Config C =
      ResourceGovernor::parseEnvConfig(nullptr, nullptr, nullptr, &W);
  EXPECT_EQ(C.BudgetBytes, 0);
  EXPECT_DOUBLE_EQ(C.SoftFraction, 0.75);
  EXPECT_DOUBLE_EQ(C.HardFraction, 0.90);
  EXPECT_TRUE(W.empty()) << W;

  C = ResourceGovernor::parseEnvConfig("1048576", "0.5", "0.8", &W);
  EXPECT_EQ(C.BudgetBytes, 1048576);
  EXPECT_DOUBLE_EQ(C.SoftFraction, 0.5);
  EXPECT_DOUBLE_EQ(C.HardFraction, 0.8);
  EXPECT_TRUE(W.empty()) << W;

  // Empty strings are unset, not malformed: no warning.
  C = ResourceGovernor::parseEnvConfig("", "", "", &W);
  EXPECT_EQ(C.BudgetBytes, 0);
  EXPECT_TRUE(W.empty()) << W;

  // Malformed values fall back to the default and warn by name.
  W.clear();
  C = ResourceGovernor::parseEnvConfig("lots", nullptr, nullptr, &W);
  EXPECT_EQ(C.BudgetBytes, 0);
  EXPECT_NE(W.find("DISTAL_MEM_BUDGET"), std::string::npos) << W;

  W.clear();
  C = ResourceGovernor::parseEnvConfig("-5", nullptr, nullptr, &W);
  EXPECT_EQ(C.BudgetBytes, 0) << "signed budgets are rejected";
  EXPECT_NE(W.find("DISTAL_MEM_BUDGET"), std::string::npos) << W;

  W.clear();
  C = ResourceGovernor::parseEnvConfig("100", "1.5", "nope", &W);
  EXPECT_EQ(C.BudgetBytes, 100);
  EXPECT_DOUBLE_EQ(C.SoftFraction, 0.75) << "out-of-range fraction = unset";
  EXPECT_DOUBLE_EQ(C.HardFraction, 0.90);
  EXPECT_NE(W.find("DISTAL_MEM_SOFT"), std::string::npos) << W;
  EXPECT_NE(W.find("DISTAL_MEM_HARD"), std::string::npos) << W;

  // A hard watermark below the soft one warns and is raised to it.
  W.clear();
  C = ResourceGovernor::parseEnvConfig("100", "0.9", "0.5", &W);
  EXPECT_DOUBLE_EQ(C.SoftFraction, 0.9);
  EXPECT_DOUBLE_EQ(C.HardFraction, 0.9);
  EXPECT_NE(W.find("DISTAL_MEM_HARD"), std::string::npos) << W;
}

// The pure DISTAL_BREAKER_* parser under the same strict contract.
TEST(Overload, BreakerEnvParsingStrict) {
  std::string W;
  ResourceGovernor::BreakerConfig B =
      ResourceGovernor::parseBreakerEnvConfig(nullptr, nullptr, &W);
  EXPECT_EQ(B.Failures, 5);
  EXPECT_EQ(B.CooldownRejections, 8);
  EXPECT_TRUE(W.empty()) << W;

  B = ResourceGovernor::parseBreakerEnvConfig("3", "2", &W);
  EXPECT_EQ(B.Failures, 3);
  EXPECT_EQ(B.CooldownRejections, 2);
  EXPECT_TRUE(W.empty()) << W;

  // 0 failures is a valid setting (breaker disabled), not malformed.
  B = ResourceGovernor::parseBreakerEnvConfig("0", "0", &W);
  EXPECT_EQ(B.Failures, 0);
  EXPECT_EQ(B.CooldownRejections, 0);
  EXPECT_TRUE(W.empty()) << W;

  W.clear();
  B = ResourceGovernor::parseBreakerEnvConfig("often", "-1", &W);
  EXPECT_EQ(B.Failures, 5);
  EXPECT_EQ(B.CooldownRejections, 8);
  EXPECT_NE(W.find("DISTAL_BREAKER_FAILURES"), std::string::npos) << W;
  EXPECT_NE(W.find("DISTAL_BREAKER_COOLDOWN"), std::string::npos) << W;

  W.clear();
  B = ResourceGovernor::parseBreakerEnvConfig("2000000", nullptr, &W);
  EXPECT_EQ(B.Failures, 5) << "absurd thresholds are rejected, not clamped";
  EXPECT_NE(W.find("DISTAL_BREAKER_FAILURES"), std::string::npos) << W;
}

// The backpressure hint round-trips: the note a shed Status carries is
// readable by parseRetryAfterMs, deterministic (pure arithmetic over the
// counters), and clamped to [1, 100] ms. Absent hints read as -1.
TEST(Overload, RetryAfterHintRoundTrips) {
  ScopedGovernor Gov(hardPinned());
  ResourceGovernor::Charge C;
  C.add(4096); // Well over the (zero) hard watermark.
  int64_t Hint = ResourceGovernor::retryAfterHintMs();
  EXPECT_GE(Hint, 1);
  EXPECT_LE(Hint, 100);
  EXPECT_EQ(ResourceGovernor::parseRetryAfterMs(
                "memory budget exceeded (" +
                ResourceGovernor::retryAfterNote() + ")"),
            Hint);
  EXPECT_EQ(ResourceGovernor::parseRetryAfterMs("queue is full"), -1);
  EXPECT_EQ(ResourceGovernor::parseRetryAfterMs(""), -1);
}

// ---- Accounting ------------------------------------------------------------

// Disarmed governor = zero behavior change: nothing is accounted, no
// pressure response fires, no Status note appears, and the bytes match a
// plain run (trivially — it IS a plain run; the assertion is that none of
// the new hooks left a trace).
TEST(Overload, DisarmedGovernorZeroBehaviorChange) {
  ASSERT_FALSE(ResourceGovernor::armed());
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  ClientRegions Set(Prob);
  ExecFuture F = CP.submit(Set.Regions, fastOpts(2),
                           AdmissionQueue::Dispatch::Deferred);
  const Status &S = F.wait();
  EXPECT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(Set.output(Prob.A), Expected);

  ResourceGovernor::Stats G = ResourceGovernor::stats();
  EXPECT_EQ(G.BudgetBytes, 0);
  EXPECT_EQ(G.UsedBytes, 0) << "disarmed charges must not be accounted";
  EXPECT_EQ(G.ShedRequests, 0);
  EXPECT_EQ(G.CacheShrinks, 0);
  EXPECT_EQ(G.ArenaCacheBypasses, 0);
  // The arena pool still caches normally.
  EXPECT_EQ(CP.arenaStats().Cached, 1);
}

// Charge/release exactness: across successful, injected-failure, and
// cancelled executions — plus artifact and region teardown — accounted
// usage returns exactly to its baseline. No leak, no double-release.
TEST(Overload, ChargeReleaseExactnessAcrossOutcomes) {
  ScopedGovernor Gov(observeOnly());
  ASSERT_TRUE(ResourceGovernor::armed());
  const int64_t Base = ResourceGovernor::usedBytes();
  {
    MatmulProblem Prob = makeCannon();
    CompiledPlan CP(Prob.P);
    ClientRegions Set(Prob);
    EXPECT_GT(ResourceGovernor::usedBytes(), Base)
        << "Region backing storage must be accounted";

    // Success: the pooled arena's instance buffers join the ledger.
    CP.execute(Set.Regions, fastOpts(2));
    EXPECT_GT(ResourceGovernor::stats().PeakUsedBytes,
              ResourceGovernor::usedBytes() - 1)
        << "peak tracks the high-water mark";

    // Injected failure: the discarded arena releases its charge.
    {
      FaultInjector::Config C = alwaysFail(FaultInjector::Site::Gather);
      C.MaxInjections = 1;
      ScopedFaultInjection Inject(C);
      Trace T;
      EXPECT_EQ(CP.tryExecute(Set.Regions, T, fastOpts(2)).code(),
                ErrorCode::Injected);
    }

    // Cancelled before the claim: no execution, no residue.
    {
      ExecOptions O = fastOpts(2);
      O.Cancel = CancelToken::create();
      ExecFuture F = CP.submit(Set.Regions, O,
                               AdmissionQueue::Dispatch::Deferred);
      O.Cancel.cancel();
      EXPECT_EQ(F.wait().code(), ErrorCode::Cancelled) << F.wait().str();
    }

    // A clean rerun still works and still balances.
    CP.execute(Set.Regions, fastOpts(2));
  }
  EXPECT_EQ(ResourceGovernor::usedBytes(), Base)
      << "teardown must release exactly what was charged";
}

// ---- Graceful degradation (soft watermark) ---------------------------------

// Soft pressure degrades service, never bytes: the arena pool stops
// caching idle arenas and the PlanCache LRUs shrink to their floors, both
// counted in the governor stats, while the admitted execution runs
// unchanged and is bitwise-identical to the unpressured run.
TEST(Overload, SoftPressureDegradesBitwiseIdentical) {
  MatmulProblem Prob = makeCannon(32);
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);
  PlanCache Cache;
  auto Cached = std::make_shared<CompiledPlan>(Prob.P);
  for (size_t I = 0; I < PlanCache::PlanFloor + 2; ++I)
    Cache.put("plan" + std::to_string(I), Cached);

  ScopedGovernor Gov(softPinned());
  ClientRegions Set(Prob); // Charged: usage > 0, so Pressure::Soft.
  ASSERT_EQ(ResourceGovernor::pressure(), ResourceGovernor::Pressure::Soft);

  ExecFuture F = CP.submit(Set.Regions, fastOpts(2),
                           AdmissionQueue::Dispatch::Deferred);
  const Status &S = F.wait();
  EXPECT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(Set.output(Prob.A), Expected)
      << "degraded service must stay bitwise-identical";
  EXPECT_NE(Cache.find("plan0"), nullptr); // Touch: triggers the shrink.
  EXPECT_EQ(Cache.size(), PlanCache::PlanFloor);

  ResourceGovernor::Stats G = ResourceGovernor::stats();
  EXPECT_EQ(G.ShedRequests, 0) << "soft pressure never sheds";
  EXPECT_GE(G.ArenaCacheBypasses, 1)
      << "idle arenas are freed, not cached, under pressure";
  EXPECT_EQ(CP.arenaStats().Cached, 0);
  EXPECT_EQ(G.CacheShrinks, 2) << "the plan LRU shrinks to its floor";
}

// Under pressure both PlanCache LRUs shrink to their floors (artifacts
// are recompilable — the cheapest memory to give back), the forced
// evictions are counted, and a disarmed governor leaves the cache alone.
TEST(Overload, PlanCacheShrinksToFloorUnderPressure) {
  MatmulProblem Prob = makeCannon();
  auto CP = std::make_shared<CompiledPlan>(Prob.P);
  auto CProg = std::make_shared<CompiledProgram>(
      std::vector<std::shared_ptr<CompiledPlan>>{CP});

  PlanCache Cache;
  for (int I = 0; I < 8; ++I)
    Cache.put("plan" + std::to_string(I), CP);
  for (int I = 0; I < 4; ++I)
    Cache.putProgram("prog" + std::to_string(I), CProg);
  ASSERT_EQ(Cache.size(), 8u);
  ASSERT_EQ(Cache.programSize(), 4u);

  {
    ScopedGovernor Gov(softPinned());
    ResourceGovernor::Charge C;
    C.add(1024); // Usage > 0: Pressure::Soft.
    ASSERT_NE(ResourceGovernor::pressure(), ResourceGovernor::Pressure::None);
    EXPECT_NE(Cache.find("plan7"), nullptr); // Touch: triggers the shrink.
    EXPECT_EQ(Cache.size(), PlanCache::PlanFloor);
    EXPECT_EQ(Cache.programSize(), PlanCache::ProgramFloor);
    ResourceGovernor::Stats G = ResourceGovernor::stats();
    EXPECT_EQ(G.CacheShrinks,
              int64_t(8 - PlanCache::PlanFloor) +
                  int64_t(4 - PlanCache::ProgramFloor));
  }

  // Disarmed again: the survivors stay, lookups stop shrinking.
  EXPECT_NE(Cache.find("plan7"), nullptr);
  EXPECT_EQ(Cache.size(), PlanCache::PlanFloor);
  for (int I = 0; I < 4; ++I)
    Cache.put("refill" + std::to_string(I), CP);
  EXPECT_EQ(Cache.size(), PlanCache::PlanFloor + 4);
}

// ---- Load shedding (hard watermark) ----------------------------------------

// Hard pressure sheds queued *unclaimed* requests newest-first with
// ResourceExhausted and the retry-after hint, and rejects the triggering
// submission the same way — but a claimed, running execution is never
// touched and completes with correct bytes.
TEST(Overload, HardPressureShedsQueuedNeverClaimed) {
  MatmulProblem Prob = makeCannon(32);
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  CP.admission().setMaxConcurrent(1);
  ClientRegions Set(Prob), SetB(Prob);

  // Slow the claimed execution down deterministically (delay, not throw)
  // so it is still running when the shed fires.
  FaultInjector::Config Slow = alwaysFail(FaultInjector::Site::Leaf);
  Slow.Act = FaultInjector::Action::Delay;
  Slow.DelayMicros = 2000;
  ScopedFaultInjection Inject(Slow);

  ExecFuture F1 = CP.submit(Set.Regions, fastOpts(2),
                            AdmissionQueue::Dispatch::Deferred);
  std::thread Runner([&] { F1.wait(); }); // Claims F1 and runs it slowly.
  // Wait until the claimed execution is really inside the leaf walk.
  while (FaultInjector::stats()
             .Arrivals[size_t(FaultInjector::Site::Leaf)] == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Two more requests queue behind the busy lane (MaxConcurrent = 1);
  // both are admitted but unclaimed.
  ExecOptions Traced = fastOpts(2);
  Traced.Mode = TraceMode::Full;
  ExecFuture F2 = CP.submit(Set.Regions, Traced,
                            AdmissionQueue::Dispatch::Deferred);
  ExecFuture F3 = CP.submit(SetB.Regions, fastOpts(2),
                            AdmissionQueue::Dispatch::Deferred);
  ASSERT_EQ(CP.admission().stats().Queued, 2);

  // Cross the hard watermark, then submit once more: the queued requests
  // are shed (newest-first), the new submission is refused the same way,
  // and every shed Status carries a parseable retry-after hint.
  Status S2, S3, S4;
  {
    ScopedGovernor Gov(hardPinned());
    ResourceGovernor::Charge C;
    C.add(1024);
    ASSERT_EQ(ResourceGovernor::pressure(), ResourceGovernor::Pressure::Hard);
    ExecFuture F4 = CP.submit(SetB.Regions, fastOpts(2),
                              AdmissionQueue::Dispatch::Deferred);
    EXPECT_TRUE(F4.done()) << "shed must resolve immediately";
    EXPECT_TRUE(F2.done() && F3.done());
    S2 = F2.wait();
    S3 = F3.wait();
    S4 = F4.wait();
    EXPECT_EQ(CP.admission().stats().Shed, 3);
    EXPECT_EQ(ResourceGovernor::stats().ShedRequests, 3);
  }
  for (const Status *S : {&S2, &S3, &S4}) {
    EXPECT_EQ(S->code(), ErrorCode::ResourceExhausted) << S->str();
    EXPECT_GE(ResourceGovernor::parseRetryAfterMs(S->message()), 1)
        << "shed status must carry the retry-after hint: " << S->str();
  }

  // The claimed execution was never shed: it completes cleanly with the
  // reference bytes.
  Runner.join();
  EXPECT_TRUE(F1.wait().ok()) << F1.wait().str();
  EXPECT_EQ(Set.output(Prob.A), Expected);
  EXPECT_EQ(CP.admission().stats().Rejected, 0)
      << "shed is its own counter, not Rejected";
}

// ---- Circuit breaker -------------------------------------------------------

// The full state machine: K consecutive failures open the breaker, the
// open breaker rejects exactly Cooldown submissions with
// FailedPrecondition, the next submission is admitted as the half-open
// canary, and a canary success closes it again.
TEST(Overload, BreakerOpensHalfOpensCloses) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);
  CP.admission().setBreaker(/*Failures=*/2, /*CooldownRejections=*/3);

  {
    ScopedFaultInjection Inject(alwaysFail(FaultInjector::Site::Gather));
    for (int I = 0; I < 2; ++I) {
      ExecFuture F = CP.submit(Set.Regions, fastOpts(2),
                               AdmissionQueue::Dispatch::Deferred);
      EXPECT_EQ(F.wait().code(), ErrorCode::Injected) << F.wait().str();
    }
  }
  // Open: exactly Cooldown fast rejections.
  for (int I = 0; I < 3; ++I) {
    ExecFuture F = CP.submit(Set.Regions, fastOpts(2),
                             AdmissionQueue::Dispatch::Deferred);
    EXPECT_TRUE(F.done()) << "breaker rejection must resolve immediately";
    EXPECT_EQ(F.wait().code(), ErrorCode::FailedPrecondition)
        << F.wait().str();
  }
  EXPECT_EQ(CP.admission().stats().BreakerOpen, 3);

  // Cooldown spent: the next submission is the canary — admitted, and
  // (injector disarmed) its success closes the breaker.
  ExecFuture Canary = CP.submit(Set.Regions, fastOpts(2),
                                AdmissionQueue::Dispatch::Deferred);
  EXPECT_FALSE(Canary.done()) << "the canary is admitted, not rejected";
  EXPECT_TRUE(Canary.wait().ok()) << Canary.wait().str();

  ExecFuture After = CP.submit(Set.Regions, fastOpts(2),
                               AdmissionQueue::Dispatch::Deferred);
  EXPECT_TRUE(After.wait().ok()) << After.wait().str();
  EXPECT_EQ(CP.admission().stats().BreakerOpen, 3)
      << "a closed breaker rejects nothing";
}

// A canary failure re-opens the breaker with a fresh cooldown.
TEST(Overload, BreakerCanaryFailureReopens) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);
  CP.admission().setBreaker(/*Failures=*/1, /*CooldownRejections=*/1);

  {
    ScopedFaultInjection Inject(alwaysFail(FaultInjector::Site::Gather));
    ExecFuture F1 = CP.submit(Set.Regions, fastOpts(2),
                              AdmissionQueue::Dispatch::Deferred);
    EXPECT_EQ(F1.wait().code(), ErrorCode::Injected); // Opens (K = 1).

    ExecFuture F2 = CP.submit(Set.Regions, fastOpts(2),
                              AdmissionQueue::Dispatch::Deferred);
    EXPECT_EQ(F2.wait().code(), ErrorCode::FailedPrecondition); // Cooldown.

    ExecFuture F3 = CP.submit(Set.Regions, fastOpts(2),
                              AdmissionQueue::Dispatch::Deferred);
    EXPECT_EQ(F3.wait().code(), ErrorCode::Injected)
        << "canary admitted, fails"; // Re-opens with a fresh cooldown.

    ExecFuture F4 = CP.submit(Set.Regions, fastOpts(2),
                              AdmissionQueue::Dispatch::Deferred);
    EXPECT_EQ(F4.wait().code(), ErrorCode::FailedPrecondition)
        << "re-opened breaker cools down again";
  }
  // Injector gone: the next canary succeeds and the artifact recovers.
  ExecFuture F5 = CP.submit(Set.Regions, fastOpts(2),
                            AdmissionQueue::Dispatch::Deferred);
  EXPECT_TRUE(F5.wait().ok()) << F5.wait().str();
  ExecFuture F6 = CP.submit(Set.Regions, fastOpts(2),
                            AdmissionQueue::Dispatch::Deferred);
  EXPECT_TRUE(F6.wait().ok()) << F6.wait().str();
  EXPECT_EQ(CP.admission().stats().BreakerOpen, 2);
}

// User-initiated outcomes are breaker-neutral: a cancellation is not an
// artifact failure, so even at K = 1 it must not open the breaker.
TEST(Overload, BreakerCancellationIsNeutral) {
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Set(Prob);
  CP.admission().setBreaker(/*Failures=*/1, /*CooldownRejections=*/1);

  for (int I = 0; I < 3; ++I) {
    ExecOptions O = fastOpts(2);
    O.Cancel = CancelToken::create();
    ExecFuture F = CP.submit(Set.Regions, O,
                             AdmissionQueue::Dispatch::Deferred);
    O.Cancel.cancel();
    EXPECT_EQ(F.wait().code(), ErrorCode::Cancelled) << F.wait().str();
  }
  // Still closed: a clean submission is admitted and succeeds.
  ExecFuture F = CP.submit(Set.Regions, fastOpts(2),
                           AdmissionQueue::Dispatch::Deferred);
  EXPECT_TRUE(F.wait().ok()) << F.wait().str();
  EXPECT_EQ(CP.admission().stats().BreakerOpen, 0);
}

// The breaker under concurrent submitters (8 threads, TSan-checked):
// every outcome is either the injected failure or the breaker's fast
// FailedPrecondition — never a crash, a hang, or a stray code — and the
// artifact recovers deterministically once the fault clears.
TEST(Overload, BreakerConcurrentSubmitters) {
  const int Clients = 8, Rounds = 6;
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  CP.admission().setBreaker(/*Failures=*/3, /*CooldownRejections=*/4);

  std::vector<std::unique_ptr<ClientRegions>> Sets;
  for (int I = 0; I < Clients; ++I)
    Sets.push_back(std::make_unique<ClientRegions>(Prob));

  std::atomic<int> Injected{0}, BreakerFast{0}, Other{0};
  {
    ScopedFaultInjection Inject(alwaysFail(FaultInjector::Site::Gather));
    StartGate Gate(Clients);
    std::vector<std::thread> Threads;
    for (int I = 0; I < Clients; ++I)
      Threads.emplace_back([&, I] {
        Gate.arriveAndWait();
        for (int R = 0; R < Rounds; ++R) {
          ExecFuture F = CP.submit(Sets[I]->Regions, fastOpts(2),
                                   AdmissionQueue::Dispatch::Deferred);
          switch (F.wait().code()) {
          case ErrorCode::Injected:
            ++Injected;
            break;
          case ErrorCode::FailedPrecondition:
            ++BreakerFast;
            break;
          default:
            ++Other;
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(Other.load(), 0);
  EXPECT_GE(Injected.load(), 3) << "at least K failures before the trip";
  EXPECT_GE(BreakerFast.load(), 1) << "the breaker must have tripped";
  EXPECT_EQ(Injected.load() + BreakerFast.load(), Clients * Rounds);

  // Recovery: rejected submissions drain the cooldown, then one canary
  // closes the breaker. Bounded by cooldown + a small margin.
  bool Recovered = false;
  for (int I = 0; I < 16 && !Recovered; ++I) {
    ExecFuture F = CP.submit(Sets[0]->Regions, fastOpts(2),
                             AdmissionQueue::Dispatch::Deferred);
    const Status &S = F.wait();
    if (S.ok())
      Recovered = true;
    else
      EXPECT_EQ(S.code(), ErrorCode::FailedPrecondition) << S.str();
  }
  EXPECT_TRUE(Recovered);
}

// ---- Stats plumbing (satellite 2) ------------------------------------------

// PlanCache::admissionStats aggregates the Shed and BreakerOpen counters
// across cached artifacts, plan and program entries alike.
TEST(Overload, AdmissionStatsAggregateIncludesShedAndBreaker) {
  MatmulProblem Prob = makeCannon();
  auto CP = std::make_shared<CompiledPlan>(Prob.P);
  auto Prog = std::make_shared<CompiledProgram>(
      std::vector<std::shared_ptr<CompiledPlan>>{CP});
  ClientRegions Set(Prob);

  // One shed and one breaker rejection on each artifact.
  auto exercise = [&](auto &Artifact) {
    {
      ScopedGovernor Gov(hardPinned());
      ResourceGovernor::Charge C;
      C.add(1024);
      ExecFuture F = Artifact.submit(Set.Regions, fastOpts(2),
                                     AdmissionQueue::Dispatch::Deferred);
      EXPECT_EQ(F.wait().code(), ErrorCode::ResourceExhausted);
    }
    Artifact.admission().setBreaker(/*Failures=*/1,
                                    /*CooldownRejections=*/4);
    {
      ScopedFaultInjection Inject(alwaysFail(FaultInjector::Site::Gather));
      ExecFuture F = Artifact.submit(Set.Regions, fastOpts(2),
                                     AdmissionQueue::Dispatch::Deferred);
      EXPECT_EQ(F.wait().code(), ErrorCode::Injected);
    }
    ExecFuture F = Artifact.submit(Set.Regions, fastOpts(2),
                                   AdmissionQueue::Dispatch::Deferred);
    EXPECT_EQ(F.wait().code(), ErrorCode::FailedPrecondition);
  };
  exercise(*CP);
  exercise(*Prog);

  PlanCache Cache;
  Cache.put("artifact", CP);
  AdmissionQueue::Stats Agg = Cache.admissionStats();
  EXPECT_EQ(Agg.Shed, 1);
  EXPECT_EQ(Agg.BreakerOpen, 1);
  EXPECT_GE(Agg.Admitted, 1);
  Cache.putProgram("program", Prog);
  Agg = Cache.admissionStats();
  EXPECT_EQ(Agg.Shed, 2);
  EXPECT_EQ(Agg.BreakerOpen, 2);
  EXPECT_GE(Agg.Admitted, 2);
}

// ---- The soak (acceptance shape) -------------------------------------------

// 64 clients across four governor phases — disarmed, soft, hard, disarmed
// again. Every completed execution is bitwise-correct, every shed one
// carries ResourceExhausted with the retry-after hint, nothing crashes or
// hangs, and after the pressure clears the engine serves clean runs again.
TEST(Overload, SoakManyClientsUnderPressure) {
  const int PhaseClients = 16;
  MatmulProblem Prob = makeCannon();
  CompiledPlan CP(Prob.P);
  ClientRegions Ref(Prob);
  CP.execute(Ref.Regions, fastOpts(1));
  const std::vector<double> Expected = Ref.output(Prob.A);

  // Runs one phase of concurrent clients; returns the statuses.
  auto RunPhase = [&]() {
    std::vector<std::unique_ptr<ClientRegions>> Sets;
    for (int I = 0; I < PhaseClients; ++I)
      Sets.push_back(std::make_unique<ClientRegions>(Prob));
    std::vector<Status> Results(PhaseClients);
    StartGate Gate(PhaseClients);
    std::vector<std::thread> Threads;
    for (int I = 0; I < PhaseClients; ++I)
      Threads.emplace_back([&, I] {
        Gate.arriveAndWait();
        ExecFuture F = CP.submit(Sets[I]->Regions, fastOpts(2),
                                 AdmissionQueue::Dispatch::Deferred);
        Results[I] = F.wait();
      });
    for (std::thread &T : Threads)
      T.join();
    // Completed executions must be bitwise-correct even under pressure.
    for (int I = 0; I < PhaseClients; ++I)
      if (Results[I].ok())
        EXPECT_EQ(Sets[I]->output(Prob.A), Expected) << "client " << I;
    return Results;
  };

  // Phase 1 — disarmed: everything succeeds.
  for (const Status &S : RunPhase())
    EXPECT_TRUE(S.ok()) << S.str();

  // Phase 2 — soft pressure: everything still succeeds, and no finished
  // execution's arena is cached.
  {
    ScopedGovernor Gov(softPinned());
    ClientRegions Pressure(Prob); // Accounted usage: Pressure::Soft.
    for (const Status &S : RunPhase())
      EXPECT_TRUE(S.ok()) << S.str();
    EXPECT_GE(ResourceGovernor::stats().ArenaCacheBypasses, PhaseClients);
  }

  // Phase 3 — hard pressure: the excess is shed, never crashed.
  {
    ScopedGovernor Gov(hardPinned());
    ClientRegions Pressure(Prob);
    int Shed = 0;
    for (const Status &S : RunPhase())
      if (!S.ok()) {
        EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted) << S.str();
        EXPECT_GE(ResourceGovernor::parseRetryAfterMs(S.message()), 1)
            << S.str();
        ++Shed;
      }
    EXPECT_GT(Shed, 0);
    EXPECT_GE(ResourceGovernor::stats().ShedRequests, Shed);
  }

  // Phase 4 — disarmed again: full service resumes, artifact intact.
  for (const Status &S : RunPhase())
    EXPECT_TRUE(S.ok()) << S.str();
  AdmissionQueue::Stats S = CP.admission().stats();
  EXPECT_GT(S.Shed, 0);
  EXPECT_GE(S.Admitted, 3 * PhaseClients);
}
