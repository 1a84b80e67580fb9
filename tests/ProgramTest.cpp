//===- tests/ProgramTest.cpp - Whole-program linked execution --------------===//
//
// The program-level compile/execute split: an ordered statement chain links
// into one CompiledProgram whose tasks run as a single dependency graph.
// The headline contract is observational invisibility — program execution
// must produce output bytes bitwise-identical to running the statements one
// by one, at every thread count, every pinned task/leaf split, and with
// the residency linking enabled or disabled. On top of
// that: the link analysis's elision counts for a known misaligned chain,
// the PR-6 fault-containment contract (a mid-program injection leaves the
// artifact reusable), concurrent submissions sharing an input region (the
// TSan job exercises this), the program-side PlanCache (hit stats, and the
// regression that evicting a member CompiledPlan never invalidates a live
// CompiledProgram holding it), and the user-facing Program / Tensor
// surfaces.
//
//===----------------------------------------------------------------------===//

#include "api/Program.h"
#include "api/Tensor.h"
#include "lower/Lower.h"
#include "runtime/CompiledProgram.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "runtime/Region.h"
#include "support/FaultInjector.h"

#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "TestSupport.h"

using namespace distal;

namespace {

// This suite owns the injector configuration; start disarmed whatever the
// environment says, so the bitwise assertions compare clean runs.
class DisarmedBaseline : public ::testing::Environment {
public:
  void SetUp() override { FaultInjector::disarm(); }
};
const ::testing::Environment *const BaselineEnv =
    ::testing::AddGlobalTestEnvironment(new DisarmedBaseline);

/// One elementwise statement Dst(i) = Src(i) * Mul + Add, distributed into
/// \p Ways blocks over a 1-D machine.
Plan ewise(const TensorVar &Dst, const TensorVar &Src, double Mul, double Add,
           const Machine &M, std::map<TensorVar, Format> Formats,
           int Ways = 4) {
  IndexVar I("i"), Io("io"), Ii("ii");
  Assignment Stmt(Access(Dst, {I}), Access(Src, {I}) * Mul + Add);
  Schedule S(Stmt);
  S.distribute({I}, {Io}, {Ii}, std::vector<int>{Ways});
  return lower(S.takeNest(), M, std::move(Formats));
}

/// Dst(i) = A(i) + B(i), same distribution shape as ewise().
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

/// A three-statement chain with deliberately misaligned interior homes:
///
///   S0:  T(i) = X(i) * 2 + 1       T homed whole on processor 0
///   S1:  U(i) = T(i) * 3 + 0       U replicated on every processor
///   S2:  Y(i) = U(i) + T(i)        Y blocked (the final output)
///
/// Every statement computes block p of its output on processor p, so T's
/// interior gathers (blocks 1..3 are non-resident under T's home) are
/// exactly what the link analysis can prove same-processor covered, while
/// U's replicated home keeps its readers on the per-statement alias path —
/// the chain exercises tier A, tier B, direct deps, and barrier deps at
/// once, with counts small enough to assert exactly.
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

/// One client's region set for a chain, inputs filled identically so every
/// execution must produce identical bytes.
struct ChainRegions {
  std::vector<std::unique_ptr<Region>> Storage;
  std::map<TensorVar, Region *> Regions;

  explicit ChainRegions(const ChainProblem &C, uint64_t Seed = 7) {
    for (const TensorVar &T : {C.X, C.T, C.U, C.Y}) {
      Storage.push_back(
          std::make_unique<Region>(T, C.Plans[0].formatOf(T), C.M));
      Regions[T] = Storage.back().get();
    }
    Storage[0]->fillRandom(Seed);
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

/// Sequential statement-by-statement reference over \p R: each member runs
/// to completion (views off, one thread) before the next starts.
void runSequential(const ChainProblem &C, ChainRegions &R) {
  for (const Plan &P : C.Plans) {
    CompiledPlan CP(P);
    ExecOptions O;
    O.NumThreads = 1;
    O.Mode = TraceMode::Off;
    O.ZeroCopyViews = false;
    CP.execute(R.Regions, O);
  }
}

void expectSame(const std::vector<double> &A, const std::vector<double> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    // Bitwise, not approximate: linking must not change any rounding.
    ASSERT_EQ(A[I], B[I]) << "element " << I;
}

ExecOptions progOpts(int Threads) {
  ExecOptions O;
  O.NumThreads = Threads;
  O.Mode = TraceMode::Off;
  return O;
}

} // namespace

// The link analysis on the known chain: exact tier-A / tier-B / dependency
// counts. T's home pins the whole tensor to processor 0, so of each
// statement's four block-gathers of T, the three on processors 1..3 are
// non-resident per statement but covered by the producer's same-processor
// output — tier-A views. With every overlapping reader of S0 local and
// elided (the processor-0 reader rides the per-statement alias, which
// excludes that task from tier B), tasks 1..3 of S0 write T in place —
// tier-B writeback elision — and their consumers take direct task edges.
// U's replicated home keeps S1's writeback and routes S2's U-reads through
// the barrier (end-node) edge.
TEST(Program, LinkedChainElisionCounts) {
  ChainProblem C;
  std::shared_ptr<CompiledProgram> Prog = compileChain(C);
  ASSERT_EQ(Prog->size(), 3u);

  CompiledProgram::LinkStats L = Prog->linkStats();
  // T read twice (S1 and S2), three non-resident block gathers each.
  EXPECT_EQ(L.ElidedGathers, 6);
  EXPECT_EQ(L.ElidedGatherBytes, 6 * 8 * 8); // Six 8-element blocks.
  // S0's tasks 1..3 write T in place; processor 0's task stays on the
  // per-statement alias path and is not counted here.
  EXPECT_EQ(L.ElidedWritebackTasks, 3);
  EXPECT_EQ(L.ElidedWritebackBytes, 3 * 8 * 8);
  // Direct edges: S1 tasks 1..3 -> S0 tasks 1..3, S2 tasks 1..3 likewise.
  EXPECT_EQ(L.DirectDeps, 6);
  // Barrier edges: both processor-0 readers of T order on S0's writeback
  // node, and all four S2 tasks order on S1's (replicated U).
  EXPECT_EQ(L.BarrierDeps, 6);

  // The movement accounting shifts the linked bytes out of the moved
  // columns relative to the member sum.
  CompiledPlan::DataMovementStats Sum;
  for (size_t I = 0; I < Prog->size(); ++I) {
    CompiledPlan::DataMovementStats D = Prog->member(I).dataMovementStats();
    Sum.GatheredBytes += D.GatheredBytes;
    Sum.ElidedBytes += D.ElidedBytes;
    Sum.WritebackBytes += D.WritebackBytes;
    Sum.WritebackElidedBytes += D.WritebackElidedBytes;
  }
  CompiledPlan::DataMovementStats Linked = Prog->dataMovementStats();
  EXPECT_EQ(Linked.GatheredBytes, Sum.GatheredBytes - L.ElidedGatherBytes);
  EXPECT_EQ(Linked.ElidedBytes, Sum.ElidedBytes + L.ElidedGatherBytes);
  EXPECT_EQ(Linked.WritebackBytes,
            Sum.WritebackBytes - L.ElidedWritebackBytes);
  EXPECT_EQ(Linked.WritebackElidedBytes,
            Sum.WritebackElidedBytes + L.ElidedWritebackBytes);
  EXPECT_EQ(Linked.totalBytes(), Sum.totalBytes());
  EXPECT_LT(Linked.movedBytes(), Sum.movedBytes());

  // The trace stays the unlinked per-statement skeleton, concatenated.
  int64_t Phases = 0;
  for (size_t I = 0; I < Prog->size(); ++I)
    Phases += static_cast<int64_t>(Prog->member(I).trace().Phases.size());
  EXPECT_EQ(static_cast<int64_t>(Prog->trace().Phases.size()), Phases);
}

// The headline contract: program output is bitwise-identical to sequential
// statement-by-statement execution at every tested thread count, every
// pinned {1,2,8} x {1,4} task/leaf split, and with the residency linking
// on (views) and off (the barrier-graph reference).
TEST(Program, BitwiseIdenticalToSequentialAcrossSplits) {
  ChainProblem C;
  ChainRegions Ref(C);
  runSequential(C, Ref);
  const std::vector<double> ExpT = Ref.bytesOf(C.T), ExpU = Ref.bytesOf(C.U),
                            ExpY = Ref.bytesOf(C.Y);

  std::shared_ptr<CompiledProgram> Prog = compileChain(C);
  auto check = [&](const ExecOptions &O, const std::string &What) {
    SCOPED_TRACE(What);
    ChainRegions R(C);
    // Every output starts as NaN: a member whose region-wide zero the
    // engine skips as dead (S0 and S2 with views on) must overwrite every
    // element, or the NaN survives.
    for (const TensorVar &T : {C.T, C.U, C.Y})
      R.Regions.at(T)->fill(
          [](const Point &) { return std::numeric_limits<double>::quiet_NaN(); });
    Prog->execute(R.Regions, O);
    expectSame(ExpT, R.bytesOf(C.T));
    expectSame(ExpU, R.bytesOf(C.U));
    expectSame(ExpY, R.bytesOf(C.Y));
  };

  for (bool Views : {true, false}) {
    const std::string Tag = Views ? "views" : "copies";
    for (int Threads : {1, 2, 8}) {
      ExecOptions O = progOpts(Threads);
      O.ZeroCopyViews = Views;
      check(O, Tag + ", threads " + std::to_string(Threads));
    }
    for (int TaskWays : {1, 2, 8})
      for (int LeafWays : {1, 4}) {
        ExecOptions O = progOpts(TaskWays * LeafWays);
        O.ZeroCopyViews = Views;
        O.ForceTaskWays = TaskWays;
        O.ForceLeafWays = LeafWays;
        check(O, Tag + ", split " + std::to_string(TaskWays) + "x" +
                     std::to_string(LeafWays));
      }
  }

  // Steady state: repeated executions reuse pooled program arenas.
  CompiledPlan::ArenaStats S = Prog->arenaStats();
  EXPECT_GT(S.Reused, 0);
  EXPECT_EQ(S.Discarded, 0);
}

// Executor::runProgram, the raw-plan front end, matches the same reference.
TEST(Program, ExecutorRunProgramMatchesSequential) {
  ChainProblem C;
  ChainRegions Ref(C);
  runSequential(C, Ref);

  ChainRegions R(C);
  std::vector<const Plan *> Plans;
  for (const Plan &P : C.Plans)
    Plans.push_back(&P);
  Executor::runProgram(Plans, R.Regions, progOpts(4));
  expectSame(Ref.bytesOf(C.Y), R.bytesOf(C.Y));
}

// Construction and execution reject bad input with structured errors.
TEST(Program, ValidationErrors) {
  EXPECT_DISTAL_ERROR(CompiledProgram({}), "at least one");

  // Members lowered for different machines cannot link.
  Machine M2 = Machine::grid({2}), M4 = Machine::grid({4});
  TensorVar A{"A", {16}}, B{"B", {16}}, D{"D", {16}};
  Plan P1 = ewise(B, A, 2.0, 0.0, M2, {{A, vec("x->x")}, {B, vec("x->x")}}, 2);
  Plan P2 = ewise(D, B, 2.0, 0.0, M4, {{B, vec("x->x")}, {D, vec("x->x")}}, 4);
  EXPECT_DISTAL_ERROR(Executor::runProgram({&P1, &P2}, {}), "machine");
  // Machines that differ only in their flat node grouping differ too (their
  // printed forms agree).
  Machine MNodes = Machine::gridWithNodeSize({4}, ProcessorKind::CPUSocket, 2);
  Plan P3 = ewise(D, B, 2.0, 0.0, MNodes, {{B, vec("x->x")}, {D, vec("x->x")}},
                  4);
  Plan P4 = ewise(B, A, 2.0, 0.0, M4, {{A, vec("x->x")}, {B, vec("x->x")}}, 4);
  ASSERT_EQ(P3.M.str(), P4.M.str());
  EXPECT_DISTAL_ERROR(Executor::runProgram({&P4, &P3}, {}), "machine");

  // A missing region fails the execution up front (contained, reusable).
  ChainProblem C;
  std::shared_ptr<CompiledProgram> Prog = compileChain(C);
  ChainRegions R(C);
  std::map<TensorVar, Region *> Missing = R.Regions;
  Missing.erase(C.U);
  Status S = Prog->tryExecute(Missing, progOpts(2));
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  EXPECT_TRUE(Prog->tryExecute(R.Regions, progOpts(2)).ok());

  // So does a region of another shape than its tensor: the compiled view
  // offsets and strides assume the tensor's shape.
  TensorVar Short{"U", {16}};
  Region Misshapen(Short, vec("x->*"), C.M);
  std::map<TensorVar, Region *> Wrong = R.Regions;
  Wrong[C.U] = &Misshapen;
  S = Prog->tryExecute(Wrong, progOpts(2));
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(S.message().find("shape"), std::string::npos) << S.str();
  EXPECT_TRUE(Prog->tryExecute(R.Regions, progOpts(2)).ok());
}

// PR-6 contract at program scope: an injected mid-program fault (at each
// of the per-statement sites) comes back as a contained Injected Status,
// the failed arena is discarded — never recycled — and a disarmed rerun of
// the same artifact reproduces the reference bytes.
TEST(Program, MidProgramFaultLeavesArtifactReusable) {
  ChainProblem C;
  ChainRegions Ref(C);
  runSequential(C, Ref);
  const std::vector<double> ExpY = Ref.bytesOf(C.Y);

  std::shared_ptr<CompiledProgram> Prog = compileChain(C);
  int64_t Discarded = 0;
  for (FaultInjector::Site Site :
       {FaultInjector::Site::Gather, FaultInjector::Site::Leaf,
        FaultInjector::Site::Writeback}) {
    SCOPED_TRACE(FaultInjector::siteName(Site));
    ChainRegions R(C);
    // With views on, this chain's writebacks are fully elided (statement
    // aliasing plus tier B), so the Writeback site would never arm; the
    // copy path keeps every merge live.
    ExecOptions O = progOpts(4);
    O.ZeroCopyViews = Site != FaultInjector::Site::Writeback;
    Status S;
    {
      FaultInjector::Config Cfg;
      Cfg.Rate = 1;
      Cfg.SiteMask = FaultInjector::maskFor(Site);
      Cfg.MaxInjections = 1;
      ScopedFaultInjection Inject(Cfg);
      S = Prog->tryExecute(R.Regions, O);
    }
    EXPECT_EQ(S.code(), ErrorCode::Injected) << S.str();
    EXPECT_NE(S.message().find("reusable"), std::string::npos) << S.str();
    EXPECT_EQ(Prog->arenaStats().Discarded, ++Discarded);

    // Disarmed rerun of the very same artifact over the same regions.
    ASSERT_TRUE(Prog->tryExecute(R.Regions, progOpts(4)).ok());
    expectSame(ExpY, R.bytesOf(C.Y));
  }
}

// Concurrent submissions of two programs sharing an *input* region: safe
// by contract (inputs are only read). Runs under the TSan job, where any
// race between the two DAG walks — or between their pooled arenas — would
// surface. Results must match the sequential reference on both sides.
TEST(Program, ConcurrentSubmitsSharingInputAreSafe) {
  ChainProblem C;
  ChainRegions Ref(C);
  runSequential(C, Ref);
  const std::vector<double> ExpY = Ref.bytesOf(C.Y);

  std::shared_ptr<CompiledProgram> ProgA = compileChain(C);
  std::shared_ptr<CompiledProgram> ProgB = compileChain(C);
  for (int Round = 0; Round < 4; ++Round) {
    ChainRegions RA(C), RB(C);
    // Both programs read the SAME X region; interiors/outputs stay private.
    RB.Regions[C.X] = RA.Regions.at(C.X);
    ExecFuture FA = ProgA->submit(RA.Regions, progOpts(2));
    ExecFuture FB = ProgB->submit(RB.Regions, progOpts(2));
    ASSERT_TRUE(FA.valid() && FB.valid());
    EXPECT_TRUE(FB.wait().ok()) << FB.wait().str();
    EXPECT_TRUE(FA.wait().ok()) << FA.wait().str();
    EXPECT_TRUE(FA.done() && FB.done());
    expectSame(ExpY, RA.bytesOf(C.Y));
    expectSame(ExpY, RB.bytesOf(C.Y));
  }
}

// The user-facing surfaces: Program::evaluate and Tensor::evaluateProgram
// produce the same values as evaluating each tensor in sequence, and the
// async form anchors artifact + regions until completion.
TEST(Program, TensorProgramMatchesPerStatementEvaluate) {
  PlanCache::global().clear();
  Machine M = Machine::grid({4});
  Tensor X("X", {32}, vec("x->x")), T("T", {32}, vec("x->0")),
      Y("Y", {32}, vec("x->x"));
  X.fillRandom(23);
  IndexVar I("i"), Io("io"), Ii("ii");
  T(I) = Expr(X(I)) * Expr(2.0);
  T.schedule().distribute({I}, {Io}, {Ii}, M);
  IndexVar J("j"), Jo("jo"), Ji("ji");
  Y(J) = Expr(T(J)) + Expr(1.0);
  Y.schedule().distribute({J}, {Jo}, {Ji}, M);

  Program P;
  P.add(T).add(Y);
  EXPECT_EQ(P.size(), 2u);
  P.evaluate(M);
  for (Coord Pt = 0; Pt < 32; ++Pt) {
    // Two-step expected values (no FMA contraction; see below).
    double Tv = X.region()->at(Point({Pt})) * 2.0;
    EXPECT_EQ(T.at(Point({Pt})), Tv);
    double Yv = Tv + 1.0;
    EXPECT_EQ(Y.at(Point({Pt})), Yv);
  }

  // The linked artifact saw real elision on this chain.
  std::shared_ptr<CompiledProgram> Prog = P.compile(M);
  EXPECT_GT(Prog->linkStats().ElidedGathers, 0);
  EXPECT_GT(Prog->linkStats().DirectDeps, 0);

  // Async: the future outlives the call and latches OK.
  ExecFuture F = P.evaluateAsync(M);
  ASSERT_TRUE(F.valid());
  EXPECT_TRUE(F.wait().ok()) << F.wait().str();

  // The static convenience front end.
  X.fillRandom(29);
  Tensor::evaluateProgram({&T, &Y}, M);
  for (Coord Pt = 0; Pt < 32; ++Pt) {
    double Tv = X.region()->at(Point({Pt})) * 2.0;
    EXPECT_EQ(Y.at(Point({Pt})), Tv + 1.0);
  }

  EXPECT_DISTAL_ERROR(Program().evaluate(M), "no statements");
}

// The program-side PlanCache: repeat compiles hit, and — the regression
// this PR fixes — evicting a member CompiledPlan's cache entry must not
// invalidate a live CompiledProgram, because the program co-owns its
// members. The held artifact keeps executing after a full cache clear.
TEST(Program, CacheHitsAndMemberEvictionRegression) {
  PlanCache::global().clear();
  Machine M = Machine::grid({4});
  Tensor X("X", {32}, vec("x->x")), T("T", {32}, vec("x->0")),
      Y("Y", {32}, vec("x->x"));
  X.fillRandom(31);
  IndexVar I("i"), Io("io"), Ii("ii");
  T(I) = Expr(X(I)) * Expr(3.0);
  T.schedule().distribute({I}, {Io}, {Ii}, M);
  IndexVar J("j"), Jo("jo"), Ji("ji");
  Y(J) = Expr(T(J)) + Expr(2.0);
  Y.schedule().distribute({J}, {Jo}, {Ji}, M);

  Program P;
  P.add(T).add(Y);
  // Counters are process-cumulative; assert deltas.
  const PlanCache::Stats Base = PlanCache::global().stats();
  std::shared_ptr<CompiledProgram> Prog = P.compile(M);
  PlanCache::Stats S = PlanCache::global().stats();
  EXPECT_EQ(S.ProgramMisses, Base.ProgramMisses + 1);
  EXPECT_EQ(S.ProgramHits, Base.ProgramHits);
  EXPECT_EQ(PlanCache::global().programSize(), 1u);
  EXPECT_EQ(P.compile(M).get(), Prog.get()) << "repeat compile must hit";
  EXPECT_EQ(PlanCache::global().stats().ProgramHits, Base.ProgramHits + 1);

  // Materialise regions once so the artifact can be driven directly.
  P.evaluate(M);
  std::map<TensorVar, Region *> Regions = {{X.var(), X.region()},
                                           {T.var(), T.region()},
                                           {Y.var(), Y.region()}};

  // Evict EVERYTHING — member plans and the program entry. The held
  // shared_ptr is now the only owner; the members must stay alive through
  // the program's co-ownership and the artifact must keep executing.
  PlanCache::global().clear();
  EXPECT_EQ(PlanCache::global().programSize(), 0u);
  EXPECT_EQ(PlanCache::global().size(), 0u);
  EXPECT_TRUE(Prog->tryExecute(Regions, progOpts(2)).ok());
  for (Coord Pt = 0; Pt < 32; ++Pt) {
    // Two-step expected value: separate statements keep the compiler from
    // contracting the mul+add into an FMA the engine never performs.
    double Tv = X.region()->at(Point({Pt})) * 3.0;
    EXPECT_EQ(T.at(Point({Pt})), Tv);
    double Yv = Tv + 2.0;
    EXPECT_EQ(Y.at(Point({Pt})), Yv);
  }

  // A fresh compile after the clear is a miss that rebuilds the entry.
  std::shared_ptr<CompiledProgram> Fresh = P.compile(M);
  EXPECT_NE(Fresh.get(), Prog.get());
  EXPECT_EQ(PlanCache::global().stats().ProgramMisses, Base.ProgramMisses + 2);

  // The bounded program LRU honours its (minimum 1) capacity.
  PlanCache::global().setProgramCapacity(1);
  EXPECT_LE(PlanCache::global().programSize(), 1u);
  PlanCache::global().setProgramCapacity(16);
}
