//===- tests/PlanCacheTest.cpp - Compile-once / execute-many ----*- C++ -*-===//
//
// The compile/execute split and the process-wide plan cache: cache keying
// across statement / schedule / format / machine / thread-split changes,
// explicit invalidation and the evaluateUncached escape hatch, steady-state
// trace elision, instance-buffer reuse across executions, and — the load-
// bearing property — bitwise-identical results between cached and freshly
// compiled execution at every tested thread count and task/leaf split.
//
//===----------------------------------------------------------------------===//

#include "algorithms/HigherOrder.h"
#include "algorithms/Matmul.h"
#include "api/Tensor.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "runtime/Region.h"

#include <gtest/gtest.h>

using namespace distal;
using namespace distal::algorithms;

namespace {

Format tiles() {
  return Format({ModeKind::Dense, ModeKind::Dense},
                TensorDistribution::parse("xy->xy"));
}

/// A summa-style GEMM schedule over fresh index variables on \p A.
void scheduleSumma(Tensor &A, Tensor &B, Tensor &C, const Machine &M,
                   Coord KChunk = 8) {
  IndexVar I("i"), J("j"), K("k");
  A(I, J) = B(I, K) * C(K, J);
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji"), Ko("ko"), Ki("ki");
  A.schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, M)
      .split(K, Ko, Ki, KChunk)
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .communicate(A, Jo)
      .communicate({B, C}, Ko)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
}

/// Executes \p Prob's plan over freshly filled regions; returns the output
/// region's raw values in row-major order.
std::vector<double> runOnce(CompiledPlan &CP,
                            const std::vector<TensorVar> &Tensors,
                            const ExecOptions &Opts) {
  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (size_t I = 0; I < Tensors.size(); ++I) {
    const TensorVar &T = Tensors[I];
    Storage.push_back(
        std::make_unique<Region>(T, CP.plan().formatOf(T), CP.plan().M));
    if (I > 0)
      Storage.back()->fillRandom(17 * I + 3);
    Regions[T] = Storage.back().get();
  }
  CP.execute(Regions, Opts);
  std::vector<double> Out;
  const TensorVar &OutV = Tensors[0];
  Rect::forExtents(OutV.shape()).forEachPoint(
      [&](const Point &P) { Out.push_back(Regions[OutV]->at(P)); });
  return Out;
}

} // namespace

TEST(PlanCache, RepeatedEvaluateHitsAndSharesArtifact) {
  Machine M = Machine::grid({2, 2});
  Tensor A("A", {16, 16}, tiles()), B("B", {16, 16}, tiles()),
      C("C", {16, 16}, tiles());
  B.fillRandom(5);
  C.fillRandom(7);
  scheduleSumma(A, B, C, M);

  PlanCache::Stats Before = PlanCache::global().stats();
  std::shared_ptr<CompiledPlan> First = A.compile(M);
  std::shared_ptr<CompiledPlan> Second = A.compile(M);
  EXPECT_EQ(First.get(), Second.get()) << "second compile must hit the cache";
  PlanCache::Stats After = PlanCache::global().stats();
  EXPECT_EQ(After.Misses, Before.Misses + 1);
  EXPECT_GE(After.Hits, Before.Hits + 1);

  // Steady-state evaluations reuse the artifact and the backing region.
  A.evaluate(M);
  const Region *RegFirst = A.region();
  std::vector<double> Run1;
  Rect::forExtents({16, 16}).forEachPoint(
      [&](const Point &P) { Run1.push_back(A.at(P)); });
  A.evaluate(M);
  EXPECT_EQ(A.region(), RegFirst)
      << "repeated evaluate must reuse the backing Region allocation";
  Rect::forExtents({16, 16}).forEachPoint([&](const Point &P) {
    ASSERT_EQ(A.at(P), Run1[static_cast<size_t>(P[0]) * 16 + P[1]]);
  });

  // The escape hatch bypasses the cache but computes identical bits.
  size_t SizeBefore = PlanCache::global().size();
  Trace T = A.evaluateUncached(M);
  EXPECT_EQ(PlanCache::global().size(), SizeBefore);
  EXPECT_GT(T.totalFlops(), 0);
  Rect::forExtents({16, 16}).forEachPoint([&](const Point &P) {
    ASSERT_EQ(A.at(P), Run1[static_cast<size_t>(P[0]) * 16 + P[1]]);
  });
}

TEST(PlanCache, KeyingSeparatesWhatCompilationDependsOn) {
  Machine M22 = Machine::grid({2, 2}), M41 = Machine::grid({4, 1});
  Tensor A("A", {16, 16}, tiles()), B("B", {16, 16}, tiles()),
      C("C", {16, 16}, tiles());
  scheduleSumma(A, B, C, M22);
  std::string Base = A.planKey(M22);

  // Rebuilding the identical schedule from fresh IndexVars keys equal
  // (canonical renaming): the steady-state path survives re-recording the
  // statement, as an iterative driver would.
  scheduleSumma(A, B, C, M22);
  EXPECT_EQ(A.planKey(M22), Base);

  // A different machine, a different schedule parameter, and a different
  // statement all change the key.
  EXPECT_NE(A.planKey(M41), Base);
  scheduleSumma(A, B, C, M22, /*KChunk=*/4);
  EXPECT_NE(A.planKey(M22), Base);
  scheduleSumma(A, B, C, M22);
  {
    IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
    A(I, J) = B(I, K) * C(K, J) + B(I, K) * C(K, J);
    A.schedule().distribute({I, J}, {Io, Jo}, {Ii, Ji}, M22);
    EXPECT_NE(A.planKey(M22), Base);
  }

  // A recreated tensor of the same name/shape/format keys differently
  // (identity participates): a stale artifact can never serve new tensors.
  {
    Tensor B2("B", {16, 16}, tiles());
    IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji"),
        Ko("ko"), Ki("ki");
    A(I, J) = B2(I, K) * C(K, J);
    A.schedule()
        .distribute({I, J}, {Io, Jo}, {Ii, Ji}, M22)
        .split(K, Ko, Ki, 8)
        .reorder({Io, Jo, Ko, Ii, Ji, Ki})
        .communicate(A, Jo)
        .communicate({B2, C}, Ko)
        .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
    EXPECT_NE(A.planKey(M22), Base);
  }

  // Literals key at full precision: constants differing beyond the
  // default 6-digit ostream precision must not collide (the tape bakes
  // the constant into the artifact).
  {
    Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
    Machine M4 = Machine::grid({4});
    Tensor P("P", {16}, V), Q("Q", {16}, V);
    IndexVar I("i"), Io("io"), Ii("ii");
    P(I) = Expr(Q(I)) * Expr(1.0000001);
    P.schedule().distribute({I}, {Io}, {Ii}, M4);
    std::string K1 = P.planKey(M4);
    P(I) = Expr(Q(I)) * Expr(1.0000002);
    P.schedule().distribute({I}, {Io}, {Ii}, M4);
    EXPECT_NE(P.planKey(M4), K1);
  }

  // Flat node grouping keys even though Machine::str() omits it: the
  // artifact bakes node-dependent SameNode flags and relay choices.
  {
    Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
    Machine MFlat = Machine::grid({4});
    Machine MNodes =
        Machine::gridWithNodeSize({4}, ProcessorKind::CPUSocket, 2);
    Tensor P("P", {16}, V), Q("Q", {16}, V);
    IndexVar I("i"), Io("io"), Ii("ii");
    P(I) = Expr(Q(I)) * Expr(2.0);
    P.schedule().distribute({I}, {Io}, {Ii}, MFlat);
    EXPECT_NE(P.planKey(MFlat), P.planKey(MNodes));
    // The compile memo compares machines structurally too: compiling for
    // the grouped machine right after the flat one must not hand back the
    // flat machine's artifact.
    EXPECT_EQ(P.compile(MFlat)->plan().M.numNodes(), 4);
    EXPECT_EQ(P.compile(MNodes)->plan().M.numNodes(), 2);
    EXPECT_NE(MFlat, MNodes);
    EXPECT_EQ(MNodes,
              Machine::gridWithNodeSize({4}, ProcessorKind::CPUSocket, 2));
  }

  // A format change (different distribution) changes the key.
  {
    Tensor D("D", {16, 16},
             Format({ModeKind::Dense, ModeKind::Dense},
                    TensorDistribution::parse("xy->x*"))),
        E("E", {16, 16}, tiles()), F("F", {16, 16}, tiles());
    IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
    D(I, J) = E(I, K) * F(K, J);
    D.schedule().distribute({I, J}, {Io, Jo}, {Ii, Ji}, M22);
    std::string RowKey = D.planKey(M22);
    Tensor D2("D", {16, 16}, tiles());
    D2(I, J) = E(I, K) * F(K, J);
    D2.schedule().distribute({I, J}, {Io, Jo}, {Ii, Ji}, M22);
    EXPECT_NE(D2.planKey(M22), RowKey);
  }
}

TEST(PlanCache, ExplicitInvalidationForcesRecompile) {
  Machine M = Machine::grid({2, 2});
  Tensor A("A", {16, 16}, tiles()), B("B", {16, 16}, tiles()),
      C("C", {16, 16}, tiles());
  scheduleSumma(A, B, C, M);
  std::shared_ptr<CompiledPlan> First = A.compile(M);
  ASSERT_TRUE(PlanCache::global().invalidate(A.planKey(M)));
  EXPECT_FALSE(PlanCache::global().invalidate(A.planKey(M)));
  std::shared_ptr<CompiledPlan> Second = A.compile(M);
  EXPECT_NE(First.get(), Second.get())
      << "invalidation must force a fresh compilation";
  // The evicted artifact stays valid for holders (shared ownership).
  EXPECT_GT(First->trace().totalFlops(), 0);
}

TEST(PlanCache, SteadyStatePathSkipsTraceButMatchesSkeleton) {
  MatmulOptions Opts;
  Opts.N = 24;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  Executor Exec(Prob.P);
  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (const TensorVar &T : {Prob.A, Prob.B, Prob.C}) {
    Storage.push_back(std::make_unique<Region>(T, Prob.P.formatOf(T), Prob.P.M));
    Regions[T] = Storage.back().get();
  }
  Regions[Prob.B]->fillRandom(3);
  Regions[Prob.C]->fillRandom(4);
  Trace Full = Exec.run(Regions);
  Trace Sim = Exec.simulate();
  EXPECT_EQ(Full.totalFlops(), Sim.totalFlops());
  EXPECT_EQ(Full.totalMessages(), Sim.totalMessages());
  EXPECT_EQ(Full.Phases.size(), Sim.Phases.size());
  Trace Off = Exec.run(Regions, TraceMode::Off);
  EXPECT_TRUE(Off.Phases.empty()) << "TraceMode::Off must skip the trace";
  EXPECT_EQ(Off.NumProcs, Sim.NumProcs);
}

TEST(PlanCache, CachedExecutionBitwiseMatchesFreshAtEveryThreadCount) {
  MatmulOptions Opts;
  Opts.N = 24;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  std::vector<TensorVar> Tensors = {Prob.A, Prob.B, Prob.C};

  // One persistent artifact, executed many times (buffer reuse) under
  // different thread counts; each compared against a freshly compiled
  // artifact at the same configuration. Thread configuration must not
  // change the key, the artifact, or a single output bit.
  CompiledPlan Cached(Prob.P);
  ExecOptions Seq;
  Seq.NumThreads = 1;
  std::vector<double> Reference = runOnce(Cached, Tensors, Seq);
  for (int Threads : {1, 2, 8}) {
    ExecOptions O;
    O.NumThreads = Threads;
    std::vector<double> Steady = runOnce(Cached, Tensors, O);
    CompiledPlan Fresh(Prob.P);
    std::vector<double> FreshOut = runOnce(Fresh, Tensors, O);
    ASSERT_EQ(Steady.size(), FreshOut.size());
    for (size_t I = 0; I < Steady.size(); ++I) {
      ASSERT_EQ(Steady[I], Reference[I])
          << "threads=" << Threads << " element " << I;
      ASSERT_EQ(Steady[I], FreshOut[I])
          << "threads=" << Threads << " element " << I;
    }
    EXPECT_EQ(PlanCache::keyFor(Prob.P), PlanCache::keyFor(Fresh.plan()))
        << "thread configuration must not enter the cache key";
  }
  // Pinned task/leaf splits over the same artifact.
  for (auto [TaskWays, LeafWays] : {std::pair<int, int>{2, 4}, {8, 1}, {1, 4}}) {
    ExecOptions O;
    O.NumThreads = TaskWays * LeafWays;
    O.ForceTaskWays = TaskWays;
    O.ForceLeafWays = LeafWays;
    std::vector<double> Steady = runOnce(Cached, Tensors, O);
    for (size_t I = 0; I < Steady.size(); ++I)
      ASSERT_EQ(Steady[I], Reference[I])
          << TaskWays << "x" << LeafWays << " element " << I;
  }
}

TEST(PlanCache, GeneralLeafCachedExecutionMatchesFresh) {
  HigherOrderOptions Opts;
  Opts.Dim = 12;
  Opts.Rank = 6;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
  CompiledPlan Cached(Prob.P);
  ExecOptions Seq;
  Seq.NumThreads = 1;
  std::vector<double> Reference = runOnce(Cached, Prob.Tensors, Seq);
  for (int Threads : {2, 8}) {
    ExecOptions O;
    O.NumThreads = Threads;
    std::vector<double> Steady = runOnce(Cached, Prob.Tensors, O);
    CompiledPlan Fresh(Prob.P);
    std::vector<double> FreshOut = runOnce(Fresh, Prob.Tensors, O);
    for (size_t I = 0; I < Steady.size(); ++I) {
      ASSERT_EQ(Steady[I], Reference[I]) << "element " << I;
      ASSERT_EQ(Steady[I], FreshOut[I]) << "element " << I;
    }
  }
}

TEST(PlanCache, MachineChangePreservesComputedOperandData) {
  Machine M1 = Machine::grid({2}), M2 = Machine::grid({4});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  Tensor A("A", {8}, V), B("B", {8}, V), C("C", {8}, V);
  C.fill([](const Point &P) { return static_cast<double>(P[0] + 1); });
  IndexVar I("i"), Io("io"), Ii("ii");
  B(I) = Expr(C(I)) * Expr(3.0);
  B.schedule().distribute({I}, {Io}, {Ii}, M1);
  B.evaluate(M1); // B = 3*(i+1): computed data, no pending fill.
  IndexVar J("j"), Jo("jo"), Ji("ji");
  A(J) = Expr(B(J)) * Expr(2.0);
  A.schedule().distribute({J}, {Jo}, {Ji}, M2);
  // Evaluating on a different machine rebuilds B's backing Region for the
  // new distribution; the values computed on M1 must survive the move.
  A.evaluate(M2);
  for (Coord X = 0; X < 8; ++X)
    EXPECT_DOUBLE_EQ(A.at(Point({X})), 6.0 * static_cast<double>(X + 1));
}

TEST(PlanCache, LruEvictionIsBounded) {
  PlanCache Cache;
  Cache.setCapacity(2);
  Machine M = Machine::grid({2});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  std::vector<std::string> Keys;
  std::vector<std::unique_ptr<Tensor>> Hold;
  for (int N = 0; N < 3; ++N) {
    auto A = std::make_unique<Tensor>("A" + std::to_string(N),
                                      std::vector<Coord>{8}, V);
    auto B = std::make_unique<Tensor>("B" + std::to_string(N),
                                      std::vector<Coord>{8}, V);
    IndexVar I("i"), Io("io"), Ii("ii");
    (*A)(I) = Expr((*B)(I)) * Expr(2.0);
    A->schedule().distribute({I}, {Io}, {Ii}, M);
    Plan P = A->lower(M);
    std::string Key = PlanCache::keyFor(P);
    Cache.put(Key, std::make_shared<CompiledPlan>(std::move(P)));
    Keys.push_back(Key);
    Hold.push_back(std::move(A));
    Hold.push_back(std::move(B));
  }
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.find(Keys[0]), nullptr) << "oldest entry must be evicted";
  EXPECT_NE(Cache.find(Keys[1]), nullptr);
  EXPECT_NE(Cache.find(Keys[2]), nullptr);
}
