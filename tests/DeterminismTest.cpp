//===- tests/DeterminismTest.cpp - Parallel == sequential ------*- C++ -*-===//
//
// The parallel execution engine must be observationally identical to the
// sequential walk: traces (messages, work, peak memory) and output data are
// required to be *bitwise* equal at every thread count AND at every
// task/leaf thread split of the ExecContext. At one thread the walk is
// task-major (one task finishes all its steps before the next starts);
// with more threads the per-task step chains interleave freely. Runs a
// rotated Cannon plan (systolic relays, GEMM leaves), chunked SUMMA (many
// home-fed broadcast steps), a tall-skinny Cannon (home-fed and relayed
// operands), a placement collapsing every task onto one processor, an
// MTTKRP plan (general affine leaves, reduction writeback), and a
// single-task plan (all threads handed to the leaf as nested sub-range
// jobs), TTM and MTTKRP leaves routed through the packed GEMM, diffing
// everything across the (task-ways x leaf-ways) grid. Also
// covers the launch-phase zero-skip for overwrite-proven leaves, over a
// table of non-product statements whose compiled leaves (block-at-a-time
// tape, or per point where the statement needs it) must match the seed's
// per-point interpreter (distal_seed) byte for byte.
//
//===----------------------------------------------------------------------===//

#include "algorithms/HigherOrder.h"
#include "algorithms/Matmul.h"
#include "lower/Lower.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"

#include <limits>

#include <gtest/gtest.h>

#include "Seed.h"

using namespace distal;
using namespace distal::algorithms;

namespace {

void expectTracesIdentical(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.Phases.size(), B.Phases.size());
  EXPECT_EQ(A.NumProcs, B.NumProcs);
  for (size_t I = 0; I < A.Phases.size(); ++I) {
    const Phase &PA = A.Phases[I], &PB = B.Phases[I];
    EXPECT_EQ(PA.Label, PB.Label);
    ASSERT_EQ(PA.Messages.size(), PB.Messages.size()) << "phase " << PA.Label;
    for (size_t M = 0; M < PA.Messages.size(); ++M) {
      const Message &MA = PA.Messages[M], &MB = PB.Messages[M];
      EXPECT_EQ(MA.Src, MB.Src);
      EXPECT_EQ(MA.Dst, MB.Dst);
      EXPECT_EQ(MA.Bytes, MB.Bytes);
      EXPECT_EQ(MA.SameNode, MB.SameNode);
      EXPECT_EQ(MA.Reduction, MB.Reduction);
      EXPECT_EQ(MA.Tensor, MB.Tensor);
    }
    ASSERT_EQ(PA.Work.size(), PB.Work.size()) << "phase " << PA.Label;
    for (const auto &[Proc, WA] : PA.Work) {
      ASSERT_TRUE(PB.Work.count(Proc));
      const ProcWork &WB = PB.Work.at(Proc);
      EXPECT_EQ(WA.Flops, WB.Flops);
      EXPECT_EQ(WA.LeafBytes, WB.LeafBytes);
    }
  }
  EXPECT_EQ(A.PeakMemBytes, B.PeakMemBytes);
}

/// Runs \p Plan's executor over freshly filled regions at the given thread
/// count; returns the trace and (through \p OutData) the raw output bytes.
struct RunResult {
  Trace T;
  std::vector<double> OutData;
};

/// TaskWays == 0 runs with setNumThreads(Threads) (adaptive split);
/// otherwise the split is pinned to TaskWays x LeafWays.
RunResult runAt(const Plan &P, const Mapper &Map,
                const std::vector<TensorVar> &Tensors, int Threads,
                int TaskWays = 0, int LeafWays = 0) {
  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (size_t I = 0; I < Tensors.size(); ++I) {
    const TensorVar &T = Tensors[I];
    Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
    if (I > 0)
      Storage.back()->fillRandom(29 * I + 11);
    Regions[T] = Storage.back().get();
  }
  Executor Exec(P, Map);
  if (TaskWays > 0)
    Exec.setThreadSplit(TaskWays, LeafWays);
  else
    Exec.setNumThreads(Threads);
  RunResult R;
  R.T = Exec.run(Regions);
  const TensorVar &Out = Tensors[0];
  Rect::forExtents(Out.shape()).forEachPoint(
      [&](const Point &P) { R.OutData.push_back(Regions[Out]->at(P)); });
  return R;
}

void expectSameData(const RunResult &Seq, const RunResult &Par) {
  ASSERT_EQ(Seq.OutData.size(), Par.OutData.size());
  for (size_t I = 0; I < Seq.OutData.size(); ++I)
    // Bitwise, not approximate: the parallel engine must not reassociate.
    ASSERT_EQ(Seq.OutData[I], Par.OutData[I]) << "element " << I;
}

template <typename Problem>
void expectDeterministic(const Problem &Prob,
                         const std::vector<TensorVar> &Tensors) {
  RunResult Seq = runAt(Prob.P, defaultMapper(), Tensors, 1);
  RunResult Par = runAt(Prob.P, defaultMapper(), Tensors, 8);
  expectTracesIdentical(Seq.T, Par.T);
  expectSameData(Seq, Par);
}

/// Sweeps the pinned (task-ways x leaf-ways) grid against the sequential
/// run: every nested configuration must match bitwise.
void expectDeterministicAcrossSplits(const Plan &P,
                                     const std::vector<TensorVar> &Tensors,
                                     const Mapper &Map = defaultMapper()) {
  RunResult Seq = runAt(P, Map, Tensors, 1);
  for (int TaskWays : {1, 2, 8})
    for (int LeafWays : {1, 4}) {
      SCOPED_TRACE("task ways " + std::to_string(TaskWays) + ", leaf ways " +
                   std::to_string(LeafWays));
      RunResult R = runAt(P, Map, Tensors, 0, TaskWays, LeafWays);
      expectTracesIdentical(Seq.T, R.T);
      expectSameData(Seq, R);
    }
}

/// The gather-heavy rotated-Cannon shape: A(n, r) = B(n, n) * C(n, r) on a
/// g x 1 grid, K rotated systolically — B's shifts are home-fed per task,
/// C's relay between neighbour tasks.
Plan tallSkinnyCannon(Coord N, Coord R, int G, TensorVar &A, TensorVar &B,
                      TensorVar &C) {
  Machine M = Machine::grid({G, 1});
  A = TensorVar("A", {N, R});
  B = TensorVar("B", {N, N});
  C = TensorVar("C", {N, R});
  IndexVar I("i"), J("j"), K("k");
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji"), Ko("ko"), Ki("ki"),
      Kos("kos");
  Assignment Stmt(Access(A, {I, J}), Access(B, {I, K}) * Access(C, {K, J}));
  auto Fmt = [&](const std::string &Spec) {
    return Format({ModeKind::Dense, ModeKind::Dense},
                  TensorDistribution::parse(Spec));
  };
  std::map<TensorVar, Format> Formats = {
      {A, Fmt("xy->xy")}, {B, Fmt("xy->xy")}, {C, Fmt("xy->xy")}};
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{G, 1})
      .divide(K, Ko, Ki, G)
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .rotate(Ko, {Io, Jo}, Kos)
      .communicate(A, Jo)
      .communicate({B, C}, Kos)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
  return lower(S.takeNest(), M, std::move(Formats));
}

/// Mapper collapsing every task onto processor 0: several tasks share one
/// processor, so every relay source and alias proof sees a crowded
/// placement.
struct CollapseMapper : Mapper {
  Point placeTask(const Point &, const Rect &, const Machine &M) const
      override {
    return M.delinearize(0);
  }
};

/// One statement of the leaf table in ZeroSkipOverwriteLeaves.
struct LeafCase {
  std::string Name;
  Plan P;
  std::vector<TensorVar> Tensors; ///< Output first.
  int64_t ZeroSkipTasks;          ///< Expected CompiledPlan::zeroSkipTaskCount.
};

/// A dense format with one mode per tensor dimension named in \p Spec.
Format denseFormat(const std::string &Spec) {
  std::vector<ModeKind> Modes(Spec.find('-'), ModeKind::Dense);
  return Format(Modes, TensorDistribution::parse(Spec));
}

/// Lowers \p Stmt with (i, j) block-distributed onto the 2x2 grid. Each
/// tensor is partitioned along the dimensions it shares with (i, j): a
/// one-dimensional tensor follows i and replicates along j.
Plan onGrid2x2(const Assignment &Stmt, const IndexVar &I, const IndexVar &J,
               const std::vector<TensorVar> &Tensors) {
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  std::map<TensorVar, Format> Formats;
  for (const TensorVar &T : Tensors)
    Formats.emplace(T, denseFormat(T.order() == 1 ? "x->x*" : "xy->xy"));
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{2, 2})
      .communicate(Tensors, Jo);
  return lower(S.takeNest(), Machine::grid({2, 2}), std::move(Formats));
}

/// Regions for \p Case with every tensor, the output included, filled.
std::map<TensorVar, Region *>
fillRegions(const LeafCase &Case,
            std::vector<std::unique_ptr<Region>> &Storage) {
  std::map<TensorVar, Region *> Regions;
  for (const TensorVar &T : Case.Tensors) {
    Storage.push_back(
        std::make_unique<Region>(T, Case.P.formatOf(T), Case.P.M));
    Storage.back()->fillRandom(17 * Storage.size());
    Regions[T] = Storage.back().get();
  }
  return Regions;
}

} // namespace

TEST(Determinism, RotatedCannonPlan) {
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectDeterministic(Prob, {Prob.A, Prob.B, Prob.C});
}

TEST(Determinism, RotatedCannonUnevenTiles) {
  MatmulOptions Opts;
  Opts.N = 19; // Guarded edge tiles exercise the hoisted-guard path.
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectDeterministic(Prob, {Prob.A, Prob.B, Prob.C});
}

TEST(Determinism, MttkrpPlan) {
  HigherOrderOptions Opts;
  Opts.Dim = 16;
  Opts.Rank = 8;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
  expectDeterministic(Prob, Prob.Tensors);
}

TEST(Determinism, JohnsonReductionWriteback) {
  // Johnson's algorithm has overlapping output instances reduced from
  // multiple tasks: the stripe merge must keep task order per element.
  MatmulOptions Opts;
  Opts.N = 16;
  Opts.Procs = 8;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Johnson, Opts);
  expectDeterministic(Prob, {Prob.A, Prob.B, Prob.C});
}

TEST(Determinism, SingleTaskLeafFanout) {
  // One task, eight threads: the adaptive split hands every thread to the
  // leaf GEMM as nested sub-range jobs. Parallel leaves must be bitwise
  // equal to the sequential run (the PR 1 engine could not reach this
  // configuration at all — leaves ran sequentially). N = 128 puts the leaf
  // (128^3 multiply-adds) above blas::gemm's parallel cutoff so the
  // fan-out really happens.
  MatmulOptions Opts;
  Opts.N = 128;
  Opts.Procs = 1;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectDeterministic(Prob, {Prob.A, Prob.B, Prob.C});
}

TEST(Determinism, NestedSplitsCannon) {
  // N = 224 on a 2x2 grid gives 112^3 multiply-adds per leaf step — above
  // the GEMM parallel cutoff, so LeafWays > 1 configurations run real
  // nested sub-range jobs under the task fan-out instead of degenerating
  // to sequential leaves.
  MatmulOptions Opts;
  Opts.N = 224;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectDeterministicAcrossSplits(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(Determinism, NestedSplitsCannonUnevenTiles) {
  MatmulOptions Opts;
  Opts.N = 19; // Guarded edge tiles exercise the hoisted-guard path.
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectDeterministicAcrossSplits(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(Determinism, NestedSplitsMttkrp) {
  // Dim 48 is above the pack cutoff: each task's leaf runs GEMMs against
  // its engine's Khatri-Rao workspace, one 256-deep block at a time.
  for (auto [Dim, Rank] : {std::pair<Coord, Coord>{16, 8}, {48, 16}}) {
    SCOPED_TRACE("dim " + std::to_string(Dim));
    HigherOrderOptions Opts;
    Opts.Dim = Dim;
    Opts.Rank = Rank;
    Opts.Procs = 4;
    HigherOrderProblem Prob =
        buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
    expectDeterministicAcrossSplits(Prob.P, Prob.Tensors);
  }
}

TEST(Determinism, NestedSplitsTtmCollapsedGemm) {
  // Above the pack cutoff: each task's TTM leaf collapses (ii, j) into the
  // rows of one packed 576 x 16 x 48 GEMM.
  HigherOrderOptions Opts;
  Opts.Dim = 48;
  Opts.Rank = 16;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::TTM, Opts);
  expectDeterministicAcrossSplits(Prob.P, Prob.Tensors);
}

TEST(Determinism, NestedSplitsChunkedSumma) {
  MatmulOptions Opts;
  Opts.N = 32;
  Opts.Procs = 4;
  Opts.ChunkSize = 4; // Many home-fed broadcast steps per task chain.
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Summa, Opts);
  expectDeterministicAcrossSplits(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(Determinism, NestedSplitsTallSkinnyCannon) {
  TensorVar A, B, C;
  Plan P = tallSkinnyCannon(64, 8, 4, A, B, C);
  expectDeterministicAcrossSplits(P, {A, B, C});
}

TEST(Determinism, NestedSplitsCollapsedPlacement) {
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  CollapseMapper Collapse;
  expectDeterministicAcrossSplits(Prob.P, {Prob.A, Prob.B, Prob.C},
                                  Collapse);
}

TEST(Determinism, ZeroSkipOverwriteLeaves) {
  // Elementwise assignments name every original variable in the output
  // access, so the compile phase proves full overwrite and skips the
  // launch-phase accumulator zero; the reductions keep it. No right-hand
  // side below is a pure product, so each compiled leaf evaluates its tape
  // block by block (or per point where the statement needs it) and must
  // match the per-point interpreted reference byte for byte.
  IndexVar I("i"), J("j");
  std::vector<LeafCase> Cases;
  for (Coord N : {333, 37}) {
    // n=333: 167-point rows, one full block plus a remainder. n=37: edge
    // tiles under the hoisted guard.
    TensorVar A("A", {N, N}), B("B", {N, N}), C("C", {N, N});
    Cases.push_back(
        {"A(i,j) = B(i,j)*C(i,j) + 0.5, n=" + std::to_string(N),
         onGrid2x2(Assignment(Access(A, {I, J}),
                              Access(B, {I, J}) * Access(C, {I, J}) +
                                  Expr(0.5)),
                   I, J, {A, B, C}),
         {A, B, C}, 4});
  }
  {
    Coord N = 64;
    TensorVar A("A", {N, N}), B("B", {N, N}), C("C", {N, N});
    Cases.push_back(
        {"A(i,j) = B(j,i)*2 + C(i,j): non-unit inner stride",
         onGrid2x2(Assignment(Access(A, {I, J}),
                              Access(B, {J, I}) * Expr(2.0) +
                                  Access(C, {I, J})),
                   I, J, {A, B, C}),
         {A, B, C}, 4});
    Cases.push_back(
        {"A(i,j) = B(i,j)*(C(i,j) + B(i,j)*2) + 1: tape depth 3",
         onGrid2x2(Assignment(Access(A, {I, J}),
                              Access(B, {I, J}) *
                                      (Access(C, {I, J}) +
                                       Access(B, {I, J}) * Expr(2.0)) +
                                  Expr(1.0)),
                   I, J, {A, B, C}),
         {A, B, C}, 4});
  }
  {
    // Accumulate mode: the output is invariant along the inner loop, so
    // a block's values must reduce into one element in point order.
    Coord N = 200;
    TensorVar A("a", {N}), B("B", {N, N}), C("C", {N, N});
    Cases.push_back(
        {"a(i) = B(i,j) + C(i,j): accumulate, output invariant",
         onGrid2x2(Assignment(Access(A, {I}),
                              Access(B, {I, J}) + Access(C, {I, J})),
                   I, J, {A, B, C}),
         {A, B, C}, 0});
  }
  {
    // The right-hand side reads its own output: every point must see the
    // partial sums the points before it left.
    Coord N = 150;
    Machine M = Machine::grid({1});
    TensorVar X("x", {N}), B("B", {N, N});
    IndexVar Io("io"), Ii("ii");
    Schedule S(Assignment(Access(X, {I}), Access(X, {J}) + Access(B, {I, J})));
    S.distribute({I}, {Io}, {Ii}, std::vector<int>{1}).communicate({X, B}, Io);
    std::map<TensorVar, Format> Formats = {{X, denseFormat("x->x")},
                                           {B, denseFormat("xy->x")}};
    Cases.push_back({"x(i) = x(j) + B(i,j): reads its own output",
                     lower(S.takeNest(), M, std::move(Formats)),
                     {X, B},
                     0});
  }

  for (const LeafCase &Case : Cases) {
    SCOPED_TRACE(Case.Name);
    CompiledPlan CP(Case.P);
    EXPECT_EQ(CP.zeroSkipTaskCount(), Case.ZeroSkipTasks);
    seed::Engine RefEngine(Case.P);
    const TensorVar &Out = Case.Tensors[0];
    for (bool Views : {true, false})
      for (int Threads : {1, 8}) {
        // Interpreted reference (always zeroes; no overwrite mode) and the
        // compiled plan advance in lockstep over two rounds: the second
        // execution reuses instance buffers holding the previous results —
        // exactly the state a broken overwrite would leak. The compiled
        // side's output starts every round as NaN: where the engine skips
        // the region-wide zero as dead, an element no task overwrote would
        // keep it.
        std::vector<std::unique_ptr<Region>> RefStorage, Storage;
        auto RefRegions = fillRegions(Case, RefStorage);
        auto Regions = fillRegions(Case, Storage);
        ExecOptions Opts;
        Opts.NumThreads = Threads;
        Opts.ZeroCopyViews = Views;
        for (int Round = 0; Round < 2; ++Round) {
          RefEngine.execute(RefRegions);
          Regions[Out]->fill([](const Point &) {
            return std::numeric_limits<double>::quiet_NaN();
          });
          CP.execute(Regions, Opts);
          Rect::forExtents(Out.shape()).forEachPoint([&](const Point &Pt) {
            ASSERT_EQ(Regions[Out]->at(Pt), RefRegions[Out]->at(Pt))
                << (Views ? "views, " : "copies, ") << Threads
                << " threads, round " << Round << " at " << Pt.str();
          });
        }
      }
  }

  // A reducing statement must never skip its zero.
  MatmulOptions MOpts;
  MOpts.N = 16;
  MOpts.Procs = 4;
  MatmulProblem Gemm = buildMatmul(MatmulAlgo::Cannon, MOpts);
  CompiledPlan GemmCP(Gemm.P);
  EXPECT_EQ(GemmCP.zeroSkipTaskCount(), 0);
}
