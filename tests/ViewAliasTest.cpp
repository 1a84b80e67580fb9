//===- tests/ViewAliasTest.cpp - Zero-copy alias views ---------*- C++ -*-===//
//
// The zero-copy data-movement path must be observationally invisible:
// binding home-resident gathers as views of Region storage (and eliding the
// aliased output's writeback) has to produce output bitwise-identical to
// the copy path at every thread count and task/leaf split, for rotated
// (Cannon), broadcast (SUMMA), general-affine (MTTKRP), GEMM-routed TTM
// and MTTKRP, and fully-local single-task shapes. Also covers the compile-time classification, the
// gathered-byte accounting the benches report, and the safety
// preconditions that force the copy path.
//
//===----------------------------------------------------------------------===//

#include "algorithms/HigherOrder.h"
#include "algorithms/Matmul.h"
#include "lower/Lower.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"

#include <gtest/gtest.h>

using namespace distal;
using namespace distal::algorithms;

namespace {

std::vector<double> runPlan(const Plan &P,
                            const std::vector<TensorVar> &Tensors, bool Views,
                            int Threads, int TaskWays = 0, int LeafWays = 0) {
  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (size_t I = 0; I < Tensors.size(); ++I) {
    const TensorVar &T = Tensors[I];
    Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
    if (I > 0)
      Storage.back()->fillRandom(53 * I + 11);
    Regions[T] = Storage.back().get();
  }
  Executor Exec(P);
  Exec.setZeroCopyViews(Views);
  if (TaskWays > 0)
    Exec.setThreadSplit(TaskWays, LeafWays);
  else
    Exec.setNumThreads(Threads);
  Exec.run(Regions);
  std::vector<double> Out;
  const TensorVar &OutT = Tensors[0];
  Rect::forExtents(OutT.shape()).forEachPoint(
      [&](const Point &Pt) { Out.push_back(Regions[OutT]->at(Pt)); });
  return Out;
}

void expectSame(const std::vector<double> &A, const std::vector<double> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    // Bitwise, not approximate: aliasing must not change any rounding.
    ASSERT_EQ(A[I], B[I]) << "element " << I;
}

/// Sweeps views-on against views-off across default-split 1 and 8 threads and
/// every pinned {1,2,8} x {1,4} task/leaf split.
void expectViewsIdentical(const Plan &P,
                          const std::vector<TensorVar> &Tensors) {
  std::vector<double> Ref = runPlan(P, Tensors, /*Views=*/false, 1);
  for (int Threads : {1, 8}) {
    SCOPED_TRACE("adaptive threads " + std::to_string(Threads));
    expectSame(Ref, runPlan(P, Tensors, true, Threads));
  }
  for (int TaskWays : {1, 2, 8})
    for (int LeafWays : {1, 4}) {
      SCOPED_TRACE("task ways " + std::to_string(TaskWays) + ", leaf ways " +
                   std::to_string(LeafWays));
      expectSame(Ref, runPlan(P, Tensors, false, 0, TaskWays, LeafWays));
      expectSame(Ref, runPlan(P, Tensors, true, 0, TaskWays, LeafWays));
    }
}

/// Fully-local single-task GEMM: one processor owns every tensor whole, so
/// alias analysis must elide the entire gather program and the writeback.
Plan fullyLocalGemm(Coord N, TensorVar &A, TensorVar &B, TensorVar &C) {
  Machine M = Machine::grid({1, 1});
  A = TensorVar("A", {N, N});
  B = TensorVar("B", {N, N});
  C = TensorVar("C", {N, N});
  IndexVar I("i"), J("j"), K("k");
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  Assignment Stmt(Access(A, {I, J}), Access(B, {I, K}) * Access(C, {K, J}));
  Format F({ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xy->xy"));
  std::map<TensorVar, Format> Formats = {{A, F}, {B, F}, {C, F}};
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{1, 1})
      .communicate({A, B, C}, Jo);
  return lower(S.takeNest(), M, std::move(Formats));
}

} // namespace

TEST(ViewAlias, RotatedCannonIdentical) {
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectViewsIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(ViewAlias, SummaIdentical) {
  MatmulOptions Opts;
  Opts.N = 32;
  Opts.Procs = 4;
  Opts.ChunkSize = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Summa, Opts);
  expectViewsIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(ViewAlias, MttkrpIdentical) {
  // Dim 48 is above the pack cutoff: each task's leaf runs GEMMs against
  // its engine's Khatri-Rao workspace.
  for (auto [Dim, Rank] : {std::pair<Coord, Coord>{16, 8}, {48, 16}}) {
    SCOPED_TRACE("dim " + std::to_string(Dim));
    HigherOrderOptions Opts;
    Opts.Dim = Dim;
    Opts.Rank = Rank;
    Opts.Procs = 4;
    HigherOrderProblem Prob =
        buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
    expectViewsIdentical(Prob.P, Prob.Tensors);
  }
}

TEST(ViewAlias, TtmCollapsedGemmIdentical) {
  // Above the pack cutoff each task's (ii, j) leaf loops collapse into the
  // rows of one packed GEMM, through views and copies alike.
  HigherOrderOptions Opts;
  Opts.Dim = 48;
  Opts.Rank = 16;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::TTM, Opts);
  expectViewsIdentical(Prob.P, Prob.Tensors);
}

TEST(ViewAlias, PartialTilesCollapseInBothLayouts) {
  // TTM on a 2x2 grid with a 300-deep contraction: a packed copy of a
  // 4 x 4 x n tile would let (ii, ji) fuse into GEMM rows, a view with the
  // tensor's 8 x 8 x n strides would not, and the GEMM and the strided dot
  // round differently past one 256-deep k block. The recogniser fuses
  // only where both layouts agree, so views on and off take one route.
  const Coord N = 8, K = 300, L = 32;
  Machine M = Machine::grid({2, 2});
  TensorVar A("A", {N, N, L}), B("B", {N, N, K}), C("C", {K, L});
  IndexVar I("i"), J("j"), Kv("k"), Lv("l");
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  Schedule S(Assignment(Access(A, {I, J, Lv}),
                        Access(B, {I, J, Kv}) * Access(C, {Kv, Lv})));
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{2, 2})
      .communicate({A, B, C}, Jo);
  auto Fmt = [](int Order, const std::string &Spec) {
    return Format(std::vector<ModeKind>(Order, ModeKind::Dense),
                  TensorDistribution::parse(Spec));
  };
  Plan P = lower(S.takeNest(), M,
                 {{A, Fmt(3, "xyz->xy")}, {B, Fmt(3, "xyz->xy")},
                  {C, Fmt(2, "xy->**")}});
  expectViewsIdentical(P, {A, B, C});
}

TEST(ViewAlias, UnevenTilesIdentical) {
  // Ragged edge tiles: guarded leaves bound through region-strided views
  // must skip the same points as through packed copies.
  MatmulOptions Opts;
  Opts.N = 19;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  expectViewsIdentical(Prob.P, {Prob.A, Prob.B, Prob.C});
}

TEST(ViewAlias, FullyLocalSingleTaskIdentical) {
  TensorVar A, B, C;
  Plan P = fullyLocalGemm(24, A, B, C);
  expectViewsIdentical(P, {A, B, C});
}

TEST(ViewAlias, FullyLocalElidesEverything) {
  // One processor, one task: every input gather is home-resident and the
  // output rectangle is exclusively owned, so the artifact's data-movement
  // program copies nothing at all.
  TensorVar A, B, C;
  Plan P = fullyLocalGemm(16, A, B, C);
  CompiledPlan CP(P);
  CompiledPlan::DataMovementStats D = CP.dataMovementStats();
  EXPECT_EQ(D.GatheredBytes, 0);
  EXPECT_EQ(D.WritebackBytes, 0);
  EXPECT_GT(D.ElidedBytes, 0);
  EXPECT_GT(D.WritebackElidedBytes, 0);
  EXPECT_EQ(D.movedBytes(), 0);

  // Steady-state reuse: repeated executions over the same regions keep
  // re-binding the same views; results stay identical run over run.
  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (const TensorVar &T : {A, B, C}) {
    Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
    if (!(T == A))
      Storage.back()->fillRandom(13 * Storage.size());
    Regions[T] = Storage.back().get();
  }
  ExecOptions O;
  O.NumThreads = 4;
  std::vector<double> First;
  for (int Round = 0; Round < 3; ++Round) {
    CP.execute(Regions, O);
    std::vector<double> Out;
    Rect::forExtents(A.shape()).forEachPoint(
        [&](const Point &Pt) { Out.push_back(Regions[A]->at(Pt)); });
    if (Round == 0)
      First = Out;
    else
      expectSame(First, Out);
  }
}

TEST(ViewAlias, ClassificationAndByteAccounting) {
  // Rotated Cannon on a 3x3 grid: each task's systolic walk passes over
  // its own home block exactly once per operand, so exactly one of its
  // step fetches per operand is elided and the rest copy.
  // 2 operands x 9 tasks = 18 elided step gathers of the 54 total.
  MatmulOptions Opts;
  Opts.N = 36;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  CompiledPlan CP(Prob.P);
  int64_t Elided = 0, Total = 0;
  for (const CompiledTask &CT : CP.compiledTasks())
    for (const auto &Step : CT.StepGathers)
      for (const CompiledGather &G : Step) {
        ++Total;
        Elided += G.Class == GatherClass::Aliasable ? 1 : 0;
      }
  EXPECT_EQ(Elided, 18);
  EXPECT_EQ(Total, 54);

  // Byte accounting: the elided share of the gather program is exactly
  // 1/3 (one of three steps per operand), and the disjoint home-resident
  // output tiles elide the entire writeback.
  CompiledPlan::DataMovementStats D = CP.dataMovementStats();
  EXPECT_GT(D.ElidedBytes, 0);
  EXPECT_EQ(D.ElidedBytes * 2, D.GatheredBytes);
  EXPECT_EQ(D.WritebackBytes, 0);
  EXPECT_GT(D.WritebackElidedBytes, 0);
}

TEST(ViewAlias, OutputReadForcesCopyPath) {
  // The output appears on the right-hand side: an aliased accumulator
  // would let the statement observe in-flight partials instead of the
  // zeroed region, so output aliasing must be disabled (input gathers of
  // other tensors may still alias).
  Coord N = 16;
  Machine M = Machine::grid({2, 2});
  TensorVar A("A", {N, N}), B("B", {N, N});
  IndexVar I("i"), J("j"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  Assignment Stmt(Access(A, {I, J}), Access(A, {I, J}) + Access(B, {I, J}));
  Format F({ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xy->xy"));
  std::map<TensorVar, Format> Formats = {{A, F}, {B, F}};
  Schedule S(Stmt);
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, std::vector<int>{2, 2})
      .communicate({A, B}, Jo);
  Plan P = lower(S.takeNest(), M, std::move(Formats));
  CompiledPlan CP(P);
  CompiledPlan::DataMovementStats D = CP.dataMovementStats();
  EXPECT_EQ(D.WritebackElidedBytes, 0);
  EXPECT_GT(D.WritebackBytes, 0);
  EXPECT_GT(D.ElidedBytes, 0); // B's home tiles still alias.
  expectViewsIdentical(P, {A, B});
}

TEST(ViewAlias, ScalarOutputStaysOnCopyPath) {
  // Inner product: a 0-dim accumulator never aliases (and every task's
  // scalar overlaps every other's), but input views still apply.
  HigherOrderOptions Opts;
  Opts.Dim = 12;
  Opts.Procs = 4;
  HigherOrderProblem Prob =
      buildHigherOrder(HigherOrderKernel::Innerprod, Opts);
  CompiledPlan CP(Prob.P);
  EXPECT_EQ(CP.dataMovementStats().WritebackElidedBytes, 0);
  expectViewsIdentical(Prob.P, Prob.Tensors);
}

TEST(ViewAlias, CollapsedPlacementStillAliasesOwnedTiles) {
  // Every task forced onto processor 0: only rectangles inside proc 0's
  // owned pieces may alias — and the output tiles of the collapsed tasks
  // are still disjoint, so exactly one task (the one whose tile proc 0
  // owns) elides its writeback.
  struct CollapseMapper : Mapper {
    Point placeTask(const Point &, const Rect &,
                    const Machine &M) const override {
      return M.delinearize(0);
    }
  };
  MatmulOptions Opts;
  Opts.N = 24;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  CollapseMapper Collapse;
  CompiledPlan CP(Prob.P, Collapse);
  CompiledPlan::DataMovementStats D = CP.dataMovementStats();
  EXPECT_GT(D.WritebackElidedBytes, 0);
  EXPECT_GT(D.WritebackBytes, 0);

  std::vector<TensorVar> Tensors = {Prob.A, Prob.B, Prob.C};
  auto runWith = [&](bool Views, int Threads) {
    std::map<TensorVar, Region *> Regions;
    std::vector<std::unique_ptr<Region>> Storage;
    for (size_t I = 0; I < Tensors.size(); ++I) {
      Storage.push_back(std::make_unique<Region>(
          Tensors[I], Prob.P.formatOf(Tensors[I]), Prob.P.M));
      if (I > 0)
        Storage.back()->fillRandom(7 * I + 29);
      Regions[Tensors[I]] = Storage.back().get();
    }
    ExecOptions O;
    O.NumThreads = Threads;
    O.ZeroCopyViews = Views;
    CP.execute(Regions, O);
    std::vector<double> Out;
    Rect::forExtents(Tensors[0].shape()).forEachPoint([&](const Point &Pt) {
      Out.push_back(Regions[Tensors[0]]->at(Pt));
    });
    return Out;
  };
  expectSame(runWith(false, 1), runWith(true, 8));
}

TEST(ViewAlias, ViewOffsetsAddressRegionStorage) {
  // Unit-level: a gather binds as a view by pointer arithmetic — the
  // region's storage at the offset recorded with the gather, which must
  // address the rectangle's lo corner (the leaf reads on with the region's
  // strides). Every gather of a rotated Cannon plan is checked, copied or
  // not: program linking may bind any of them as a view.
  MatmulOptions Opts;
  Opts.N = 30;
  Opts.Procs = 9;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  CompiledPlan CP(Prob.P);
  std::map<TensorVar, std::unique_ptr<Region>> Regions;
  for (const TensorVar &T : {Prob.A, Prob.B, Prob.C})
    Regions[T] = std::make_unique<Region>(T, Prob.P.formatOf(T), Prob.P.M);
  int64_t Checked = 0;
  auto check = [&](const CompiledGather &G) {
    Region &R = *Regions.at(G.Tensor);
    ASSERT_TRUE(Rect::forExtents(G.Tensor.shape()).contains(G.R));
    EXPECT_EQ(R.data() + G.Runs.RegBase, &R.at(G.R.lo()));
    ++Checked;
  };
  for (const CompiledTask &CT : CP.compiledTasks()) {
    for (const CompiledGather &G : CT.LaunchGathers)
      check(G);
    for (const auto &Step : CT.StepGathers)
      for (const CompiledGather &G : Step)
        check(G);
  }
  EXPECT_GT(Checked, 0);

  // An owned instance is a packed copy: reset() to the rectangle, gather,
  // and its strides are the rectangle's, not the region's.
  TensorVar T("V", {6, 8});
  Format F({ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xy->*"));
  Region R(T, F, Machine::grid({1}));
  R.fillRandom(3);
  Rect Sub(Point({2, 3}), Point({5, 7}));
  Instance I;
  I.reset(Sub);
  R.gatherInto(I);
  EXPECT_TRUE(I.valid());
  EXPECT_EQ(I.stride(0), 4);
  EXPECT_EQ(I.stride(1), 1);
  Sub.forEachPoint([&](const Point &P) { EXPECT_EQ(I.at(P), R.at(P)); });
}

TEST(ViewAlias, CompiledRunsMatchDiscoveredGather) {
  // The precomputed coalesced run program must copy byte-identically to
  // the per-execute run discovery, for contiguous, strided, and
  // 3-dimensional rectangles.
  TensorVar T("G", {12, 10, 14});
  Format F({ModeKind::Dense, ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xyz->*"));
  Region R(T, F, Machine::grid({1}));
  R.fillRandom(17);
  for (const Rect &Sub :
       {Rect(Point({3, 0, 0}), Point({9, 10, 14})),   // Contiguous slab.
        Rect(Point({3, 2, 0}), Point({9, 7, 14})),    // 2D run grid.
        Rect(Point({3, 2, 4}), Point({9, 7, 11})),    // 3D: 2 outer dims.
        Rect(Point({0, 0, 0}), Point({12, 10, 14})),  // Whole region.
        Rect(Point({5, 5, 5}), Point({5, 5, 5}))}) {  // Empty.
    GatherRuns GR = compileGatherRuns(Sub, T.shape());
    Instance Discovered(Sub), Replayed(Sub);
    R.gatherInto(Discovered);
    R.gatherCompiled(Replayed, GR);
    if (!Sub.isEmpty())
      Sub.forEachPoint([&](const Point &P) {
        ASSERT_EQ(Discovered.at(P), Replayed.at(P)) << P.str();
      });
  }
}
