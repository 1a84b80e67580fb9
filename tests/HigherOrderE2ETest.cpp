//===- tests/HigherOrderE2ETest.cpp - §7.2 kernel validation ---*- C++ -*-===//
//
// The §7.2 higher-order kernels against the sequential reference, at
// shapes below and above blas::gemm's pack cutoff and with guarded edge
// tiles, plus the leaf routes that turn TTM and MTTKRP into packed GEMMs,
// pinned byte for byte against blas::gemm calls the tests make themselves.
//
//===----------------------------------------------------------------------===//

#include "algorithms/HigherOrder.h"
#include "blas/LocalKernels.h"
#include "lower/Lower.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"

#include <cstring>

#include <gtest/gtest.h>

using namespace distal;
using namespace distal::algorithms;

namespace {

double runAndCompare(HigherOrderKernel K, Coord Dim, int64_t Procs,
                     Coord Rank = 4, Trace *TraceOut = nullptr) {
  HigherOrderOptions Opts;
  Opts.Dim = Dim;
  Opts.Rank = Rank;
  Opts.Procs = Procs;
  HigherOrderProblem Prob = buildHigherOrder(K, Opts);

  std::map<TensorVar, Region *> Regions;
  std::vector<std::unique_ptr<Region>> Storage;
  for (size_t I = 0; I < Prob.Tensors.size(); ++I) {
    const TensorVar &T = Prob.Tensors[I];
    Storage.push_back(
        std::make_unique<Region>(T, Prob.P.formatOf(T), Prob.P.M));
    if (I > 0)
      Storage.back()->fillRandom(17 * I + 3);
    Regions[T] = Storage.back().get();
  }
  Executor Exec(Prob.P);
  Trace T = Exec.run(Regions);
  if (TraceOut)
    *TraceOut = T;

  // Reference run on identical input data.
  Machine Seq = Machine::grid({1});
  std::map<TensorVar, Region *> SeqRegions;
  std::vector<std::unique_ptr<Region>> SeqStorage;
  for (size_t I = 0; I < Prob.Tensors.size(); ++I) {
    const TensorVar &T = Prob.Tensors[I];
    std::string Spec(T.order(), ' ');
    for (int D = 0; D < T.order(); ++D)
      Spec[D] = static_cast<char>('w' + D);
    Format F(std::vector<ModeKind>(T.order(), ModeKind::Dense),
             TensorDistribution::parse(Spec + "->*"));
    SeqStorage.push_back(std::make_unique<Region>(T, F, Seq));
    if (I > 0)
      SeqStorage.back()->fillRandom(17 * I + 3);
    SeqRegions[T] = SeqStorage.back().get();
  }
  referenceExecute(Prob.Stmt, SeqRegions);

  const TensorVar &Out = Prob.Tensors[0];
  double MaxDiff = 0;
  Rect::forExtents(Out.shape()).forEachPoint([&](const Point &P) {
    MaxDiff = std::max(MaxDiff,
                       std::abs(Regions[Out]->at(P) - SeqRegions[Out]->at(P)));
  });
  return MaxDiff;
}

struct Config {
  HigherOrderKernel K;
  Coord Dim;
  int64_t Procs;
  Coord Rank;
};

std::string configName(const ::testing::TestParamInfo<Config> &Info) {
  const Config &C = Info.param;
  return toString(C.K) + "_d" + std::to_string(C.Dim) + "_p" +
         std::to_string(C.Procs) + "_r" + std::to_string(C.Rank);
}

class HigherOrderE2E : public ::testing::TestWithParam<Config> {};

} // namespace

TEST_P(HigherOrderE2E, MatchesReference) {
  const Config &C = GetParam();
  EXPECT_LE(runAndCompare(C.K, C.Dim, C.Procs, C.Rank), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, HigherOrderE2E,
    ::testing::Values(
        Config{HigherOrderKernel::TTV, 8, 4, 4},
        Config{HigherOrderKernel::TTV, 12, 3, 4},
        Config{HigherOrderKernel::TTV, 9, 4, 4}, // Uneven split.
        Config{HigherOrderKernel::Innerprod, 8, 4, 4},
        Config{HigherOrderKernel::Innerprod, 10, 8, 4},
        Config{HigherOrderKernel::TTM, 8, 4, 4},
        Config{HigherOrderKernel::TTM, 12, 6, 5},
        Config{HigherOrderKernel::MTTKRP, 8, 4, 4},
        Config{HigherOrderKernel::MTTKRP, 12, 6, 3},
        Config{HigherOrderKernel::MTTKRP, 9, 4, 4},
        // Above the pack cutoff: TTM leaves collapse into one packed GEMM,
        // MTTKRP leaves run GEMMs against a Khatri-Rao workspace.
        Config{HigherOrderKernel::TTM, 48, 4, 16},
        Config{HigherOrderKernel::TTM, 48, 4, 32},
        Config{HigherOrderKernel::MTTKRP, 48, 4, 16},
        Config{HigherOrderKernel::MTTKRP, 56, 4, 32},
        // Guarded edge tiles: those tasks' leaves keep the dot path. (On
        // MTTKRP's 2x2 grid dim 50 splits evenly, so dim 49 is guarded.)
        Config{HigherOrderKernel::TTM, 50, 4, 16},
        Config{HigherOrderKernel::MTTKRP, 49, 4, 16}),
    configName);

TEST(HigherOrderDetail, TtvHasNoInterNodeCommunication) {
  // The paper's TTV schedule computes element-wise with tensors already
  // aligned: zero bytes should cross processors.
  Trace T;
  runAndCompare(HigherOrderKernel::TTV, 12, 4, 4, &T);
  EXPECT_EQ(T.totalCommBytes(), 0);
}

TEST(HigherOrderDetail, TtmHasNoInterNodeCommunication) {
  Trace T;
  runAndCompare(HigherOrderKernel::TTM, 8, 4, 4, &T);
  EXPECT_EQ(T.totalCommBytes(), 0);
}

TEST(HigherOrderDetail, InnerprodReducesToOneScalarOwner) {
  Trace T;
  runAndCompare(HigherOrderKernel::Innerprod, 8, 4, 4, &T);
  // Communication is exactly the reduction of the scalar partials.
  int64_t ReductionBytes = 0;
  for (const Message &M : T.Phases.back().Messages)
    if (M.Reduction)
      ReductionBytes += M.Bytes;
  EXPECT_EQ(T.totalCommBytes(), ReductionBytes);
  EXPECT_EQ(ReductionBytes, 3 * 8); // Three non-owner tasks, 8 bytes each.
}

TEST(HigherOrderDetail, MttkrpReducesPartialFactors) {
  HigherOrderOptions Opts;
  Opts.Dim = 8;
  Opts.Rank = 4;
  Opts.Procs = 4;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
  EXPECT_GT(Prob.P.distReductionFactor(), 1);
  Trace T;
  runAndCompare(HigherOrderKernel::MTTKRP, 8, 4, 4, &T);
  // All communication is the A-partial reduction: B is in place (Ballard et
  // al.), C is distributed to match its readers, D is replicated.
  int64_t NonReduction = 0;
  for (const Phase &Ph : T.Phases)
    for (const Message &M : Ph.Messages)
      if (M.Src != M.Dst && !M.Reduction)
        NonReduction += M.Bytes;
  EXPECT_EQ(NonReduction, 0);
}

namespace {

/// Row-major contents of \p R.
std::vector<double> contents(const Region &R) {
  return std::vector<double>(R.data(), R.data() + R.volume());
}

/// Runs \p P once on one thread over regions for \p Tensors (inputs
/// filled), views on or off; returns the regions, output first.
std::vector<std::unique_ptr<Region>>
runOnce(const Plan &P, const std::vector<TensorVar> &Tensors, bool Views) {
  std::vector<std::unique_ptr<Region>> Storage;
  std::map<TensorVar, Region *> Regions;
  for (size_t I = 0; I < Tensors.size(); ++I) {
    const TensorVar &T = Tensors[I];
    Storage.push_back(std::make_unique<Region>(T, P.formatOf(T), P.M));
    if (I > 0)
      Storage.back()->fillRandom(31 * I + 7);
    Regions[T] = Storage.back().get();
  }
  Executor Exec(P);
  Exec.setNumThreads(1);
  Exec.setZeroCopyViews(Views);
  Exec.run(Regions);
  return Storage;
}

void expectBytesEqual(const std::vector<double> &Got,
                      const std::vector<double> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  size_t Diff = 0;
  for (size_t I = 0; I < Got.size(); ++I)
    Diff += std::memcmp(&Got[I], &Want[I], sizeof(double)) != 0;
  EXPECT_EQ(Diff, 0u) << "of " << Got.size() << " elements";
}

} // namespace

TEST(HigherOrderRoute, TtmLeafCollapsesIntoOneGemm) {
  // A one-task TTM whose contracted extent (300) spans two of gemm's
  // 256-deep k blocks, where the packed GEMM's bytes differ from a strided
  // dot's. The leaf loops (i, j) fuse into GEMM rows, so the output is
  // exactly blas::gemm over B viewed as an (i*j) x k matrix.
  const Coord I = 8, J = 8, K = 300, L = 32;
  TensorVar A("A", {I, J, L}), B("B", {I, J, K}), C("C", {K, L});
  IndexVar Iv("i"), Jv("j"), Kv("k"), Lv("l"), Io("io"), Ii("ii");
  Schedule S(Assignment(Access(A, {Iv, Jv, Lv}),
                        Access(B, {Iv, Jv, Kv}) * Access(C, {Kv, Lv})));
  S.distribute({Iv}, {Io}, {Ii}, std::vector<int>{1})
      .communicate({A, B, C}, Io);
  auto Fmt = [](int Order, const std::string &Spec) {
    return Format(std::vector<ModeKind>(Order, ModeKind::Dense),
                  TensorDistribution::parse(Spec));
  };
  Plan P = lower(S.takeNest(), Machine::grid({1}),
                 {{A, Fmt(3, "xyz->x")}, {B, Fmt(3, "xyz->x")},
                  {C, Fmt(2, "xy->*")}});
  for (bool Views : {false, true}) {
    SCOPED_TRACE(Views ? "views on" : "views off");
    std::vector<std::unique_ptr<Region>> R = runOnce(P, {A, B, C}, Views);
    std::vector<double> Want(I * J * L, 0.0);
    blas::gemm(Want.data(), R[1]->data(), R[2]->data(), I * J, L, K, L, K, L);
    expectBytesEqual(contents(*R[0]), Want);
  }
}

TEST(HigherOrderRoute, MttkrpLeafRunsKhatriRaoGemms) {
  // A one-task MTTKRP A(i,l) = B(i,j,k) * C(j,l) * D(k,l): the leaf builds
  // KR((j,k), l) = C(j,l) * D(k,l) one 256-deep block at a time and runs
  // A += B(i, (j,k)) * KR per block, in ascending order.
  HigherOrderOptions Opts;
  Opts.Dim = 48;
  Opts.Rank = 16;
  Opts.Procs = 1;
  HigherOrderProblem Prob = buildHigherOrder(HigherOrderKernel::MTTKRP, Opts);
  const Coord D = Opts.Dim, Rank = Opts.Rank, JK = D * D;
  for (bool Views : {false, true}) {
    SCOPED_TRACE(Views ? "views on" : "views off");
    std::vector<std::unique_ptr<Region>> R =
        runOnce(Prob.P, Prob.Tensors, Views);
    const double *Bd = R[1]->data(), *Cd = R[2]->data(), *Dd = R[3]->data();
    std::vector<double> Want(D * Rank, 0.0), KR(blas::GemmBlockK * Rank);
    for (Coord K0 = 0; K0 < JK; K0 += blas::GemmBlockK) {
      Coord KLen = std::min(blas::GemmBlockK, JK - K0);
      for (Coord T = 0; T < KLen; ++T)
        for (Coord N = 0; N < Rank; ++N)
          KR[T * Rank + N] = Cd[((K0 + T) / D) * Rank + N] *
                             Dd[((K0 + T) % D) * Rank + N];
      blas::gemm(Want.data(), Bd + K0, KR.data(), D, Rank, KLen, Rank, JK,
                 Rank);
    }
    expectBytesEqual(contents(*R[0]), Want);
  }
}
