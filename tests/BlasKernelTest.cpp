//===- tests/BlasKernelTest.cpp - GEMM kernels keep their bytes -*- C++ -*-===//
//
// blas::gemm must produce the same bytes as the 4 x 32 panel kernel it
// replaced, whatever register tiles the build's vector width selects. The
// replaced kernel is kept below as the reference order: every full-panel
// element starts an accumulator at 0, adds a*b in ascending k and is added
// to C once per 256-deep k block; fringe columns and fringe rows, and whole
// problems under the pack cutoff or with fewer than 4 rows, add every
// product straight into C in ascending k. blas::gemm runs the latter, and
// every problem narrower than one 32-column panel, through its direct
// kernel, which holds C in registers across the whole k range instead of
// splitting it into 256-deep blocks. The shapes cover row and column
// fringes, widths under one panel, several k and column blocks, leading
// dimensions wider than the extents (the TTM and MTTKRP leaf shapes
// among them), the unpacked routes below the pack cutoff, the 2- and 4-way
// row fan-out on the packed and direct routes, and gemmGeneral's
// column-major route. Outputs are compared with memcmp.
//
//===----------------------------------------------------------------------===//

#include "Seed.h"
#include "blas/LocalKernels.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace distal;

namespace {

/// The 4 x 32 packed kernel that blas::gemm ran before its register tile
/// followed the build's vector width. microKernel, edgeKernel and
/// gemmRowsPacked are copied unchanged; packedGemm is the packed half of
/// the old gemm with its row-panel fan-out run inline, since every split
/// computes the same bytes.
namespace reference {

constexpr int64_t MR = 4, NR = 32;
constexpr int64_t BlockK = 256, BlockN = 1024;
constexpr int64_t PackFlopCutoff = 1 << 16;

inline void microKernel(double *__restrict__ C, const double *__restrict__ Ap,
                        const double *__restrict__ Bp, int64_t K,
                        int64_t LdC) {
  double Acc[MR][NR] = {};
  for (int64_t KK = 0; KK < K; ++KK) {
    const double *__restrict__ BRow = Bp + KK * NR;
    for (int I = 0; I < MR; ++I) {
      double AVal = Ap[KK * MR + I];
      for (int J = 0; J < NR; ++J)
        Acc[I][J] += AVal * BRow[J];
    }
  }
  for (int I = 0; I < MR; ++I)
    for (int J = 0; J < NR; ++J)
      C[I * LdC + J] += Acc[I][J];
}

inline void edgeKernel(double *C, const double *A, const double *B, int64_t M,
                       int64_t N, int64_t K, int64_t LdC, int64_t LdA,
                       int64_t LdB) {
  for (int64_t I = 0; I < M; ++I)
    for (int64_t KK = 0; KK < K; ++KK) {
      double AVal = A[I * LdA + KK];
      const double *BRow = B + KK * LdB;
      double *CRow = C + I * LdC;
      for (int64_t J = 0; J < N; ++J)
        CRow[J] += AVal * BRow[J];
    }
}

void gemmRowsPacked(double *C, const double *A, const double *Bp,
                    const double *BEdge, int64_t MLo, int64_t MHi, int64_t N,
                    int64_t KLen, int64_t LdC, int64_t LdA, int64_t LdB) {
  double Ap[MR * BlockK];
  int64_t FullN = N - N % NR;
  int64_t I = MLo;
  for (; I + MR <= MHi; I += MR) {
    for (int64_t KK = 0; KK < KLen; ++KK)
      for (int64_t R = 0; R < MR; ++R)
        Ap[KK * MR + R] = A[(I + R) * LdA + KK];
    for (int64_t J = 0; J + NR <= N; J += NR)
      microKernel(C + I * LdC + J, Ap, Bp + J * KLen, KLen, LdC);
    if (FullN < N)
      edgeKernel(C + I * LdC + FullN, A + I * LdA, BEdge + FullN, MR,
                 N - FullN, KLen, LdC, LdA, LdB);
  }
  if (I < MHi)
    edgeKernel(C + I * LdC, A + I * LdA, BEdge, MHi - I, N, KLen, LdC, LdA,
               LdB);
}

void packedGemm(double *C, const double *A, const double *B, int64_t M,
                int64_t N, int64_t K, int64_t LdC, int64_t LdA, int64_t LdB) {
  std::vector<double> Bp(
      static_cast<size_t>(std::min(BlockN, N) * std::min(BlockK, K)));
  for (int64_t J0 = 0; J0 < N; J0 += BlockN) {
    int64_t NLen = std::min(BlockN, N - J0);
    for (int64_t K0 = 0; K0 < K; K0 += BlockK) {
      int64_t KLen = std::min(BlockK, K - K0);
      const double *BBlock = B + K0 * LdB + J0;
      for (int64_t J = 0; J + NR <= NLen; J += NR)
        for (int64_t KK = 0; KK < KLen; ++KK)
          for (int64_t R = 0; R < NR; ++R)
            Bp[J * KLen + KK * NR + R] = BBlock[KK * LdB + J + R];
      gemmRowsPacked(C + J0, A + K0, Bp.data(), BBlock, 0, M, NLen, KLen,
                     LdC, LdA, LdB);
    }
  }
}

/// The old gemm's routing: small or short problems skip the packed path.
void gemm(double *C, const double *A, const double *B, int64_t M, int64_t N,
          int64_t K, int64_t LdC, int64_t LdA, int64_t LdB) {
  if (M * N * K < PackFlopCutoff || M < MR)
    seed::gemmBlockedReference(C, A, B, M, N, K, LdC, LdA, LdB);
  else
    packedGemm(C, A, B, M, N, K, LdC, LdA, LdB);
}

} // namespace reference

/// Values spread over several binades with both signs, so that any change
/// in the order or grouping of the roundings shows in the low bits.
std::vector<double> randomValues(size_t N, uint64_t Seed) {
  std::vector<double> V(N);
  uint64_t S = Seed * 0x9E3779B97F4A7C15ull + 1;
  for (double &X : V) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    double Mantissa = static_cast<double>(S >> 11) / 9007199254740992.0 - 0.5;
    X = std::ldexp(Mantissa, static_cast<int>(S % 7) - 3);
  }
  return V;
}

struct Shape {
  int64_t M, N, K;
  int64_t Pad = 0; ///< Added to every leading dimension.
};

std::string describe(const Shape &S) {
  return "M=" + std::to_string(S.M) + " N=" + std::to_string(S.N) +
         " K=" + std::to_string(S.K) + " pad=" + std::to_string(S.Pad);
}

/// Runs blas::gemm under \p LP and the reference on the same row-major
/// operands and expects identical bytes in all of C, padding included.
void expectSameBytes(const LeafParallelism &LP, const Shape &S,
                     uint64_t Seed) {
  int64_t LdA = S.K + S.Pad, LdB = S.N + S.Pad, LdC = S.N + S.Pad;
  std::vector<double> A = randomValues(S.M * LdA, Seed);
  std::vector<double> B = randomValues(S.K * LdB, Seed + 1);
  std::vector<double> Want = randomValues(S.M * LdC, Seed + 2);
  std::vector<double> Got = Want;
  reference::gemm(Want.data(), A.data(), B.data(), S.M, S.N, S.K, LdC, LdA,
                  LdB);
  blas::gemm(LP, Got.data(), A.data(), B.data(), S.M, S.N, S.K, LdC, LdA,
             LdB);
  EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                           Want.size() * sizeof(double)))
      << describe(S) << " ways=" << LP.Ways;
}

/// Every combination of the row counts (MR multiples, row fringes, several
/// register tiles), column counts (whole panels, column fringes, a second
/// 1024-column block, and widths under one panel, which take the direct
/// kernel over the whole k range) and depths (one partial, one full and
/// several k blocks) the packed path distinguishes.
std::vector<Shape> packedShapes() {
  std::vector<Shape> Shapes;
  for (int64_t M : {4, 5, 7, 8, 9, 12, 64, 67, 512})
    for (int64_t N : {1, 8, 16, 24, 31, 32, 33, 48, 64, 70, 1030})
      for (int64_t K : {17, 256, 257, 600})
        Shapes.push_back({M, N, K});
  return Shapes;
}

TEST(BlasKernel, PackedGemmMatchesReferenceBytes) {
  uint64_t Seed = 1;
  for (const Shape &S : packedShapes())
    expectSameBytes(LeafParallelism{}, S, Seed += 3);
}

TEST(BlasKernel, LeadingDimensionsWiderThanExtents) {
  uint64_t Seed = 1000;
  // The last three are the TTM leaf (576 x 16 x 48) and MTTKRP Khatri-Rao
  // blocks (24 x 16 x 256 and x 128) at rank 16.
  for (Shape S : {Shape{9, 70, 257}, Shape{67, 33, 600}, Shape{12, 1030, 17},
                  Shape{512, 64, 256}, Shape{8, 48, 300}, Shape{576, 16, 48},
                  Shape{24, 16, 256}, Shape{24, 16, 128}}) {
    for (int64_t Pad : {1, 5, 32}) {
      S.Pad = Pad;
      expectSameBytes(LeafParallelism{}, S, Seed += 3);
    }
  }
}

TEST(BlasKernel, UnpackedRoutesMatchReferenceBytes) {
  // Below the pack cutoff, or fewer rows than one panel: the blocked loop.
  uint64_t Seed = 2000;
  for (Shape S : {Shape{1, 1030, 600}, Shape{2, 64, 256}, Shape{3, 33, 17},
                  Shape{3, 512, 512}, Shape{16, 16, 16}, Shape{40, 40, 40},
                  Shape{4, 32, 17}, Shape{5, 7, 9}})
    for (int64_t Pad : {0, 3}) {
      S.Pad = Pad;
      expectSameBytes(LeafParallelism{}, S, Seed += 3);
    }
}

TEST(BlasKernel, RowFanOutMatchesReferenceBytes) {
  // Shapes past the parallel cutoff (2^20 multiply-adds), so the row
  // panels split over the pool, including splits that leave a range with
  // an odd number of 4-row panels or the row fringe. The last two are
  // narrower than one panel, so their row panels fan out on the direct
  // route.
  ThreadPool Pool(4);
  uint64_t Seed = 3000;
  for (int Ways : {2, 4})
    for (Shape S : {Shape{67, 70, 257}, Shape{64, 1030, 17},
                    Shape{512, 64, 256}, Shape{36, 1030, 600},
                    Shape{12, 1030, 600}, Shape{9, 33, 4000},
                    Shape{4096, 16, 48}, Shape{2048, 24, 600}})
      expectSameBytes(LeafParallelism{&Pool, Ways}, S, Seed += 3);
}

TEST(BlasKernel, ColumnMajorGemmGeneralMatchesReferenceBytes) {
  // CsM == AsM == BsK == 1: gemmGeneral computes C^T += B^T * A^T through
  // blas::gemm, so the reference runs the same transposed product. The
  // 16-row shape transposes to 16 columns, under one panel: the direct
  // route.
  ThreadPool Pool(4);
  uint64_t Seed = 4000;
  for (int Ways : {1, 4})
    for (Shape S : {Shape{70, 67, 257}, Shape{33, 12, 600},
                    Shape{1030, 9, 17}, Shape{64, 512, 256, 5},
                    Shape{16, 70, 257}}) {
      // Column-major operands: C is M x N with column stride LdC, A is
      // M x K with column stride LdA, B is K x N with column stride LdB.
      int64_t LdC = S.M + S.Pad, LdA = S.M + S.Pad, LdB = S.K + S.Pad;
      std::vector<double> A = randomValues(S.K * LdA, Seed += 3);
      std::vector<double> B = randomValues(S.N * LdB, Seed + 1);
      std::vector<double> Want = randomValues(S.N * LdC, Seed + 2);
      std::vector<double> Got = Want;
      reference::gemm(Want.data(), B.data(), A.data(), S.N, S.M, S.K, LdC,
                      LdB, LdA);
      blas::gemmGeneral(LeafParallelism{&Pool, Ways}, Got.data(), A.data(),
                        B.data(), S.M, S.N, S.K, /*CsM=*/1, /*CsN=*/LdC,
                        /*AsM=*/1, /*AsK=*/LdA, /*BsK=*/1, /*BsN=*/LdB);
      EXPECT_EQ(0, std::memcmp(Want.data(), Got.data(),
                               Want.size() * sizeof(double)))
          << describe(S) << " ways=" << Ways;
    }
}

} // namespace
