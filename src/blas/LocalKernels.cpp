//===- blas/LocalKernels.cpp ----------------------------------*- C++ -*-===//

#include "blas/LocalKernels.h"

#include <algorithm>
#include <vector>

#include "support/ThreadPool.h"

namespace distal {
namespace blas {

namespace {

constexpr int64_t MR = 4, NR = 32;
constexpr int64_t BlockK = GemmBlockK, BlockN = 1024;
/// Below this many multiply-adds, packing (and parallel fan-out) costs
/// more than it buys; the direct kernel runs the whole problem instead.
constexpr int64_t PackFlopCutoff = 1 << 16;
constexpr int64_t ParallelFlopCutoff = 1 << 20;
/// Reductions accumulate per-chunk partials of this fixed size and combine
/// them in chunk order. The association depends only on N — never on the
/// pool or the ways budget — so results are bitwise-identical at every
/// thread configuration.
constexpr int64_t ReduceChunk = 1 << 15;
/// Vector updates shorter than this are not worth a fan-out.
constexpr int64_t VectorParallelCutoff = 1 << 16;

/// The process-global handle used by the context-free entry points. Only
/// recruits the global pool from threads outside every pool, and only
/// touches (and thus lazily constructs) it when the caller already decided
/// to fan out.
LeafParallelism processLeaf() {
  if (ThreadPool::inWorker())
    return {};
  ThreadPool &G = ThreadPool::global();
  return {&G, G.numThreads()};
}

/// Shared fan-out gate: \p Work units amortize a parallel dispatch of \p N
/// sub-ranges only past \p Cutoff.
bool shouldParallelize(const LeafParallelism &LP, int64_t N, int64_t Work,
                       int64_t Cutoff) {
  return LP.enabled() && N > 1 && Work >= Cutoff;
}

/// Runs Body(Lo, Hi) over [0, N): fanned out over \p LP when \p Parallel,
/// inline otherwise.
template <typename Fn>
void runRange(const LeafParallelism &LP, int64_t N, bool Parallel,
              const Fn &Body) {
  if (Parallel)
    LP.Pool->parallelForWays(N, LP.Ways, Body);
  else
    Body(0, N);
}

/// The widest vector the build targets, read from the compiler's ISA
/// macros, and the register tile sized to it: TileRows x TileVecs
/// accumulators plus TileVecs B vectors and one broadcast A value fit the
/// 32 vector registers of AVX-512 (8 x 2 + 3 = 19) and the 16 of AVX and
/// SSE2 (4 x 2 + 3 = 11).
#if defined(__AVX512F__)
constexpr int VecBytes = 64, TileRows = 2 * MR;
#elif defined(__AVX__)
constexpr int VecBytes = 32, TileRows = MR;
#else
constexpr int VecBytes = 16, TileRows = MR;
#endif
constexpr int TileVecs = 2;
constexpr int VecLen = VecBytes / sizeof(double);
/// Columns per packed B panel: one row of the register tile. It divides NR,
/// so the panels cover exactly the full NR-wide panels of the column block.
constexpr int64_t PanelW = TileVecs * VecLen;
static_assert(NR % PanelW == 0 && TileRows % MR == 0,
              "register tiles must group whole MR x NR panels");

/// VecLen consecutive doubles, loaded and stored unaligned; like the
/// compilers' own __m512d_u, it may alias the double arrays it views.
typedef double Vec __attribute__((vector_size(VecBytes), aligned(8),
                                  may_alias));

/// Rows x PanelW register tile over packed panels: Ap holds a Rows-wide
/// column-major A panel (Ap[k*Rows + i]), Bp a PanelW-wide row-major B panel
/// (Bp[k*PanelW + j]). Each k loads the B row once as TileVecs vectors and
/// reuses them across the tile's rows; with the tile sized to the register
/// file, the accumulators never leave registers inside the k loop. Every
/// element starts at 0, adds a*b in ascending k and is added to C once —
/// the arithmetic of a 4 x 32 panel element, however the tile groups them.
template <int Rows>
inline void microKernel(double *__restrict__ C, const double *__restrict__ Ap,
                        const double *__restrict__ Bp, int64_t K,
                        int64_t LdC) {
  Vec Acc[Rows][TileVecs] = {};
  for (int64_t KK = 0; KK < K; ++KK) {
    Vec BRow[TileVecs];
    for (int V = 0; V < TileVecs; ++V)
      BRow[V] = *reinterpret_cast<const Vec *>(Bp + KK * PanelW + V * VecLen);
    for (int I = 0; I < Rows; ++I) {
      double AVal = Ap[KK * Rows + I];
      for (int V = 0; V < TileVecs; ++V)
        Acc[I][V] += AVal * BRow[V];
    }
  }
  for (int I = 0; I < Rows; ++I)
    for (int V = 0; V < TileVecs; ++V)
      *reinterpret_cast<Vec *>(C + I * LdC + V * VecLen) += Acc[I][V];
}

/// Rows x Vecs vectors of C over unpacked A and B: loads the tile once,
/// adds every a*b in ascending k as one `Acc += a * b`, and stores it once.
/// Each element sees the arithmetic of adding every product straight into
/// C, so the compiler contracts it into an FMA exactly where it contracts
/// `C[i][j] += a * b`. The tile holds C in registers across the k loop, so
/// C must not overlap A or B.
template <int Rows, int Vecs>
inline void directTile(double *C, const double *A, const double *B, int64_t K,
                       int64_t LdC, int64_t LdA, int64_t LdB) {
  Vec Acc[Rows][Vecs];
  for (int I = 0; I < Rows; ++I)
    for (int V = 0; V < Vecs; ++V)
      Acc[I][V] = *reinterpret_cast<const Vec *>(C + I * LdC + V * VecLen);
  for (int64_t KK = 0; KK < K; ++KK) {
    Vec BRow[Vecs];
    for (int V = 0; V < Vecs; ++V)
      BRow[V] = *reinterpret_cast<const Vec *>(B + KK * LdB + V * VecLen);
    for (int I = 0; I < Rows; ++I) {
      double AVal = A[I * LdA + KK];
      for (int V = 0; V < Vecs; ++V)
        Acc[I][V] += AVal * BRow[V];
    }
  }
  for (int I = 0; I < Rows; ++I)
    for (int V = 0; V < Vecs; ++V)
      *reinterpret_cast<Vec *>(C + I * LdC + V * VecLen) = Acc[I][V];
}

/// Rows rows of C over all N columns: groups of TileVecs vectors, then
/// single vectors, then the last N mod VecLen columns on a scalar loop that
/// adds each product to C in memory. A scalar register accumulator would
/// make the k loop a reduction, which GCC may vectorize in order with the
/// products split from their adds, losing the FMA contraction.
template <int Rows>
void directRows(double *C, const double *A, const double *B, int64_t N,
                int64_t K, int64_t LdC, int64_t LdA, int64_t LdB) {
  int64_t J = 0;
  for (; J + PanelW <= N; J += PanelW)
    directTile<Rows, TileVecs>(C + J, A, B + J, K, LdC, LdA, LdB);
  for (; J + VecLen <= N; J += VecLen)
    directTile<Rows, 1>(C + J, A, B + J, K, LdC, LdA, LdB);
  if (J < N)
    for (int I = 0; I < Rows; ++I)
      for (int64_t KK = 0; KK < K; ++KK) {
        double AVal = A[I * LdA + KK];
        for (int64_t JJ = J; JJ < N; ++JJ)
          C[I * LdC + JJ] += AVal * B[KK * LdB + JJ];
      }
}

/// The first R rows of C, for R in [1, Rows], as one tile of R rows, so
/// that the rows share each pass over B: one pass per row ran 3 x 512 x 512
/// and 7 x 1024 x 1024 at 0.4-0.6 times the speed of the seed's blocked
/// loop.
template <int Rows>
void directRowsUpTo(int64_t R, double *C, const double *A, const double *B,
                    int64_t N, int64_t K, int64_t LdC, int64_t LdA,
                    int64_t LdB) {
  if constexpr (Rows > 1)
    if (R < Rows)
      return directRowsUpTo<Rows - 1>(R, C, A, B, N, K, LdC, LdA, LdB);
  directRows<Rows>(C, A, B, N, K, LdC, LdA, LdB);
}

/// C[m,n] += A[m,k] * B[k,n] with every product added straight into C in
/// ascending k: rows in tiles of TileRows, then one tile of the rest.
void directKernel(double *C, const double *A, const double *B, int64_t M,
                  int64_t N, int64_t K, int64_t LdC, int64_t LdA,
                  int64_t LdB) {
  int64_t I = 0;
  for (; I + TileRows <= M; I += TileRows)
    directRows<TileRows>(C + I * LdC, A + I * LdA, B, N, K, LdC, LdA, LdB);
  if (I < M)
    directRowsUpTo<TileRows - 1>(M - I, C + I * LdC, A + I * LdA, B, N, K,
                                 LdC, LdA, LdB);
}

/// Rows [I, I + Rows) of one (K-block, N-block) step: packs the rows' A
/// panel on the worker's stack, streams every packed B panel through the
/// register tile, and leaves the column fringe to the direct kernel.
template <int Rows>
void gemmRowTile(double *C, const double *A, const double *Bp,
                 const double *BEdge, int64_t I, int64_t FullN, int64_t N,
                 int64_t KLen, int64_t LdC, int64_t LdA, int64_t LdB) {
  double Ap[Rows * BlockK];
  for (int64_t KK = 0; KK < KLen; ++KK)
    for (int64_t R = 0; R < Rows; ++R)
      Ap[KK * Rows + R] = A[(I + R) * LdA + KK];
  for (int64_t J = 0; J < FullN; J += PanelW)
    microKernel<Rows>(C + I * LdC + J, Ap, Bp + J * KLen, KLen, LdC);
  if (FullN < N)
    directRows<Rows>(C + I * LdC + FullN, A + I * LdA, BEdge + FullN,
                     N - FullN, KLen, LdC, LdA, LdB);
}

/// Rows [MLo, MHi) of one (K-block, N-block) step, in register tiles of
/// TileRows rows, then MR rows, then the direct kernel for the last M mod
/// MR. Workers own disjoint C rows and the per-element accumulation order
/// (ascending K within ascending K blocks) is independent of the split, so
/// parallel runs are bitwise-identical to sequential ones.
void gemmRowsPacked(double *C, const double *A, const double *Bp,
                    const double *BEdge, int64_t MLo, int64_t MHi, int64_t N,
                    int64_t KLen, int64_t LdC, int64_t LdA, int64_t LdB) {
  int64_t FullN = N - N % NR;
  int64_t I = MLo;
  for (; I + TileRows <= MHi; I += TileRows)
    gemmRowTile<TileRows>(C, A, Bp, BEdge, I, FullN, N, KLen, LdC, LdA, LdB);
  for (; I + MR <= MHi; I += MR)
    gemmRowTile<MR>(C, A, Bp, BEdge, I, FullN, N, KLen, LdC, LdA, LdB);
  if (I < MHi)
    directKernel(C + I * LdC, A + I * LdA, BEdge, MHi - I, N, KLen, LdC, LdA,
                 LdB);
}

} // namespace

void gemm(const LeafParallelism &LP, double *C, const double *A,
          const double *B, int64_t M, int64_t N, int64_t K, int64_t LdC,
          int64_t LdA, int64_t LdB) {
  if (M <= 0 || N <= 0 || K <= 0)
    return;
  int64_t Panels = (M + MR - 1) / MR;
  bool Parallel = shouldParallelize(LP, Panels, M * N * K, ParallelFlopCutoff);
  if (M * N * K < PackFlopCutoff || M < MR || N < NR) {
    // No full panel, or too little work to pay for packing: every product
    // adds straight into C, over the whole k range in one pass. Row panels
    // cover disjoint C rows, so any split is bitwise-identical.
    runRange(LP, Panels, Parallel, [&](int64_t Lo, int64_t Hi) {
      int64_t MLo = Lo * MR, MHi = std::min(Hi * MR, M);
      directKernel(C + MLo * LdC, A + MLo * LdA, B, MHi - MLo, N, K, LdC,
                   LdA, LdB);
    });
    return;
  }
  std::vector<double> Bp(
      static_cast<size_t>(std::min(BlockN, N) * std::min(BlockK, K)));
  for (int64_t J0 = 0; J0 < N; J0 += BlockN) {
    int64_t NLen = std::min(BlockN, N - J0);
    for (int64_t K0 = 0; K0 < K; K0 += BlockK) {
      int64_t KLen = std::min(BlockK, K - K0);
      const double *BBlock = B + K0 * LdB + J0;
      for (int64_t J = 0; J < NLen - NLen % NR; J += PanelW)
        for (int64_t KK = 0; KK < KLen; ++KK)
          for (int64_t R = 0; R < PanelW; ++R)
            Bp[J * KLen + KK * PanelW + R] = BBlock[KK * LdB + J + R];
      double *CBlock = C + J0;
      const double *ABlock = A + K0;
      // Row panels cover disjoint C rows: any split is bitwise-identical.
      runRange(LP, Panels, Parallel, [&](int64_t Lo, int64_t Hi) {
        gemmRowsPacked(CBlock, ABlock, Bp.data(), BBlock, Lo * MR,
                       std::min(Hi * MR, M), NLen, KLen, LdC, LdA, LdB);
      });
    }
  }
}

void gemm(double *C, const double *A, const double *B, int64_t M, int64_t N,
          int64_t K, int64_t LdC, int64_t LdA, int64_t LdB) {
  bool WantParallel = M * N * K >= ParallelFlopCutoff;
  gemm(WantParallel ? processLeaf() : LeafParallelism{}, C, A, B, M, N, K,
       LdC, LdA, LdB);
}

void gemmGeneral(const LeafParallelism &LP, double *C, const double *A,
                 const double *B, int64_t M, int64_t N, int64_t K,
                 int64_t CsM, int64_t CsN, int64_t AsM, int64_t AsK,
                 int64_t BsK, int64_t BsN) {
  if (M <= 0 || N <= 0 || K <= 0)
    return;
  if (CsN == 1 && AsK == 1 && BsN == 1) {
    gemm(LP, C, A, B, M, N, K, CsM, AsM, BsK);
    return;
  }
  if (CsM == 1 && AsM == 1 && BsK == 1) {
    // Column-major view: compute C^T += B^T * A^T with the blocked kernel.
    gemm(LP, C, B, A, N, M, K, CsN, BsN, AsK);
    return;
  }
  if (BsN != 1 && AsK == 1) {
    // B transposed: dot-product form keeps A's K loop dense. Rows of C are
    // disjoint, so the row fan-out is bitwise-deterministic. When the row
    // fan-out is declined (too few rows), the leaf budget goes to the dots
    // instead — their fixed-chunk association is the same either way.
    bool RowsParallel = shouldParallelize(LP, M, M * N * K, ParallelFlopCutoff);
    LeafParallelism DotLP = RowsParallel ? LeafParallelism{} : LP;
    runRange(LP, M, RowsParallel, [&](int64_t Lo, int64_t Hi) {
      for (int64_t I = Lo; I < Hi; ++I)
        for (int64_t J = 0; J < N; ++J)
          C[I * CsM + J * CsN] +=
              dotStrided(DotLP, A + I * AsM, 1, B + J * BsN, BsK, K);
    });
    return;
  }
  runRange(LP, M, shouldParallelize(LP, M, M * N * K, ParallelFlopCutoff),
           [&](int64_t Lo, int64_t Hi) {
             for (int64_t I = Lo; I < Hi; ++I)
               for (int64_t KK = 0; KK < K; ++KK) {
                 double AVal = A[I * AsM + KK * AsK];
                 const double *BRow = B + KK * BsK;
                 double *CRow = C + I * CsM;
                 for (int64_t J = 0; J < N; ++J)
                   CRow[J * CsN] += AVal * BRow[J * BsN];
               }
           });
}

void gemmGeneral(double *C, const double *A, const double *B, int64_t M,
                 int64_t N, int64_t K, int64_t CsM, int64_t CsN, int64_t AsM,
                 int64_t AsK, int64_t BsK, int64_t BsN) {
  bool WantParallel = M * N * K >= ParallelFlopCutoff;
  gemmGeneral(WantParallel ? processLeaf() : LeafParallelism{}, C, A, B, M, N,
              K, CsM, CsN, AsM, AsK, BsK, BsN);
}

void gemv(double *Y, const double *A, const double *X, int64_t M, int64_t K,
          int64_t LdA) {
  for (int64_t I = 0; I < M; ++I) {
    const double *__restrict__ ARow = A + I * LdA;
    double Sum = 0;
    for (int64_t KK = 0; KK < K; ++KK)
      Sum += ARow[KK] * X[KK];
    Y[I] += Sum;
  }
}

namespace {

/// Shared skeleton of the strided reductions: per-chunk partials combined
/// in chunk order. The chunk grid depends only on N, so every (pool, ways)
/// configuration computes bit-identical sums; a single-chunk N degenerates
/// to the plain left-to-right loop.
template <typename ChunkFn>
double reduceChunked(const LeafParallelism &LP, int64_t N,
                     const ChunkFn &Chunk) {
  int64_t NumChunks = (N + ReduceChunk - 1) / ReduceChunk;
  if (NumChunks <= 1)
    return Chunk(0, N);
  std::vector<double> Partials(static_cast<size_t>(NumChunks));
  runRange(LP, NumChunks, LP.enabled(), [&](int64_t Lo, int64_t Hi) {
    for (int64_t C = Lo; C < Hi; ++C)
      Partials[C] =
          Chunk(C * ReduceChunk, std::min((C + 1) * ReduceChunk, N));
  });
  double Sum = 0;
  for (double P : Partials)
    Sum += P;
  return Sum;
}

} // namespace

double dot(const LeafParallelism &LP, const double *A, const double *B,
           int64_t N) {
  return reduceChunked(LP, N, [&](int64_t Lo, int64_t Hi) {
    double Sum = 0;
    for (int64_t I = Lo; I < Hi; ++I)
      Sum += A[I] * B[I];
    return Sum;
  });
}

double dot(const double *A, const double *B, int64_t N) {
  return dot(LeafParallelism{}, A, B, N);
}

double dotStrided(const LeafParallelism &LP, const double *A, int64_t SA,
                  const double *B, int64_t SB, int64_t N) {
  if (SA == 1 && SB == 1)
    return dot(LP, A, B, N);
  return reduceChunked(LP, N, [&](int64_t Lo, int64_t Hi) {
    double Sum = 0;
    for (int64_t I = Lo; I < Hi; ++I)
      Sum += A[I * SA] * B[I * SB];
    return Sum;
  });
}

double dotStrided(const double *A, int64_t SA, const double *B, int64_t SB,
                  int64_t N) {
  return dotStrided(LeafParallelism{}, A, SA, B, SB, N);
}

double sumStrided(const LeafParallelism &LP, const double *A, int64_t SA,
                  int64_t N) {
  return reduceChunked(LP, N, [&](int64_t Lo, int64_t Hi) {
    double Sum = 0;
    for (int64_t I = Lo; I < Hi; ++I)
      Sum += A[I * SA];
    return Sum;
  });
}

double sumStrided(const double *A, int64_t SA, int64_t N) {
  return sumStrided(LeafParallelism{}, A, SA, N);
}

void axpy(const LeafParallelism &LP, double *Y, const double *X, double Alpha,
          int64_t N) {
  // Disjoint output ranges: any split is bitwise-identical.
  runRange(LP, N, shouldParallelize(LP, N, N, VectorParallelCutoff),
           [&](int64_t Lo, int64_t Hi) {
             for (int64_t I = Lo; I < Hi; ++I)
               Y[I] += Alpha * X[I];
           });
}

void axpy(double *Y, const double *X, double Alpha, int64_t N) {
  axpy(LeafParallelism{}, Y, X, Alpha, N);
}

void axpyStrided(const LeafParallelism &LP, double *Y, int64_t SY,
                 const double *X, int64_t SX, double Alpha, int64_t N) {
  if (SY == 1 && SX == 1) {
    axpy(LP, Y, X, Alpha, N);
    return;
  }
  runRange(LP, N, shouldParallelize(LP, N, N, VectorParallelCutoff),
           [&](int64_t Lo, int64_t Hi) {
             for (int64_t I = Lo; I < Hi; ++I)
               Y[I * SY] += Alpha * X[I * SX];
           });
}

void axpyStrided(double *Y, int64_t SY, const double *X, int64_t SX,
                 double Alpha, int64_t N) {
  axpyStrided(LeafParallelism{}, Y, SY, X, SX, Alpha, N);
}

void scaleStrided(const LeafParallelism &LP, double *Y, int64_t SY,
                  const double *X, int64_t SX, double Alpha, int64_t N) {
  runRange(LP, N, shouldParallelize(LP, N, N, VectorParallelCutoff),
           [&](int64_t Lo, int64_t Hi) {
             for (int64_t I = Lo; I < Hi; ++I)
               Y[I * SY] = Alpha * X[I * SX];
           });
}

} // namespace blas
} // namespace distal
