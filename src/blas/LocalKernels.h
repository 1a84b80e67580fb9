//===- blas/LocalKernels.h - Local dense leaf kernels ----------*- C++ -*-===//
///
/// \file
/// Single-processor dense kernels substituted at schedule leaves (Fig. 2
/// line 40 uses CuBLAS::GeMM; we provide a register-blocked CPU GEMM with
/// the same row-major strided interface). These set the single-node
/// roofline; the distribution machinery above them is what DISTAL
/// contributes.
///
/// Every kernel has a pool-parameterized form taking a LeafParallelism
/// handle (the ExecContext's pool plus a ways budget) as its first
/// argument; fan-out happens as sub-range jobs on that pool, so nested
/// (task x leaf) parallelism shares one thread set. The handle-free forms
/// are conveniences for standalone callers: they fan out over the
/// process-global pool when profitable, and run sequentially when invoked
/// from inside any pool's worker. All kernels are bitwise-deterministic
/// for every pool size and ways budget: parallel splits cover disjoint
/// output ranges, and reductions use a fixed chunk association independent
/// of the split.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_BLAS_LOCALKERNELS_H
#define DISTAL_BLAS_LOCALKERNELS_H

#include <cstdint>

#include "support/ExecContext.h"

namespace distal {
namespace blas {

/// Depth of gemm's packed k blocks: the register tile sums an element's
/// products over one block from zero and adds the sum to C once per block.
constexpr int64_t GemmBlockK = 256;

/// C[m,n] += A[m,k] * B[k,n] with row strides LdC/LdA/LdB (row-major,
/// unit column stride). C must not overlap A or B. Packs A/B panels and
/// runs a register-tiled micro-kernel whose vector width follows the ISA
/// the build targets (an 8 x 16 tile of zmm accumulators with AVX-512,
/// 4 x 8 ymm with AVX, 4 x 4 xmm otherwise), with the same bytes as 4 x 32
/// panels in every build; row panels of 4 rows fan out over \p LP when the
/// problem is large enough. The fringe columns and rows of that panel grid,
/// and whole problems under 2^16 multiply-adds, with fewer than 4 rows or
/// fewer than 32 columns, run a direct kernel instead: it holds a tile of C
/// in registers for the whole k loop and adds every product straight into
/// it in ascending k.
void gemm(const LeafParallelism &LP, double *C, const double *A,
          const double *B, int64_t M, int64_t N, int64_t K, int64_t LdC,
          int64_t LdA, int64_t LdB);
void gemm(double *C, const double *A, const double *B, int64_t M, int64_t N,
          int64_t K, int64_t LdC, int64_t LdA, int64_t LdB);

/// Fully strided GEMM: C[m*CsM + n*CsN] += A[m*AsM + k*AsK] *
/// B[k*BsK + n*BsN]. Dispatches to the blocked kernel when every innermost
/// stride is 1; otherwise picks a loop order that keeps the innermost loop
/// as dense as possible (handles transposed operand layouts).
void gemmGeneral(const LeafParallelism &LP, double *C, const double *A,
                 const double *B, int64_t M, int64_t N, int64_t K,
                 int64_t CsM, int64_t CsN, int64_t AsM, int64_t AsK,
                 int64_t BsK, int64_t BsN);
void gemmGeneral(double *C, const double *A, const double *B, int64_t M,
                 int64_t N, int64_t K, int64_t CsM, int64_t CsN, int64_t AsM,
                 int64_t AsK, int64_t BsK, int64_t BsN);

/// y[m] += A[m,k] * x[k].
void gemv(double *Y, const double *A, const double *X, int64_t M, int64_t K,
          int64_t LdA);

/// Dot product of two contiguous vectors.
double dot(const LeafParallelism &LP, const double *A, const double *B,
           int64_t N);
double dot(const double *A, const double *B, int64_t N);

/// Dot product with arbitrary element strides.
double dotStrided(const LeafParallelism &LP, const double *A, int64_t SA,
                  const double *B, int64_t SB, int64_t N);
double dotStrided(const double *A, int64_t SA, const double *B, int64_t SB,
                  int64_t N);

/// Sum of a strided vector.
double sumStrided(const LeafParallelism &LP, const double *A, int64_t SA,
                  int64_t N);
double sumStrided(const double *A, int64_t SA, int64_t N);

/// y[i] += alpha * x[i].
void axpy(const LeafParallelism &LP, double *Y, const double *X, double Alpha,
          int64_t N);
void axpy(double *Y, const double *X, double Alpha, int64_t N);

/// y[i*SY] += alpha * x[i*SX].
void axpyStrided(const LeafParallelism &LP, double *Y, int64_t SY,
                 const double *X, int64_t SX, double Alpha, int64_t N);
void axpyStrided(double *Y, int64_t SY, const double *X, int64_t SX,
                 double Alpha, int64_t N);

/// y[i*SY] = alpha * x[i*SX] — the overwrite (=) sibling of axpyStrided,
/// used by leaves running in overwrite mode after a zero-skip. Disjoint
/// output ranges: any split is bitwise-identical.
void scaleStrided(const LeafParallelism &LP, double *Y, int64_t SY,
                  const double *X, int64_t SX, double Alpha, int64_t N);

} // namespace blas
} // namespace distal

#endif // DISTAL_BLAS_LOCALKERNELS_H
