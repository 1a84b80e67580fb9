//===- perfbench/src/Reference.h - Independent references ------*- C++ -*-===//
///
/// \file
/// Plain C++ references for every output the benchmark checks. They take
/// inputs regenerated from the seed (Inputs.h), never data read back from
/// the library, and use naive loops, so a bug in a DISTAL layer cannot
/// cancel out. Each returns the largest absolute error of \p Got.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <vector>

namespace perfbench {

/// C = A * B, all N x N row-major, checked on every column of \p Rows and
/// every row of \p Cols.
double gemmSampledError(const double *Got, const std::vector<double> &A,
                        const std::vector<double> &B, int64_t N,
                        const std::vector<int64_t> &Rows,
                        const std::vector<int64_t> &Cols);

/// C = A * B, all N x N row-major, checked everywhere.
double gemmFullError(const double *Got, const std::vector<double> &A,
                     const std::vector<double> &B, int64_t N);

/// A(i,l) = sum_jk B(i,j,k) C(j,l) D(k,l); B is Dim^3, C and D Dim x Rank.
double mttkrpError(const double *Got, const std::vector<double> &B,
                   const std::vector<double> &C, const std::vector<double> &D,
                   int64_t Dim, int64_t Rank);

/// A(i,j,l) = sum_k B(i,j,k) C(k,l); B is Dim^3, C Dim x Rank.
double ttmError(const double *Got, const std::vector<double> &B,
                const std::vector<double> &C, int64_t Dim, int64_t Rank);

/// K steps of x <- x * Mul + Add from \p X0, by the closed form
/// x_K = Mul^K x_0 + Add (Mul^K - 1) / (Mul - 1).
double powerChainError(const double *Got, const std::vector<double> &X0,
                       int K, double Mul, double Add);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
