//===- perfbench/src/Reference.cpp ----------------------------*- C++ -*-===//

#include "Reference.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

namespace {

double gemmPoint(const std::vector<double> &A, const std::vector<double> &B,
                 int64_t N, int64_t I, int64_t J) {
  double Sum = 0;
  for (int64_t K = 0; K < N; ++K)
    Sum += A[I * N + K] * B[K * N + J];
  return Sum;
}

} // namespace

double perfbench::gemmSampledError(const double *Got,
                                   const std::vector<double> &A,
                                   const std::vector<double> &B, int64_t N,
                                   const std::vector<int64_t> &Rows,
                                   const std::vector<int64_t> &Cols) {
  double Err = 0;
  for (int64_t I : Rows)
    for (int64_t J = 0; J < N; ++J)
      Err = std::max(Err, std::abs(Got[I * N + J] - gemmPoint(A, B, N, I, J)));
  for (int64_t J : Cols)
    for (int64_t I = 0; I < N; ++I)
      Err = std::max(Err, std::abs(Got[I * N + J] - gemmPoint(A, B, N, I, J)));
  return Err;
}

double perfbench::gemmFullError(const double *Got,
                                const std::vector<double> &A,
                                const std::vector<double> &B, int64_t N) {
  double Err = 0;
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J)
      Err = std::max(Err, std::abs(Got[I * N + J] - gemmPoint(A, B, N, I, J)));
  return Err;
}

double perfbench::mttkrpError(const double *Got, const std::vector<double> &B,
                              const std::vector<double> &C,
                              const std::vector<double> &D, int64_t Dim,
                              int64_t Rank) {
  double Err = 0;
  for (int64_t I = 0; I < Dim; ++I)
    for (int64_t L = 0; L < Rank; ++L) {
      double Sum = 0;
      for (int64_t J = 0; J < Dim; ++J)
        for (int64_t K = 0; K < Dim; ++K)
          Sum += B[(I * Dim + J) * Dim + K] * C[J * Rank + L] * D[K * Rank + L];
      Err = std::max(Err, std::abs(Got[I * Rank + L] - Sum));
    }
  return Err;
}

double perfbench::ttmError(const double *Got, const std::vector<double> &B,
                           const std::vector<double> &C, int64_t Dim,
                           int64_t Rank) {
  double Err = 0;
  for (int64_t I = 0; I < Dim; ++I)
    for (int64_t J = 0; J < Dim; ++J)
      for (int64_t L = 0; L < Rank; ++L) {
        double Sum = 0;
        for (int64_t K = 0; K < Dim; ++K)
          Sum += B[(I * Dim + J) * Dim + K] * C[K * Rank + L];
        Err = std::max(Err, std::abs(Got[(I * Dim + J) * Rank + L] - Sum));
      }
  return Err;
}

double perfbench::powerChainError(const double *Got,
                                  const std::vector<double> &X0, int K,
                                  double Mul, double Add) {
  double MulK = std::pow(Mul, K);
  double Offset = Add * (MulK - 1) / (Mul - 1);
  double Err = 0;
  for (size_t I = 0; I < X0.size(); ++I)
    Err = std::max(Err, std::abs(Got[I] - (MulK * X0[I] + Offset)));
  return Err;
}
