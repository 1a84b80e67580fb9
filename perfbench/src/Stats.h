//===- perfbench/src/Stats.h - Order statistics ----------------*- C++ -*-===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p P (0..100) of \p V; 0 when empty.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  return (Hi + *std::max_element(V.begin(), V.begin() + Mid)) / 2;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
