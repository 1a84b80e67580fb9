//===- perfbench/src/Inputs.h - Seeded input generator ---------*- C++ -*-===//
///
/// \file
/// Every input the benchmark feeds the library comes from here: element
/// values are a pure function of (seed, tensor salt, element index), so the
/// same seed gives the same tensors whatever order they are filled in, and
/// the references regenerate them without reading anything back from the
/// library. Request sequences (Zipf picks, the cold-request phase) come from
/// a splitmix64 stream seeded the same way.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <vector>

namespace perfbench {

inline uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Element \p Index of the tensor salted \p Salt under \p Seed, uniform in
/// [-0.5, 0.5).
inline double inputValue(uint64_t Seed, uint64_t Salt, uint64_t Index) {
  uint64_t H = splitmix64(Seed ^ splitmix64(Salt ^ splitmix64(Index)));
  return static_cast<double>(H >> 11) * 0x1.0p-53 - 0.5;
}

/// The row-major array of \p Count elements inputValue defines.
inline std::vector<double> inputArray(uint64_t Seed, uint64_t Salt,
                                      int64_t Count) {
  std::vector<double> V(static_cast<size_t>(Count));
  for (int64_t I = 0; I < Count; ++I)
    V[I] = inputValue(Seed, Salt, static_cast<uint64_t>(I));
  return V;
}

/// A splitmix64 stream.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() { return splitmix64(State++); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// Zipf(s = 1) over ranks 0..N-1: P(rank k) proportional to 1 / (k + 1).
class Zipf {
public:
  explicit Zipf(int N) : Cdf(static_cast<size_t>(N)) {
    double Sum = 0;
    for (int K = 0; K < N; ++K)
      Cdf[K] = Sum += 1.0 / (K + 1);
    for (double &C : Cdf)
      C /= Sum;
  }
  int sample(Rng &R) const {
    double U = R.uniform();
    int K = 0;
    while (K + 1 < static_cast<int>(Cdf.size()) && U >= Cdf[K])
      ++K;
    return K;
  }

private:
  std::vector<double> Cdf;
};

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
