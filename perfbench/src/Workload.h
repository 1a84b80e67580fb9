//===- perfbench/src/Workload.h - Benchmark workloads ----------*- C++ -*-===//
///
/// \file
/// A workload is a set of closed-loop clients, each with a private catalogue
/// of scheduled statements (entries) it evaluates through the public API.
/// Why each workload exists is recorded in BENCHMARK.json and README.md.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/Program.h"
#include "api/Tensor.h"

namespace perfbench {

struct Config {
  uint64_t Seed = 0;
  /// Tiny sizes: every code path and check runs in well under a second.
  bool Smoke = false;
};

/// The GEMM leaf shape of an entry's tasks and how many of them run at once.
struct LeafTile {
  int64_t M = 0, N = 0, K = 0;
  int Ways = 1;
};

/// One catalogue entry: a scheduled statement, or a linked chain of them
/// evaluated as one Program, with its own tensors and machine.
struct Entry {
  std::string Kind;
  distal::Machine M;
  std::vector<std::unique_ptr<distal::Tensor>> Tensors;
  /// Statement outputs in program order; the last one is the checked output.
  std::vector<distal::Tensor *> Stmts;
  /// Set when the entry is a linked chain.
  std::unique_ptr<distal::Program> Prog;
  /// Execute options of every statement (thread count).
  distal::ExecOptions Opts;
  /// Floating-point operations of one execution of Stmts[0].
  double StmtFlops = 0;
  LeafTile Leaf;
  /// Largest absolute error of an output against the entry's independent
  /// reference, built from inputs regenerated from the seed.
  std::function<double(const double *)> ReferenceError;
  /// The output bytes of the first set-up's warm-up, checked against the
  /// reference (owned by the Workload); every later evaluation, in any
  /// set-up, must reproduce them bit for bit.
  const std::vector<double> *Golden = nullptr;

  distal::Tensor &out() const { return *Stmts.back(); }
  /// One evaluation through the public API: Program::evaluate for a chain,
  /// Tensor::evaluateUncached when \p Cold, else Tensor::evaluate. Throws
  /// DistalError on failure.
  void evaluate(bool Cold);
  /// Every tensor of the entry mapped to its backing region.
  std::map<distal::TensorVar, distal::Region *> regions() const;
  /// Whether the output region holds exactly the golden bytes.
  bool matchesGolden() const;
  /// Writes NaN into a fixed pseudo-random spread of output elements. The
  /// output region persists across evaluations, so without this a request
  /// that skipped the execution or its final writeback would still leave
  /// the golden bytes behind and pass matchesGolden().
  void poisonOutput();
};

struct Request {
  int Entry = 0;
  bool Cold = false;
};

class Workload {
public:
  using CatalogueFn =
      std::function<std::vector<Entry>(int Client, const Config &)>;

  Workload(std::string Name, Config Cfg, int Clients, int Threads,
           int ColdEvery, CatalogueFn Build);

  const std::string &name() const { return Name; }
  const Config &config() const { return Cfg; }
  int clients() const { return Clients; }
  /// Threads one execution uses.
  int threads() const { return Threads; }

  /// Builds every client's catalogue (tensors, seeded fills, schedules) and
  /// evaluates each entry once: the cold lower, fingerprint and compile of
  /// every artifact plus one warm-up execution. Returns how many warm-up
  /// outputs differ from the golden bytes (0 before they are recorded).
  int setup();
  /// Drops the catalogues and every cached artifact.
  void teardown();
  /// Checks every warm-up output against its reference and records it as
  /// the golden bytes of that entry in this and every later set-up. Returns
  /// the number of outputs out of tolerance; \p MaxError receives the
  /// largest error seen.
  int verifyAgainstReferences(double &MaxError);

  /// Request \p Index of \p Client: the entry (a seeded Zipf(s=1) pick when
  /// the catalogue has several) and whether it is a cold request. A pure
  /// function of the seed, the client and the index.
  Request plan(int Client, int64_t Index) const;
  Entry &entry(int Client, int Index) { return Catalogues[Client][Index]; }
  /// The entry whose statement the per-layer probes time.
  Entry &primary() { return entry(0, 0); }
  std::vector<Entry *> entries();

  /// FNV-1a digest of every golden output (traced and untraced runs of one
  /// seed must print the same digest).
  uint64_t digest() const;

private:
  std::string Name;
  Config Cfg;
  int Clients, Threads, ColdEvery;
  CatalogueFn Build;
  std::vector<std::vector<Entry>> Catalogues;
  std::vector<std::vector<double>> Goldens; ///< In entries() order.
};

/// The workload named \p Name, or null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Config &Cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
