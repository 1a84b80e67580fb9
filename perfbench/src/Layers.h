//===- perfbench/src/Layers.h - Per-layer probes ---------------*- C++ -*-===//
///
/// \file
/// The traced run's per-layer breakdown. Every number comes from timing a
/// call into one module's public functions (lower, PlanCache, CompiledPlan,
/// AdmissionQueue, Region, blas, CompiledProgram) from these benchmark files,
/// each call inside a span, or from a module's own counters. Nothing is
/// traced inside the library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string>
#include <vector>

#include "Workload.h"
#include "runtime/PlanCache.h"

namespace perfbench {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// PlanCache and admission counters.
struct Counters {
  int64_t Hits = 0, Misses = 0;
  int64_t Admitted = 0, Coalesced = 0, Rejected = 0;
  int PeakActive = 0;
  /// The counters now (admission counters sum over cached artifacts).
  static Counters now();
  /// Adds what changed from \p Before to \p After; PeakActive keeps the
  /// larger high-water mark.
  void addDelta(const Counters &Before, const Counters &After);
};

/// What the traced run measured before the probes: counters summed over the
/// timed windows (set-ups excluded) and the untraced and traced throughputs.
struct TracedWindows {
  Counters Windows;
  double UntracedPerS = 0, TracedPerS = 0;
};

/// Runs every per-layer probe on \p W (with ActiveRecorder armed) and
/// returns the per-layer metrics. Probes that execute check the output
/// against the golden bytes; each check adds to \p Attempted, each mismatch
/// or failed execution to \p Failed.
std::vector<Metric> layerMetrics(Workload &W, const TracedWindows &Win,
                                 int64_t &Attempted, int64_t &Failed);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
