//===- runtime/PlanCache.h - Process-wide compiled-plan cache --*- C++ -*-===//
///
/// \file
/// A process-wide cache of CompiledPlan artifacts so that repeated
/// evaluations of the same scheduled statement on the same machine hit
/// steady state: Tensor::evaluate lowers, fingerprints, and looks up here
/// before paying the compile-phase analysis.
///
/// Keying: entries are keyed by PlanCache::keyFor — the plan's structural
/// fingerprint (statement, schedule/provenance relations, formats, tensor
/// shapes and identities, machine; see Plan::fingerprint). Execute-time
/// knobs (thread count, task/leaf split, views, trace mode) are
/// deliberately NOT part of the key: one artifact serves every
/// configuration and results are bitwise-identical across them. Because
/// the fingerprint includes tensor identity, recreating a tensor (or
/// redefining its computation or schedule) naturally misses and compiles
/// fresh; stale entries age out of the bounded LRU list. `invalidate` and
/// `clear` drop entries explicitly.
///
/// Memory ownership: the cache and any caller share the artifact through
/// shared_ptr; an artifact (with its reusable instance buffers) stays
/// alive while either holds it. Eviction or invalidation never invalidates
/// an execution in flight.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_PLANCACHE_H
#define DISTAL_RUNTIME_PLANCACHE_H

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/CompiledPlan.h"
#include "runtime/CompiledProgram.h"
#include "support/ResourceGovernor.h"

namespace distal {

/// Compatibility tag for PlanCache::keyFor's second parameter: the engine
/// has one leaf strategy, so the tag carries nothing and keyFor ignores it.
/// perfbench's layer timing still passes it; drop the tag together with
/// that caller at the next benchmark change.
enum class LeafStrategy { Compiled };

class PlanCache {
public:
  /// The process-wide instance used by Tensor::evaluate.
  static PlanCache &global();

  /// The cache key for compiling \p P (see LeafStrategy for the ignored
  /// tag).
  static std::string keyFor(const Plan &P,
                            LeafStrategy = LeafStrategy::Compiled);

  /// Returns the cached artifact for \p Key (refreshing its LRU position),
  /// or null. Counts a hit or miss.
  std::shared_ptr<CompiledPlan> find(const std::string &Key);

  /// Inserts (or replaces) the artifact for \p Key, evicting the least
  /// recently used entry beyond the capacity.
  void put(const std::string &Key, std::shared_ptr<CompiledPlan> CP);

  /// Drops the entry for \p Key; returns whether one existed.
  bool invalidate(const std::string &Key);

  /// Drops every entry — plan and program alike (hit/miss counters
  /// survive).
  void clear();

  size_t size() const;
  void setCapacity(size_t N);

  /// The cache key for a linked program over \p MemberKeys (the member
  /// artifacts' keyFor strings, in program order): the statement-
  /// fingerprint chain. Two programs share an artifact exactly when their
  /// statement chains would compile to the same linked graph.
  static std::string programKeyFor(const std::vector<std::string> &MemberKeys);

  /// Returns the cached program artifact for \p Key (refreshing its LRU
  /// position), or null. Counts a program hit or miss. Program entries
  /// live in their own bounded LRU: a program co-owns its member
  /// CompiledPlans (shared_ptr), so evicting a member plan entry never
  /// invalidates a cached program — and vice versa.
  std::shared_ptr<CompiledProgram> findProgram(const std::string &Key);

  /// Inserts (or replaces) the program artifact for \p Key, evicting the
  /// least recently used program entry beyond the program capacity.
  void putProgram(const std::string &Key, std::shared_ptr<CompiledProgram> CP);

  /// Number of cached program artifacts.
  size_t programSize() const;
  /// Caps the program LRU (default 16).
  void setProgramCapacity(size_t N);

  struct Stats {
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t ProgramHits = 0;   ///< findProgram hits.
    int64_t ProgramMisses = 0; ///< findProgram misses.
  };
  Stats stats() const;

  /// Aggregated admission-queue counters over every currently cached
  /// artifact, plan and program alike (see AdmissionQueue::Stats): the
  /// multi-tenant view — how many executions the cache's artifacts
  /// admitted, coalesced, rejected, cancelled, and shed, how many
  /// submissions an open breaker refused, and how many run right now. Counts sum across artifacts; PeakActive
  /// is the *maximum* of the per-artifact high-water marks (per-artifact
  /// peaks at different times are not additive, so a sum would overstate
  /// overlap). Evicted artifacts' counters leave the aggregate with them.
  AdmissionQueue::Stats admissionStats() const;

  /// Memory-pressure floors: while ResourceGovernor::pressure() is
  /// non-None, both LRUs evict down to these sizes instead of their
  /// configured capacities (cached artifacts are the shed-last tier —
  /// cheap to recompile, expensive to keep under pressure). Each eviction
  /// beyond what the configured capacity required is counted by
  /// ResourceGovernor::noteCacheShrink().
  static constexpr size_t PlanFloor = 4;
  /// Pressure floor of the program LRU (see PlanFloor).
  static constexpr size_t ProgramFloor = 2;

private:
  struct Entry {
    std::string Key;
    std::shared_ptr<CompiledPlan> CP;
    /// Governor ledger for the artifact's footprintBytes().
    ResourceGovernor::Charge Mem;
  };
  struct ProgramEntry {
    std::string Key;
    std::shared_ptr<CompiledProgram> CP;
    /// Governor ledger for the program's linking-overhead footprint.
    ResourceGovernor::Charge Mem;
  };

  /// Evicts LRU tails down to the effective capacities (the pressure
  /// floors under non-None pressure). Callers hold Mu.
  void evictLocked();

  mutable std::mutex Mu;
  size_t Capacity = 64;
  std::list<Entry> LRU; ///< Front = most recently used.
  std::map<std::string, std::list<Entry>::iterator> Index;
  size_t ProgramCapacity = 16;
  std::list<ProgramEntry> ProgramLRU; ///< Front = most recently used.
  std::map<std::string, std::list<ProgramEntry>::iterator> ProgramIndex;
  Stats S;
};

} // namespace distal

#endif // DISTAL_RUNTIME_PLANCACHE_H
