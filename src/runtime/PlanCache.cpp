//===- runtime/PlanCache.cpp ----------------------------------*- C++ -*-===//

#include "runtime/PlanCache.h"

#include <algorithm>

using namespace distal;

PlanCache &PlanCache::global() {
  static PlanCache Cache;
  return Cache;
}

std::string PlanCache::keyFor(const Plan &P, LeafStrategy) {
  return P.fingerprint();
}

void PlanCache::evictLocked() {
  // Under memory pressure the LRUs shrink to their floors: cached
  // artifacts are the cheapest memory to give back (recompilable on
  // demand), so they go first when the governor reports pressure.
  // Evictions the configured capacity alone would not have forced are
  // counted as cache shrinks.
  bool Pressured =
      ResourceGovernor::pressure() != ResourceGovernor::Pressure::None;
  size_t Cap = Pressured ? std::min(Capacity, PlanFloor) : Capacity;
  while (LRU.size() > Cap) {
    if (LRU.size() <= Capacity)
      ResourceGovernor::noteCacheShrink();
    Index.erase(LRU.back().Key);
    LRU.pop_back();
  }
  size_t PCap =
      Pressured ? std::min(ProgramCapacity, ProgramFloor) : ProgramCapacity;
  while (ProgramLRU.size() > PCap) {
    if (ProgramLRU.size() <= ProgramCapacity)
      ResourceGovernor::noteCacheShrink();
    ProgramIndex.erase(ProgramLRU.back().Key);
    ProgramLRU.pop_back();
  }
}

std::shared_ptr<CompiledPlan> PlanCache::find(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++S.Misses;
    return nullptr;
  }
  ++S.Hits;
  LRU.splice(LRU.begin(), LRU, It->second);
  std::shared_ptr<CompiledPlan> CP = It->second->CP;
  evictLocked(); // The found entry sits at the front; floors are >= 1.
  return CP;
}

void PlanCache::put(const std::string &Key, std::shared_ptr<CompiledPlan> CP) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->CP = std::move(CP);
    It->second->Mem.reset();
    It->second->Mem.add(It->second->CP->footprintBytes());
    LRU.splice(LRU.begin(), LRU, It->second);
    return;
  }
  LRU.emplace_front();
  LRU.front().Key = Key;
  LRU.front().CP = std::move(CP);
  LRU.front().Mem.add(LRU.front().CP->footprintBytes());
  Index[Key] = LRU.begin();
  evictLocked();
}

bool PlanCache::invalidate(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end())
    return false;
  LRU.erase(It->second);
  Index.erase(It);
  return true;
}

std::string
PlanCache::programKeyFor(const std::vector<std::string> &MemberKeys) {
  std::string Key = "program{";
  for (const std::string &K : MemberKeys) {
    Key += K;
    Key += '|';
  }
  Key += '}';
  return Key;
}

std::shared_ptr<CompiledProgram> PlanCache::findProgram(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = ProgramIndex.find(Key);
  if (It == ProgramIndex.end()) {
    ++S.ProgramMisses;
    return nullptr;
  }
  ++S.ProgramHits;
  ProgramLRU.splice(ProgramLRU.begin(), ProgramLRU, It->second);
  std::shared_ptr<CompiledProgram> CP = It->second->CP;
  evictLocked();
  return CP;
}

void PlanCache::putProgram(const std::string &Key,
                           std::shared_ptr<CompiledProgram> CP) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = ProgramIndex.find(Key);
  if (It != ProgramIndex.end()) {
    It->second->CP = std::move(CP);
    It->second->Mem.reset();
    It->second->Mem.add(It->second->CP->footprintBytes());
    ProgramLRU.splice(ProgramLRU.begin(), ProgramLRU, It->second);
    return;
  }
  ProgramLRU.emplace_front();
  ProgramLRU.front().Key = Key;
  ProgramLRU.front().CP = std::move(CP);
  ProgramLRU.front().Mem.add(ProgramLRU.front().CP->footprintBytes());
  ProgramIndex[Key] = ProgramLRU.begin();
  evictLocked();
}

size_t PlanCache::programSize() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return ProgramLRU.size();
}

void PlanCache::setProgramCapacity(size_t N) {
  std::lock_guard<std::mutex> Lock(Mu);
  ProgramCapacity = N > 0 ? N : 1;
  while (ProgramLRU.size() > ProgramCapacity) {
    ProgramIndex.erase(ProgramLRU.back().Key);
    ProgramLRU.pop_back();
  }
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  LRU.clear();
  Index.clear();
  ProgramLRU.clear();
  ProgramIndex.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return LRU.size();
}

void PlanCache::setCapacity(size_t N) {
  std::lock_guard<std::mutex> Lock(Mu);
  Capacity = N > 0 ? N : 1;
  while (LRU.size() > Capacity) {
    Index.erase(LRU.back().Key);
    LRU.pop_back();
  }
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

AdmissionQueue::Stats PlanCache::admissionStats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  AdmissionQueue::Stats Agg;
  auto add = [&Agg](AdmissionQueue &Q) {
    AdmissionQueue::Stats One = Q.stats();
    Agg.Admitted += One.Admitted;
    Agg.Coalesced += One.Coalesced;
    Agg.Rejected += One.Rejected;
    Agg.Cancelled += One.Cancelled;
    Agg.Shed += One.Shed;
    Agg.BreakerOpen += One.BreakerOpen;
    Agg.Active += One.Active;
    Agg.Queued += One.Queued;
    // Per-artifact high-water marks are not additive (they may have been
    // hit at different times); the meaningful aggregate is the largest.
    Agg.PeakActive = std::max(Agg.PeakActive, One.PeakActive);
  };
  for (const Entry &E : LRU)
    add(E.CP->admission());
  for (const ProgramEntry &E : ProgramLRU)
    add(E.CP->admission());
  return Agg;
}
