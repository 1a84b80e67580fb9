//===- support/FaultInjector.cpp ------------------------------*- C++ -*-===//

#include "support/FaultInjector.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "support/EnvParse.h"
#include "support/ResourceGovernor.h"
#include "support/Status.h"

using namespace distal;
using namespace distal::envparse;

std::atomic<bool> FaultInjector::Armed{false};

namespace {

/// All mutable injector state behind one mutex: configuration changes are
/// rare (tests, process start), and the armed fast path never touches it.
struct InjectorState {
  std::mutex Mu;
  FaultInjector::Config Cfg;
  std::array<std::atomic<int64_t>, FaultInjector::NumSites> Arrivals{};
  std::array<std::atomic<int64_t>, FaultInjector::NumSites> Injected{};
  std::atomic<int64_t> TotalInjected{0};
  /// Execution sequence numbers handed to ExecutionScopes (see
  /// beginExecution); reset by configure() so every armed scenario starts
  /// its executions at sequence 0.
  std::atomic<uint64_t> ExecCounter{0};
};

InjectorState &state() {
  static InjectorState S;
  return S;
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Installs the environment configuration once, at static-initialization
/// time, so DISTAL_FAULT_* arms the hooks without any code change. Any
/// validation warning prints to stderr here — the one place the raw
/// environment is consumed.
struct EnvInit {
  EnvInit() {
    std::string Warnings;
    FaultInjector::Config C = FaultInjector::parseEnvConfig(
        std::getenv("DISTAL_FAULT_RATE"), std::getenv("DISTAL_FAULT_SEED"),
        std::getenv("DISTAL_FAULT_SITES"), std::getenv("DISTAL_FAULT_MAX"),
        std::getenv("DISTAL_FAULT_ACTION"),
        std::getenv("DISTAL_FAULT_DELAY_US"), &Warnings);
    if (!Warnings.empty())
      std::fputs(Warnings.c_str(), stderr);
    if (C.Rate > 0 && C.SiteMask != 0)
      FaultInjector::configure(C);
  }
} EnvInitOnce;

} // namespace

FaultInjector::Config FaultInjector::parseEnvConfig(
    const char *Rate, const char *Seed, const char *Sites, const char *Max,
    const char *ActionStr, const char *DelayUs, std::string *Warnings) {
  Config C;
  if (envSet(Rate)) {
    double V;
    if (!parseDoubleStrict(Rate, V) || V < 0 || V > 1)
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_FAULT_RATE '") +
                         Rate + "' (want a probability in [0, 1])");
    else
      C.Rate = V;
  }
  if (envSet(Seed)) {
    uint64_t V;
    if (!parseU64Strict(Seed, V))
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_FAULT_SEED '") +
                         Seed + "' (want an unsigned integer)");
    else
      C.Seed = V;
  }
  C.SiteMask = allSites();
  if (envSet(Sites))
    C.SiteMask = parseSites(Sites, Warnings);
  if (envSet(Max)) {
    int64_t V;
    if (!parseI64Strict(Max, V))
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_FAULT_MAX '") +
                         Max + "' (want an integer; < 0 = unlimited)");
    else
      C.MaxInjections = V;
  }
  if (envSet(ActionStr)) {
    if (std::strcmp(ActionStr, "throw") == 0)
      C.Act = Action::Throw;
    else if (std::strcmp(ActionStr, "delay") == 0)
      C.Act = Action::Delay;
    else
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_FAULT_ACTION '") +
                         ActionStr + "' (want 'throw' or 'delay')");
  }
  if (envSet(DelayUs)) {
    int64_t V;
    if (!parseI64Strict(DelayUs, V) || V < 0)
      warn(Warnings, std::string("distal: ignoring malformed "
                                 "DISTAL_FAULT_DELAY_US '") +
                         DelayUs + "' (want a non-negative integer)");
    else
      C.DelayMicros = V;
  }
  return C;
}

const char *FaultInjector::siteName(Site S) {
  switch (S) {
  case Site::Gather:
    return "gather";
  case Site::Leaf:
    return "leaf";
  case Site::Writeback:
    return "writeback";
  case Site::Alloc:
    return "alloc";
  }
  unreachable("unknown fault site");
}

uint32_t FaultInjector::parseSites(const std::string &Spec,
                                   std::string *Warnings) {
  uint32_t Mask = 0;
  std::stringstream SS(Spec);
  std::string Name;
  while (std::getline(SS, Name, ',')) {
    if (Name == "all")
      return allSites();
    bool Known = false;
    for (int I = 0; I < NumSites; ++I)
      if (Name == siteName(static_cast<Site>(I))) {
        Mask |= 1u << I;
        Known = true;
      }
    if (!Known)
      warn(Warnings, "distal: unknown fault site '" + Name +
                         "' in DISTAL_FAULT_SITES (want "
                         "gather,leaf,writeback,alloc or 'all')");
  }
  return Mask;
}

void FaultInjector::configure(const Config &C) {
  InjectorState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Cfg = C;
  for (int I = 0; I < NumSites; ++I) {
    S.Arrivals[I].store(0, std::memory_order_relaxed);
    S.Injected[I].store(0, std::memory_order_relaxed);
  }
  S.TotalInjected.store(0, std::memory_order_relaxed);
  S.ExecCounter.store(0, std::memory_order_relaxed);
  Armed.store((C.Rate > 0 ||
               (C.AllocAboveBytes >= 0 &&
                (C.SiteMask & maskFor(Site::Alloc)))) &&
                  C.SiteMask != 0,
              std::memory_order_release);
}

void FaultInjector::disarm() { configure(Config{}); }

FaultInjector::Config FaultInjector::current() {
  InjectorState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Cfg;
}

FaultInjector::Stats FaultInjector::stats() {
  InjectorState &S = state();
  Stats St;
  for (int I = 0; I < NumSites; ++I) {
    St.Arrivals[I] = S.Arrivals[I].load(std::memory_order_relaxed);
    St.Injected[I] = S.Injected[I].load(std::memory_order_relaxed);
  }
  return St;
}

void FaultInjector::beginExecution(ExecutionScope &E) {
  if (!armed()) {
    E.Active = false;
    return;
  }
  E.ExecSeq = state().ExecCounter.fetch_add(1, std::memory_order_relaxed);
  for (auto &A : E.Arrivals)
    A.store(0, std::memory_order_relaxed);
  E.Active = true;
}

void FaultInjector::injectSlow(Site S, ExecutionScope *E) {
  InjectorState &St = state();
  // Snapshot the config without the lock: configure() only runs while no
  // execution is in flight (tests, process start), and the fields are
  // plain values read-only here.
  const Config &C = St.Cfg;
  int SI = static_cast<int>(S);
  if (!(C.SiteMask & (1u << SI)))
    return;
  // Scoped sites count arrivals inside their execution (and fold the
  // execution's sequence number into the hash), so each execution sees the
  // schedule a serial run of it would — independent of sibling arenas.
  // The global counter doubles as the index source for unscoped sites and
  // as the process-wide arrival statistic either way.
  int64_t GlobalArrival =
      St.Arrivals[SI].fetch_add(1, std::memory_order_relaxed);
  bool Scoped = E != nullptr && E->Active;
  int64_t Arrival =
      Scoped ? E->Arrivals[SI].fetch_add(1, std::memory_order_relaxed)
             : GlobalArrival;
  uint64_t SeqKey = Scoped ? (E->ExecSeq << 28) : 0;
  // Deterministic per-(seed, site, execution, arrival) decision,
  // independent of how threads interleave arrivals.
  uint64_t H = splitmix64(C.Seed ^ (static_cast<uint64_t>(SI) << 56) ^
                          SeqKey ^ static_cast<uint64_t>(Arrival));
  double U = static_cast<double>(H >> 11) * (1.0 / 9007199254740992.0);
  // Budget-threshold alloc faults: while accounted memory usage sits above
  // Config::AllocAboveBytes, every Alloc arrival fires regardless of Rate —
  // the deterministic out-of-memory drill the overload tests drive. The
  // shared MaxInjections budget below still applies.
  bool ThresholdFire = S == Site::Alloc && C.AllocAboveBytes >= 0 &&
                       ResourceGovernor::usedBytes() > C.AllocAboveBytes;
  if (!ThresholdFire && U >= C.Rate)
    return;
  if (C.MaxInjections >= 0) {
    // Claim one injection slot; losers past the budget pass through.
    int64_t Claimed =
        St.TotalInjected.fetch_add(1, std::memory_order_relaxed);
    if (Claimed >= C.MaxInjections)
      return;
  } else {
    St.TotalInjected.fetch_add(1, std::memory_order_relaxed);
  }
  St.Injected[SI].fetch_add(1, std::memory_order_relaxed);
  if (C.Act == Action::Delay) {
    // A delay injection stalls this arrival and returns: results stay
    // bitwise-correct, only timing shifts — the substrate for testing
    // deadline trips and waitFor bounds without wall-clock flakiness.
    std::this_thread::sleep_for(std::chrono::microseconds(C.DelayMicros));
    return;
  }
  throwError(ErrorCode::Injected,
             std::string("injected fault at site '") + siteName(S) +
                 "' (arrival " + std::to_string(Arrival) + ")");
}

ScopedFaultInjection::ScopedFaultInjection(const FaultInjector::Config &C)
    : Prev(FaultInjector::current()) {
  FaultInjector::configure(C);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector::configure(Prev);
}
