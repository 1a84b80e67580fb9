//===- support/ResourceGovernor.h - Process-wide memory governor -*- C++ -*-===//
///
/// \file
/// The process-wide memory governor: every significant allocation the
/// engine makes — Region backing storage, ExecArena instance buffers,
/// PlanCache artifacts — is charged against one configurable byte
/// budget, and the runtime reads the resulting *pressure* to degrade
/// gracefully instead of dying in std::bad_alloc under overload:
///
///  * Pressure::Soft (usage above the soft watermark): arena pools stop
///    caching idle arenas (each execution's buffers free as it completes)
///    and the PlanCache LRUs shrink to small floors. Both responses are
///    counted in stats(); output bytes are unaffected.
///  * Pressure::Hard (usage above the hard watermark): the AdmissionQueue
///    rejects new submissions with ResourceExhausted carrying a
///    machine-readable retry-after hint (see retryAfterNote), and sheds
///    queued *unclaimed* requests newest-first — running executions are
///    never touched, so completed work is never wasted.
///
/// The governor also owns the process-wide defaults of the per-artifact
/// circuit breaker (see AdmissionQueue::setBreaker): K consecutive
/// non-user-error execution failures open an artifact's breaker so further
/// submissions fail fast with FailedPrecondition; a half-open probe admits
/// one canary after a deterministic cooldown counted in rejected
/// submissions (injectable — no wall clock in tests), and a canary success
/// closes it.
///
/// Arming: Executor::setMemoryBudget / configure() programmatically, or
/// from the environment at process start:
///   DISTAL_MEM_BUDGET        byte budget (> 0 arms; 0 or unset = disarmed)
///   DISTAL_MEM_SOFT          soft watermark fraction in [0, 1] (default 0.75)
///   DISTAL_MEM_HARD          hard watermark fraction in [0, 1] (default 0.90)
///   DISTAL_BREAKER_FAILURES  breaker trip threshold K (0 disables; default 5)
///   DISTAL_BREAKER_COOLDOWN  rejected submissions before half-open (default 8)
/// Parsing is strict (see support/EnvParse.h): malformed values warn once
/// on stderr and fall back to the default; empty strings are plain unset.
///
/// Accounting contract: only charges made while the governor is armed are
/// accounted, and a Charge releases exactly what it recorded — so usage
/// can never go negative and arming mid-flight simply starts counting from
/// the allocations made afterwards. Disarmed, charge() is one relaxed
/// atomic load (the bench gate's allowed hook budget).
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SUPPORT_RESOURCEGOVERNOR_H
#define DISTAL_SUPPORT_RESOURCEGOVERNOR_H

#include <atomic>
#include <cstdint>
#include <string>

namespace distal {

class ResourceGovernor {
public:
  /// Where current usage sits relative to the watermarks. None when
  /// disarmed or under the soft watermark; Soft triggers degradation
  /// (arena caching off, caches to floors); Hard additionally sheds load.
  enum class Pressure { None, Soft, Hard };

  /// The governor's configuration. BudgetBytes <= 0 disarms; the
  /// watermarks are fractions of the budget (usage strictly above
  /// BudgetBytes * fraction triggers the response). Tests pin a pressure
  /// level by choosing fractions directly (e.g. SoftFraction = 0 makes any
  /// accounted usage Soft; HardFraction > 1 makes Hard unreachable).
  struct Config {
    int64_t BudgetBytes = 0;    ///< Byte budget; <= 0 disarms the governor.
    double SoftFraction = 0.75; ///< Degradation watermark (of the budget).
    double HardFraction = 0.90; ///< Load-shedding watermark (of the budget).
  };

  /// Process-wide defaults for the per-artifact circuit breaker, consumed
  /// by every AdmissionQueue at construction (override per artifact with
  /// AdmissionQueue::setBreaker). Failures <= 0 disables the breaker.
  struct BreakerConfig {
    int Failures = 5; ///< Consecutive non-user-error failures that open it.
    /// Rejected submissions the open breaker absorbs before admitting one
    /// half-open canary — a deterministic, injectable cooldown (no wall
    /// clock), so tests drive the state machine by submitting.
    int64_t CooldownRejections = 8;
  };

  /// Installs \p C: BudgetBytes > 0 arms the governor and precomputes the
  /// watermark thresholds. Outstanding accounted usage persists across
  /// reconfiguration (the memory is still held); the event counters and
  /// the peak-usage watermark reset.
  static void configure(const Config &C);
  /// configure() with the default watermark fractions — the programmatic
  /// mirror of DISTAL_MEM_BUDGET. Bytes <= 0 disarms.
  static void setBudget(int64_t Bytes);
  /// Disarms the governor (budget 0). Outstanding charges still release
  /// what they recorded, so usage drains back to zero as owners die.
  static void disarm();
  /// The currently installed configuration.
  static Config current();
  /// Whether a budget is armed. One relaxed load — the whole disarmed cost
  /// of every charge site.
  static bool armed() { return Armed.load(std::memory_order_relaxed); }

  /// Accounts \p Bytes against the budget and returns true, or returns
  /// false without accounting when disarmed. Callers (normally Charge)
  /// must release exactly what was accounted. Never blocks and never
  /// fails: the governor observes and reports pressure; the *responses*
  /// live at the admission/caching layers.
  static bool charge(int64_t Bytes);
  /// Returns previously accounted \p Bytes to the budget.
  static void release(int64_t Bytes);
  /// Currently accounted usage in bytes.
  static int64_t usedBytes();
  /// Current pressure level: None when disarmed, else usage measured
  /// against the precomputed soft/hard thresholds. One relaxed load when
  /// disarmed.
  static Pressure pressure();

  /// Governor-wide counters since the last configure(), plus the usage
  /// snapshot — the observability face of the pressure responses.
  struct Stats {
    int64_t BudgetBytes = 0;   ///< Armed budget (0 when disarmed).
    int64_t UsedBytes = 0;     ///< Currently accounted usage.
    int64_t PeakUsedBytes = 0; ///< High-water mark since configure().
    /// Requests shed or rejected with ResourceExhausted by hard pressure
    /// (the process-wide sum of the per-queue Stats::Shed counters).
    int64_t ShedRequests = 0;
    /// PlanCache evictions forced by the pressure floors (beyond what the
    /// configured capacity alone required).
    int64_t CacheShrinks = 0;
    /// Idle arenas freed instead of cached because pressure was non-None
    /// at release time.
    int64_t ArenaCacheBypasses = 0;
  };
  /// Snapshot of the counters above. Thread-safe (relaxed reads).
  static Stats stats();

  /// Records one hard-pressure shed/rejected request (AdmissionQueue).
  static void noteShed();
  /// Records one pressure-floor cache eviction (PlanCache).
  static void noteCacheShrink();
  /// Records one pressure-bypassed arena caching (CompiledPlan/Program).
  static void noteArenaCacheBypass();

  /// Deterministic retry-after hint in milliseconds, derived from how far
  /// usage currently overshoots the hard watermark relative to the budget
  /// (clamped to [1, 100] ms). Pure arithmetic over the counters — no
  /// wall clock — so tests can pin it.
  static int64_t retryAfterHintMs();
  /// The machine-readable backpressure hint embedded in hard-pressure
  /// ResourceExhausted messages: "retry-after-ms=N" with N from
  /// retryAfterHintMs(). parseRetryAfterMs() is the reader.
  static std::string retryAfterNote();
  /// Extracts the "retry-after-ms=N" hint from a Status message; -1 when
  /// absent — the machine-readability contract clients back off with.
  static int64_t parseRetryAfterMs(const std::string &Message);

  /// The process-wide breaker defaults new AdmissionQueues copy.
  static BreakerConfig breakerDefaults();
  /// Replaces the process-wide breaker defaults (existing queues keep the
  /// configuration they copied; use AdmissionQueue::setBreaker for those).
  static void setBreakerDefaults(const BreakerConfig &B);

  /// Builds a Config from raw DISTAL_MEM_* values (null or empty string =
  /// unset). Strictly validated: a malformed or out-of-range value is
  /// treated as unset and reported as one warning line appended to
  /// \p Warnings; a hard fraction below the soft fraction warns and is
  /// raised to it. Pure — exposed so tests can drive it without touching
  /// the environment.
  static Config parseEnvConfig(const char *Budget, const char *Soft,
                               const char *Hard,
                               std::string *Warnings = nullptr);
  /// Builds a BreakerConfig from raw DISTAL_BREAKER_* values under the
  /// same strict contract as parseEnvConfig. Pure.
  static BreakerConfig parseBreakerEnvConfig(const char *Failures,
                                             const char *Cooldown,
                                             std::string *Warnings = nullptr);

  /// Move-only RAII ledger of one owner's accounted bytes. add() charges
  /// the governor and records only what was actually accounted (a
  /// disarmed charge records nothing), so destruction always releases
  /// exactly the accounted amount — charge/release stay balanced across
  /// arming changes, failures, and moves.
  class Charge {
  public:
    Charge() = default;
    /// Takes over \p O's recorded bytes; \p O ends empty.
    Charge(Charge &&O) noexcept : Held(O.Held) { O.Held = 0; }
    /// Releases this ledger's bytes, then takes over \p O's.
    Charge &operator=(Charge &&O) noexcept {
      if (this != &O) {
        reset();
        Held = O.Held;
        O.Held = 0;
      }
      return *this;
    }
    Charge(const Charge &) = delete;
    Charge &operator=(const Charge &) = delete;
    ~Charge() { reset(); }

    /// Charges \p Bytes against the budget (recorded only when the
    /// governor accounted them — see the class comment).
    void add(int64_t Bytes) {
      if (Bytes > 0 && ResourceGovernor::charge(Bytes))
        Held += Bytes;
    }
    /// Releases everything recorded so far; the ledger is empty after.
    void reset() {
      if (Held > 0) {
        ResourceGovernor::release(Held);
        Held = 0;
      }
    }
    /// Bytes currently recorded by this ledger.
    int64_t bytes() const { return Held; }

  private:
    int64_t Held = 0;
  };

private:
  static std::atomic<bool> Armed;
};

} // namespace distal

#endif // DISTAL_SUPPORT_RESOURCEGOVERNOR_H
