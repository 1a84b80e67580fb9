//===- support/ThreadPool.h - Nested-capable worker pool -------*- C++ -*-===//
///
/// \file
/// A persistent worker pool used by the Execute backend to run independent
/// per-task work (gathers, leaf kernels, writeback stripes) and by the BLAS
/// kernels to split outer blocks. The pool is *structured*: parallelFor
/// blocks until every index has run, so callers never observe concurrency —
/// they only observe that independent iterations overlapped.
///
/// The pool supports *nested* fan-out on itself: a worker executing a chunk
/// may submit a sub-range job (a parallel leaf kernel inside a parallel
/// task), which is pushed onto the same pool's job list. The submitting
/// thread participates in its own sub-job, any idle worker may help, and a
/// submitter waiting on chunks other threads claimed runs chunks of other
/// nested jobs meanwhile, so two-level (task x leaf) parallelism shares one
/// set of N threads, never oversubscribes, and no waiting submitter sleeps
/// while a nested chunk is unclaimed. Calls on a pool from a *different*
/// pool's worker run inline — cross-pool recruitment is structurally
/// impossible.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_SUPPORT_THREADPOOL_H
#define DISTAL_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/CancelToken.h"

namespace distal {

class ThreadPool {
  struct AsyncState;

public:
  /// Creates a pool with \p NumThreads workers (including the caller, so
  /// NumThreads == 1 spawns no threads and runs everything inline).
  explicit ThreadPool(int NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int numThreads() const { return NumThreads; }

  /// Runs Fn(I) for every I in [0, N), distributing indices across the pool
  /// in contiguous chunks. Blocks until all iterations complete. Iterations
  /// must be independent; any deterministic merging is the caller's job.
  ///
  /// Exception contract (all structured entry points): a throw inside any
  /// chunk is captured, unclaimed chunks of the job are cancelled, in-flight
  /// chunks drain, and the *first* captured exception is rethrown on the
  /// submitting thread once the job is fully quiesced — a worker thread
  /// never terminates the process, and the pool stays usable afterwards.
  /// Later exceptions of the same job are discarded.
  ///
  /// Cancellation: when \p Cancel is non-null it is polled before every
  /// chunk claim (including the inline path); a tripped token throws
  /// through the same first-exception-wins machinery, cancelling the job's
  /// unclaimed chunks. The token must outlive the call. A quiet token
  /// costs one relaxed load per chunk claim; null costs a pointer test.
  void parallelFor(int64_t N, const std::function<void(int64_t)> &Fn,
                   const CancelToken *Cancel = nullptr);

  /// Chunked variant: Fn(Lo, Hi) over a partition of [0, N). Lower overhead
  /// when per-index work is small. Same cancellation contract as
  /// parallelFor.
  void parallelForChunks(int64_t N,
                         const std::function<void(int64_t, int64_t)> &Fn,
                         const CancelToken *Cancel = nullptr);

  /// Bounded fan-out: partitions [0, N) into sub-ranges sized for at most
  /// \p Ways concurrent executors (with mild over-decomposition for load
  /// balance) and runs them as pool jobs. Ways <= 1 runs inline. This is
  /// the nested-parallelism entry point: the executor's split policy hands
  /// leaf kernels a Ways budget instead of a thread subset, and the shared
  /// job list keeps total live threads bounded by numThreads() no matter
  /// how task- and leaf-level jobs interleave. Same cancellation contract
  /// as parallelFor.
  void parallelForWays(int64_t N, int Ways,
                       const std::function<void(int64_t, int64_t)> &Fn,
                       const CancelToken *Cancel = nullptr);

  /// Handle to one detached job submitted with submitAsync(). wait() blocks
  /// until the job has run; if no worker has claimed it yet, the waiting
  /// thread runs it inline (so a wait can never deadlock and a busy pool
  /// degenerates to deferred-serial execution, not a stall). Destroying an
  /// un-waited ticket waits first — the job may reference caller state.
  ///
  /// Exception contract: a throw inside the detached job is captured in the
  /// ticket (never left to terminate a worker) and rethrown by the next
  /// wait() — including the waiter-helps-inline path, where the exception
  /// is captured first and rethrown by the same wait(), never thrown raw
  /// through the helping frame. The destructor and waitNoThrow() consume a
  /// pending exception without throwing; the destructor additionally logs
  /// it to stderr so a failed detached job is never silently dropped.
  class Ticket {
  public:
    Ticket() = default;
    ~Ticket() { waitNoThrow(/*LogDropped=*/true); }
    Ticket(Ticket &&) = default;
    Ticket &operator=(Ticket &&O) {
      waitNoThrow(/*LogDropped=*/true);
      St = std::move(O.St);
      return *this;
    }
    Ticket(const Ticket &) = delete;
    Ticket &operator=(const Ticket &) = delete;

    /// Blocks until the job has run, then rethrows its exception if it
    /// threw. The exception is consumed: a second wait() returns cleanly.
    void wait();
    /// wait() that swallows a pending exception instead of rethrowing — for
    /// waiters whose job latches its own outcome, and for the destructor.
    /// Logs the swallowed exception when \p LogDropped.
    void waitNoThrow(bool LogDropped = false);

  private:
    friend class ThreadPool;
    explicit Ticket(std::shared_ptr<AsyncState> St) : St(std::move(St)) {}
    std::shared_ptr<AsyncState> St;
  };

  /// Submits \p Fn as a detached single-chunk job (the admission queue's
  /// background dispatch runs on it). Unlike the structured parallelFor
  /// family the submitter does not participate: it keeps running while an
  /// idle worker picks the job up. Async jobs are
  /// queued ahead of structured jobs, so they are claimed the moment a
  /// worker frees up.
  /// Runs \p Fn inline (before returning) when the pool is sequential, the
  /// thread is pinned serial (InlineScope), or the caller is a worker of a
  /// different pool — the same rules as the structured entry points.
  Ticket submitAsync(std::function<void()> Fn);

  /// The process-wide pool. Size comes from DISTAL_NUM_THREADS when set,
  /// else std::thread::hardware_concurrency().
  static ThreadPool &global();

  /// True when the calling thread is a worker of any pool (used by the
  /// context-free BLAS entry points to avoid recruiting a second pool from
  /// inside a fan-out).
  static bool inWorker();

  /// High-water mark of threads concurrently executing chunks of this
  /// pool's jobs, nested fan-outs included. Never exceeds numThreads()
  /// (asserted on every chunk claim); exposed so tests can property-check
  /// the bound under nested task+leaf fan-out.
  int liveWorkerHighWater() const;
  void resetLiveWorkerHighWater();

  /// RAII guard marking the current thread inline-only: any parallelFor
  /// issued from it (on any pool) runs serially for the guard's lifetime.
  /// The executor's 1-thread mode uses this so nested BLAS kernels cannot
  /// fan out and a "sequential" run really is sequential.
  class InlineScope {
  public:
    InlineScope();
    ~InlineScope();
    InlineScope(const InlineScope &) = delete;
    InlineScope &operator=(const InlineScope &) = delete;

  private:
    bool Prev;
  };

private:
  /// One active fan-out. Structured jobs live on the submitting frame's
  /// stack; async jobs live inside a heap AsyncState. Registered in Jobs
  /// until every chunk has finished. All fields are guarded by Mtx.
  struct Job {
    int64_t N = 0;
    int64_t Chunk = 1;
    int64_t Next = 0;      ///< First unclaimed index.
    int64_t Remaining = 0; ///< Chunks claimed or unclaimed but not finished.
    const std::function<void(int64_t, int64_t)> *Fn = nullptr;
    /// Optional cancellation token polled on every chunk claim. A trip
    /// throws before the chunk body runs and is captured into Error like
    /// any other chunk exception (cancelling the unclaimed chunks).
    const CancelToken *Cancel = nullptr;
    /// First exception thrown by a chunk (guarded by Mtx). Capturing it
    /// cancels the job's unclaimed chunks; submitAndRun (structured) or
    /// Ticket::wait (detached) rethrows it once the job has quiesced.
    std::exception_ptr Error;
    /// Non-null for detached jobs: completion marks the ticket done and
    /// unregisters the job (no submitter is waiting inside submitAndRun).
    AsyncState *Async = nullptr;
    /// Submitted from inside a chunk of a structured job of this pool —
    /// every leaf fan-out inside a task. Waiting submitters may run its
    /// chunks, so a nested chunk must wait on nothing but its own nested
    /// jobs. Top-level jobs (submitted from outside this pool's chunks, or
    /// from a detached job's chunk, which runs a whole execution) are never
    /// claimed by another job's waiting submitter: the engine's walk chunks
    /// block on its ready queue, so an execution must not be started from
    /// inside a structured chunk of the pool it runs on.
    bool Nested = false;
  };

  /// True when a parallelFor of \p N items must run inline on the caller.
  bool mustInline(int64_t N) const;
  /// Registers \p J and participates until no chunk is unclaimed. Until
  /// the chunks other threads claimed finish, the submitter runs chunks of
  /// other nested jobs (helpableJob) and sleeps on JobDone only when none
  /// is claimable; it never claims a top-level job's chunk.
  void submitAndRun(Job &J);
  /// The oldest nested job with an unclaimed chunk that the calling waiter
  /// may help, or null. A waiter outside every chunk of this pool helps
  /// only while Live < NumThreads, so the live bound holds. Mtx held.
  Job *helpableJob() const;
  /// Claims and runs one chunk of \p J. Mtx held on entry and exit.
  void runOneChunk(Job &J, std::unique_lock<std::mutex> &Lock);
  void workerLoop();

  int NumThreads;
  std::vector<std::thread> Workers;
  /// Serializes *top-level* (non-nested) fan-outs so concurrent external
  /// callers queue instead of stacking extra live threads onto the pool.
  /// Nested submissions never take it (self-deadlock otherwise).
  std::mutex CallerMtx;
  mutable std::mutex Mtx;
  std::condition_variable WorkAvailable;
  std::condition_variable JobDone;
  std::vector<Job *> Jobs;
  int Live = 0; ///< Threads currently inside a chunk of this pool.
  int LiveHighWater = 0;
  bool ShuttingDown = false;
};

/// Number of threads the Execute backend should use by default: the
/// DISTAL_NUM_THREADS environment variable, read once per process, else the
/// hardware concurrency.
int defaultExecutorThreads();

/// Parses a raw DISTAL_NUM_THREADS value: the positive int it names, or 0
/// (use the hardware concurrency) when it is unset (null or empty) or
/// rejected. Anything but a positive int is rejected with one warning line
/// appended to \p Warnings, per support/EnvParse.h's contract. Pure —
/// exposed so tests can drive it without touching the environment.
int parseNumThreadsEnv(const char *Value, std::string *Warnings = nullptr);

} // namespace distal

#endif // DISTAL_SUPPORT_THREADPOOL_H
