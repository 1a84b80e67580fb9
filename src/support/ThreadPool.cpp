//===- support/ThreadPool.cpp ---------------------------------*- C++ -*-===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "support/EnvParse.h"
#include "support/Error.h"

using namespace distal;

/// The pool this thread is currently working for: set for spawned workers
/// for their whole life, and for any thread while it executes chunks of a
/// pool's job. Null on threads outside every pool.
static thread_local ThreadPool *CurrentPool = nullptr;
/// Count of chunk frames on this thread's stack (nested fan-outs re-enter
/// runOneChunk); only the outermost frame counts toward Live.
static thread_local int ChunkDepth = 0;
/// Set by InlineScope: every fan-out runs serially on this thread.
static thread_local bool InlineOnly = false;
/// True while this thread's innermost chunk frame belongs to a structured
/// job: a job it submits to the same pool is Nested. A detached job's chunk
/// runs a whole execution, so what it submits is top-level again.
static thread_local bool InStructuredChunk = false;

bool ThreadPool::inWorker() { return CurrentPool != nullptr; }

ThreadPool::InlineScope::InlineScope() : Prev(InlineOnly) { InlineOnly = true; }

ThreadPool::InlineScope::~InlineScope() { InlineOnly = Prev; }

ThreadPool::ThreadPool(int NumThreads)
    : NumThreads(std::max(1, NumThreads)) {
  for (int I = 1; I < this->NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

int ThreadPool::liveWorkerHighWater() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return LiveHighWater;
}

void ThreadPool::resetLiveWorkerHighWater() {
  std::lock_guard<std::mutex> Lock(Mtx);
  LiveHighWater = Live;
}

/// Heap-held state of one detached job: the job record, the body it runs,
/// and a self-reference that keeps the state alive until the last chunk
/// finishes even if the ticket is dropped first. Done is guarded by the
/// pool mutex; JobDone broadcasts its transitions.
struct ThreadPool::AsyncState {
  Job J;
  std::function<void(int64_t, int64_t)> Body;
  bool Done = false;
  std::shared_ptr<AsyncState> Self;
  ThreadPool *Owner = nullptr;
};

void ThreadPool::runOneChunk(Job &J, std::unique_lock<std::mutex> &Lock) {
  int64_t Lo = J.Next;
  int64_t Hi = std::min(Lo + J.Chunk, J.N);
  J.Next = Hi;
  // Only the outermost chunk frame of a thread counts: a nested fan-out
  // re-uses the thread already accounted for by its enclosing chunk.
  bool Outermost = ChunkDepth == 0;
  if (Outermost) {
    ++Live;
    LiveHighWater = std::max(LiveHighWater, Live);
    DISTAL_ASSERT(Live <= NumThreads,
                  "thread pool exceeded its configured worker count");
  }
  ++ChunkDepth;
  bool PrevStructured = InStructuredChunk;
  InStructuredChunk = J.Async == nullptr;
  Lock.unlock();
  // A chunk that throws must not unwind into a worker loop (std::terminate)
  // or past a helping waiter: capture the exception instead and rethrow it
  // where the job is joined — submitAndRun for structured jobs, the ticket's
  // wait() for detached ones.
  std::exception_ptr ChunkError;
  try {
    // Poll the job's cancellation token at the claim boundary: a tripped
    // token throws here, before the chunk body, and flows through the
    // first-exception-wins path below (cancelling the unclaimed chunks).
    if (J.Cancel)
      J.Cancel->check();
    (*J.Fn)(Lo, Hi);
  } catch (...) {
    ChunkError = std::current_exception();
  }
  InStructuredChunk = PrevStructured;
  Lock.lock();
  --ChunkDepth;
  if (Outermost)
    --Live;
  if (ChunkError && !J.Error) {
    J.Error = ChunkError;
    // First exception wins and cancels the job's unclaimed chunks: retire
    // them from Remaining so the join below doesn't wait for work that
    // will never run. In-flight chunks on other threads still drain.
    if (J.Next < J.N) {
      J.Remaining -= (J.N - J.Next + J.Chunk - 1) / J.Chunk;
      J.Next = J.N;
    }
  }
  // Keep a detached job's state alive past the erase: J lives inside it,
  // and the ticket may release its reference the moment Done flips.
  std::shared_ptr<AsyncState> Finished;
  if (--J.Remaining == 0) {
    if (AsyncState *A = J.Async) {
      A->Done = true;
      Jobs.erase(std::find(Jobs.begin(), Jobs.end(), &J));
      Finished = std::move(A->Self);
    }
    JobDone.notify_all();
  }
}

void ThreadPool::workerLoop() {
  CurrentPool = this;
  std::unique_lock<std::mutex> Lock(Mtx);
  for (;;) {
    Job *Claimable = nullptr;
    for (Job *J : Jobs)
      if (J->Next < J->N) {
        Claimable = J;
        break;
      }
    if (Claimable) {
      runOneChunk(*Claimable, Lock);
      continue;
    }
    if (ShuttingDown)
      return;
    WorkAvailable.wait(Lock);
  }
}

bool ThreadPool::mustInline(int64_t N) const {
  // Inline when there is no parallelism to exploit, when the thread is
  // pinned serial (InlineScope), or when the caller is a worker of a
  // *different* pool — fanning out there would stack two pools' workers on
  // top of each other. Same-pool nesting does fan out: it shares this
  // pool's threads through the job list.
  return NumThreads == 1 || N == 1 || InlineOnly ||
         (CurrentPool != nullptr && CurrentPool != this);
}

ThreadPool::Job *ThreadPool::helpableJob() const {
  // A waiter inside a chunk is already counted in Live; one outside every
  // chunk would add a live thread, so it helps only under the bound.
  if (ChunkDepth == 0 && Live >= NumThreads)
    return nullptr;
  // The oldest claimable nested job. Top-level jobs are never helped: the
  // engine's walk chunks block on its ready queue, and a waiter that took
  // one while its own leaf job is pending could deadlock a linked program.
  for (Job *H : Jobs)
    if (H->Nested && H->Next < H->N)
      return H;
  return nullptr;
}

void ThreadPool::submitAndRun(Job &J) {
  bool TopLevel = CurrentPool != this;
  // Serialize top-level fan-outs: each external caller adds one live thread
  // while it participates, so admitting one at a time keeps the pool at
  // exactly NumThreads live workers. Nested submitters are already inside a
  // counted chunk and must not (and need not) queue.
  std::unique_lock<std::mutex> CallerLock(CallerMtx, std::defer_lock);
  if (TopLevel)
    CallerLock.lock();
  J.Nested = !TopLevel && InStructuredChunk;
  ThreadPool *PrevPool = CurrentPool;
  CurrentPool = this;
  std::exception_ptr JobError;
  {
    std::unique_lock<std::mutex> Lock(Mtx);
    Jobs.push_back(&J);
    WorkAvailable.notify_all();
    // A nested job is work for submitters waiting on their own stragglers.
    if (J.Nested)
      JobDone.notify_all();
    // Participate in our own job first.
    while (J.Next < J.N)
      runOneChunk(J, Lock);
    // Then, until the chunks other threads claimed finish, run chunks of
    // other nested jobs instead of sleeping. The wait always ends: a
    // claimed chunk is being executed by a live thread, any job that
    // execution submits drains the same way (induction on nesting depth),
    // and a helped chunk is a leaf range that waits only on its own nested
    // jobs. A captured exception also cancelled the unclaimed chunks, so
    // the same wait covers the failure path.
    while (J.Remaining > 0) {
      if (Job *H = helpableJob()) {
        runOneChunk(*H, Lock);
        continue;
      }
      JobDone.wait(Lock);
    }
    Jobs.erase(std::find(Jobs.begin(), Jobs.end(), &J));
    JobError = J.Error;
  }
  CurrentPool = PrevPool;
  // Rethrow only after the job is fully quiesced and unregistered: every
  // reference to J (stack storage) is gone, and the pool is reusable.
  if (JobError)
    std::rethrow_exception(JobError);
}

void ThreadPool::parallelForChunks(
    int64_t N, const std::function<void(int64_t, int64_t)> &Fn,
    const CancelToken *Cancel) {
  if (N <= 0)
    return;
  if (mustInline(N)) {
    if (Cancel)
      Cancel->check();
    Fn(0, N);
    return;
  }
  Job J;
  J.N = N;
  // Over-decompose 4x for load balance, but never below one index.
  J.Chunk = std::max<int64_t>(1, N / (4 * NumThreads));
  J.Remaining = (N + J.Chunk - 1) / J.Chunk;
  J.Fn = &Fn;
  J.Cancel = Cancel;
  submitAndRun(J);
}

void ThreadPool::parallelForWays(
    int64_t N, int Ways, const std::function<void(int64_t, int64_t)> &Fn,
    const CancelToken *Cancel) {
  if (N <= 0)
    return;
  int64_t W = std::min<int64_t>(std::max(Ways, 1), N);
  if (W <= 1 || mustInline(N)) {
    if (Cancel)
      Cancel->check();
    Fn(0, N);
    return;
  }
  Job J;
  J.N = N;
  // 2x over-decomposition within the allotted ways: enough slack for idle
  // helpers without shredding a bounded leaf budget into tiny chunks.
  J.Chunk = std::max<int64_t>(1, (N + 2 * W - 1) / (2 * W));
  J.Remaining = (N + J.Chunk - 1) / J.Chunk;
  J.Fn = &Fn;
  J.Cancel = Cancel;
  submitAndRun(J);
}

ThreadPool::Ticket ThreadPool::submitAsync(std::function<void()> Fn) {
  // Same inlining rules as the structured entry points: a sequential pool,
  // a serial-pinned thread, or a foreign pool's worker runs the body now.
  if (NumThreads == 1 || InlineOnly ||
      (CurrentPool != nullptr && CurrentPool != this)) {
    Fn();
    return Ticket();
  }
  auto St = std::make_shared<AsyncState>();
  St->Owner = this;
  St->Body = [Body = std::move(Fn)](int64_t, int64_t) { Body(); };
  St->J.N = 1;
  St->J.Chunk = 1;
  St->J.Remaining = 1;
  St->J.Fn = &St->Body;
  St->J.Async = St.get();
  St->Self = St;
  {
    std::lock_guard<std::mutex> Lock(Mtx);
    // Communication-lane priority: detached jobs go to the front of the
    // list so idle workers drain data movement before claiming more
    // compute chunks.
    Jobs.insert(Jobs.begin(), &St->J);
  }
  WorkAvailable.notify_all();
  return Ticket(std::move(St));
}

void ThreadPool::Ticket::wait() {
  if (!St)
    return;
  ThreadPool &P = *St->Owner;
  std::exception_ptr JobError;
  {
    std::unique_lock<std::mutex> Lock(P.Mtx);
    while (!St->Done) {
      // Help inline when the job is still unclaimed — but never stack an
      // extra uncounted live thread onto a full pool: only a thread already
      // inside one of this pool's chunks (accounted for by its enclosing
      // frame) or a thread that fits under the worker bound may claim.
      bool CanHelp =
          (CurrentPool == &P && ChunkDepth > 0) || P.Live < P.NumThreads;
      if (St->J.Next < St->J.N && CanHelp) {
        // Adopt the pool for the duration of the chunk so any fan-out the
        // body issues shares this pool's job list instead of treating
        // itself as a fresh top-level caller. runOneChunk captures a throw
        // into the job (never through this frame); it is rethrown below.
        ThreadPool *Prev = CurrentPool;
        CurrentPool = &P;
        P.runOneChunk(St->J, Lock);
        CurrentPool = Prev;
        continue;
      }
      P.JobDone.wait(Lock);
    }
    // Consume the stored exception: exactly one wait() observes it.
    JobError = St->J.Error;
    St->J.Error = nullptr;
  }
  St.reset();
  if (JobError)
    std::rethrow_exception(JobError);
}

void ThreadPool::Ticket::waitNoThrow(bool LogDropped) {
  try {
    wait();
  } catch (const std::exception &E) {
    if (LogDropped)
      std::fprintf(stderr,
                   "distal: detached job failed; exception consumed by "
                   "Ticket destructor: %s\n",
                   E.what());
  } catch (...) {
    if (LogDropped)
      std::fprintf(stderr,
                   "distal: detached job failed; non-standard exception "
                   "consumed by Ticket destructor\n");
  }
}

void ThreadPool::parallelFor(int64_t N,
                             const std::function<void(int64_t)> &Fn,
                             const CancelToken *Cancel) {
  parallelForChunks(
      N,
      [&](int64_t Lo, int64_t Hi) {
        for (int64_t I = Lo; I < Hi; ++I)
          Fn(I);
      },
      Cancel);
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool(defaultExecutorThreads());
  return Pool;
}

int distal::defaultExecutorThreads() {
  static const int Threads = [] {
    std::string Warnings;
    int N = parseNumThreadsEnv(std::getenv("DISTAL_NUM_THREADS"), &Warnings);
    if (!Warnings.empty())
      std::fputs(Warnings.c_str(), stderr);
    if (N > 0)
      return N;
    unsigned HW = std::thread::hardware_concurrency();
    return HW == 0 ? 1 : static_cast<int>(HW);
  }();
  return Threads;
}

int distal::parseNumThreadsEnv(const char *Value, std::string *Warnings) {
  if (!envparse::envSet(Value))
    return 0;
  int64_t N;
  if (!envparse::parseI64Strict(Value, N) || N <= 0 ||
      N > std::numeric_limits<int>::max()) {
    envparse::warn(Warnings,
                   std::string("distal: ignoring malformed "
                               "DISTAL_NUM_THREADS '") +
                       Value + "' (want a positive integer)");
    return 0;
  }
  return static_cast<int>(N);
}
