//===- tests/ThreadPoolTest.cpp - Nested pool + ExecContext ----*- C++ -*-===//
//
// Property tests for the nested-capable ThreadPool and the ExecContext
// split policy: an ExecContext-scoped pool must never exceed its configured
// N live workers no matter how task- and leaf-level fan-outs nest (the
// counter is asserted inside ThreadPool on every chunk claim and exposed as
// a high-water mark here), every index of a nested fan-out must run exactly
// once, a submitter waiting on its own stragglers must run other nested
// jobs' chunks but never a top-level job's, and the split must follow its
// rule.
//
//===----------------------------------------------------------------------===//

#include "algorithms/Matmul.h"
#include "blas/LocalKernels.h"
#include "runtime/Executor.h"
#include "runtime/Region.h"
#include "support/ExecContext.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace distal;
using namespace distal::algorithms;

TEST(ThreadPool, NestedFanoutRunsEveryIndexOnce) {
  ThreadPool Pool(4);
  constexpr int Outer = 12, Inner = 97;
  std::vector<std::atomic<int>> Counts(Outer * Inner);
  Pool.parallelFor(Outer, [&](int64_t O) {
    Pool.parallelForWays(Inner, 4, [&](int64_t Lo, int64_t Hi) {
      for (int64_t I = Lo; I < Hi; ++I)
        Counts[O * Inner + I].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (int I = 0; I < Outer * Inner; ++I)
    ASSERT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, LiveWorkersBoundedUnderNestedFanout) {
  for (int N : {2, 4, 8}) {
    ThreadPool Pool(N);
    Pool.resetLiveWorkerHighWater();
    // Deep two-level fan-out with more jobs than threads at both levels:
    // every leaf sub-range job lands on the same pool, so the live count
    // must stay within N even while task chunks and leaf chunks interleave.
    // Every third task's ranges run 16x longer, so submitters finish their
    // own chunks early and wait on stragglers: the bound is checked while
    // waiters help other nested jobs.
    std::atomic<int64_t> Sink{0};
    Pool.parallelFor(4 * N, [&](int64_t O) {
      int64_t Reps = O % 3 == 0 ? 256 : 16;
      Pool.parallelForWays(256, N, [&](int64_t Lo, int64_t Hi) {
        int64_t S = 0;
        for (int64_t R = 0; R < Reps; ++R)
          for (int64_t I = Lo; I < Hi; ++I)
            S += (I ^ R) * I;
        Sink.fetch_add(S, std::memory_order_relaxed);
      });
    });
    EXPECT_LE(Pool.liveWorkerHighWater(), N) << "pool size " << N;
    EXPECT_GE(Pool.liveWorkerHighWater(), 1);
  }
}

TEST(ThreadPool, FanoutActuallyOverlapsWorkers) {
  // Rendezvous: four chunks on a four-thread pool each wait until all four
  // have started. A correct pool runs them on distinct threads and the
  // barrier clears; a pool that silently degenerated to sequential
  // execution would never get past the first chunk (caught by the
  // timeout instead of a hang).
  ThreadPool Pool(4);
  Pool.resetLiveWorkerHighWater();
  std::atomic<int> Arrived{0};
  std::atomic<bool> TimedOut{false};
  Pool.parallelForWays(4, 4, [&](int64_t, int64_t) {
    Arrived.fetch_add(1);
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Arrived.load() < 4 && !TimedOut.load()) {
      if (std::chrono::steady_clock::now() > Deadline)
        TimedOut.store(true);
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(TimedOut.load());
  EXPECT_EQ(Pool.liveWorkerHighWater(), 4);
}

namespace {

/// Spin-waits with a deadline shared by one scenario: a pool whose waiters
/// sleep where they should help fails the test instead of hanging it.
struct Watchdog {
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> TimedOut{false};

  void await(const std::atomic<bool> &Flag) {
    while (!Flag.load() && !TimedOut.load()) {
      if (std::chrono::steady_clock::now() > Deadline)
        TimedOut.store(true);
      std::this_thread::yield();
    }
  }
};

/// Three threads, all busy, and one nested chunk that only a waiting
/// submitter can run. On a 3-thread pool, outer chunk 1 (thread B) submits
/// job JB: B runs b0, which waits until b1 has started, and the pool's
/// idle third thread C claims b1, which waits until a1 has started. Outer
/// chunk 0 (thread A) then submits job JA, and A's chunk a0 waits until a1
/// has started too. B, done with b0 and waiting on C's b1, is the only
/// thread free to run a1, which throws when \p ThrowInA1. Returns whether
/// the watchdog fired and what each owner's fan-out threw.
struct HelpingOutcome {
  bool TimedOut = false;
  std::string AError, BError;
};

HelpingOutcome runHelpingScenario(bool ThrowInA1) {
  ThreadPool Pool(3);
  Watchdog Dog;
  std::atomic<bool> B1Started{false}, A1Started{false};
  HelpingOutcome Out;
  auto runOwner = [](std::string &Error, const std::function<void()> &Fn) {
    try {
      Fn();
    } catch (const std::exception &E) {
      Error = E.what();
    }
  };
  Pool.parallelFor(2, [&](int64_t O) {
    if (O == 1) {
      runOwner(Out.BError, [&] {
        Pool.parallelForWays(2, 2, [&](int64_t Lo, int64_t) {
          if (Lo == 0)
            return Dog.await(B1Started);
          B1Started.store(true);
          Dog.await(A1Started);
        });
      });
      return;
    }
    Dog.await(B1Started);
    runOwner(Out.AError, [&] {
      Pool.parallelForWays(2, 2, [&](int64_t Lo, int64_t) {
        if (Lo == 0)
          return Dog.await(A1Started);
        A1Started.store(true);
        if (ThrowInA1)
          throw std::runtime_error("a1 failed");
      });
    });
  });
  Out.TimedOut = Dog.TimedOut.load();
  return Out;
}

} // namespace

TEST(ThreadPool, WaitingSubmitterHelpsNestedJobs) {
  HelpingOutcome Out = runHelpingScenario(/*ThrowInA1=*/false);
  EXPECT_FALSE(Out.TimedOut)
      << "no waiting submitter ran the last unclaimed nested chunk";
  EXPECT_EQ(Out.AError, "");
  EXPECT_EQ(Out.BError, "");
}

TEST(ThreadPool, WaitingSubmitterSurfacesHelpedThrowAtItsOwner) {
  // a1 throws on B's stack while B helps; the exception belongs to JA, so
  // A's parallelForWays rethrows it and B's returns cleanly.
  HelpingOutcome Out = runHelpingScenario(/*ThrowInA1=*/true);
  EXPECT_FALSE(Out.TimedOut);
  EXPECT_EQ(Out.AError, "a1 failed");
  EXPECT_EQ(Out.BError, "");
}

TEST(ThreadPool, WaitingSubmitterNeverClaimsTopLevelChunks) {
  // On a 2-thread pool the caller runs m0 and submits nested job NJ; its
  // chunk n0 waits until the worker has claimed n1, then submits a detached
  // job whose one chunk blocks until the caller's NJ fan-out has returned.
  // n1 holds the worker for a while, so the caller waits on its own
  // straggler with that top-level chunk unclaimed. Taking it would block
  // the caller on its own return: the watchdog would fire.
  ThreadPool Pool(2);
  Watchdog Dog;
  std::atomic<bool> N1Started{false}, DetachedQueued{false}, NJReturned{false};
  std::optional<ThreadPool::Ticket> Detached;
  Pool.parallelForWays(2, 2, [&](int64_t Lo, int64_t) {
    if (Lo != 0)
      return;
    Pool.parallelForWays(2, 2, [&](int64_t NLo, int64_t) {
      if (NLo == 0) {
        Dog.await(N1Started);
        Detached = Pool.submitAsync([&] { Dog.await(NJReturned); });
        DetachedQueued.store(true);
        return;
      }
      N1Started.store(true);
      Dog.await(DetachedQueued);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    NJReturned.store(true);
  });
  Detached->wait();
  EXPECT_FALSE(Dog.TimedOut.load());
}

TEST(ThreadPool, AsyncTicketsCompleteAndHelpInline) {
  // The communication-lane primitive: detached jobs complete exactly once
  // whether a worker claims them or the waiter runs them inline, and
  // tickets are safe to wait from inside structured fan-outs (the
  // pipelined executor's chains do exactly that).
  ThreadPool Pool(4);
  constexpr int N = 64;
  std::vector<std::atomic<int>> Ran(N);
  {
    std::vector<ThreadPool::Ticket> Tickets;
    for (int I = 0; I < N; ++I)
      Tickets.push_back(Pool.submitAsync(
          [&Ran, I] { Ran[I].fetch_add(1, std::memory_order_relaxed); }));
    for (ThreadPool::Ticket &T : Tickets)
      T.wait();
  }
  for (int I = 0; I < N; ++I)
    ASSERT_EQ(Ran[I].load(), 1) << "job " << I;

  // Mixed: submit from inside a structured chunk, wait before the chunk
  // ends; the live-worker bound must hold throughout.
  Pool.resetLiveWorkerHighWater();
  std::vector<std::atomic<int>> Nested(N);
  Pool.parallelFor(N, [&](int64_t I) {
    ThreadPool::Ticket T = Pool.submitAsync(
        [&Nested, I] { Nested[I].fetch_add(1, std::memory_order_relaxed); });
    T.wait();
  });
  for (int I = 0; I < N; ++I)
    ASSERT_EQ(Nested[I].load(), 1) << "nested job " << I;
  EXPECT_LE(Pool.liveWorkerHighWater(), 4);

  // A sequential pool runs the body inline at submit time.
  ThreadPool Seq(1);
  bool RanInline = false;
  ThreadPool::Ticket T = Seq.submitAsync([&] { RanInline = true; });
  EXPECT_TRUE(RanInline);
  T.wait();

  // An un-waited ticket must complete before destruction (dtor waits).
  std::atomic<int> Dropped{0};
  { ThreadPool::Ticket D = Pool.submitAsync([&] { ++Dropped; }); }
  EXPECT_EQ(Dropped.load(), 1);
}

TEST(ThreadPool, CrossPoolCallsRunInline) {
  // A worker of pool A calling pool B must not recruit B's workers:
  // stacking two pools would exceed the configured thread budget.
  ThreadPool A(4), B(4);
  B.resetLiveWorkerHighWater();
  A.parallelFor(8, [&](int64_t) {
    B.parallelForChunks(64, [&](int64_t Lo, int64_t Hi) {
      volatile int64_t S = 0;
      for (int64_t I = Lo; I < Hi; ++I)
        S += I;
    });
  });
  EXPECT_EQ(B.liveWorkerHighWater(), 0);
}

TEST(ThreadPool, InlineScopeForcesSerial) {
  ThreadPool Pool(4);
  Pool.resetLiveWorkerHighWater();
  ThreadPool::InlineScope Scope;
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(32, [&](int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
  EXPECT_EQ(Pool.liveWorkerHighWater(), 0);
}

// Strict DISTAL_NUM_THREADS parsing: anything but a positive int is
// ignored (0 = use the hardware concurrency) and reported as one warning
// line naming the variable; unset and empty are plain "unset".
TEST(ThreadPool, ParseNumThreadsEnvRejectsMalformedValues) {
  for (const char *Bad : {"8x", "4294967297", "0", "-3"}) {
    SCOPED_TRACE(Bad);
    std::string W;
    EXPECT_EQ(parseNumThreadsEnv(Bad, &W), 0);
    EXPECT_EQ(std::count(W.begin(), W.end(), '\n'), 1) << W;
    EXPECT_NE(W.find("DISTAL_NUM_THREADS"), std::string::npos) << W;
  }
  for (const char *Unset : {"", static_cast<const char *>(nullptr)}) {
    std::string W;
    EXPECT_EQ(parseNumThreadsEnv(Unset, &W), 0);
    EXPECT_TRUE(W.empty()) << W;
  }
  std::string W;
  EXPECT_EQ(parseNumThreadsEnv("8", &W), 8);
  EXPECT_TRUE(W.empty()) << W;
}

TEST(ExecContext, AdaptiveSplitInvariants) {
  // Task ways follow the launch domain up to the pool; every leaf gets the
  // whole pool. The product may exceed N: the live-thread bound, asserted
  // on every chunk claim, is what keeps the pool from oversubscribing.
  ExecContext Ctx(8);
  for (int64_t Tasks = 1; Tasks <= 20; ++Tasks) {
    ExecContext::Split S = Ctx.splitFor(Tasks);
    EXPECT_EQ(S.TaskWays, std::min<int64_t>(Tasks, 8)) << "tasks " << Tasks;
    EXPECT_EQ(S.LeafWays, 8) << "tasks " << Tasks;
  }
  EXPECT_EQ(Ctx.splitFor(0).TaskWays, 1);
  EXPECT_EQ(Ctx.splitFor(0).LeafWays, 1);
  ExecContext Seq(1);
  EXPECT_EQ(Seq.splitFor(1).LeafWays, 1);
  EXPECT_EQ(Seq.splitFor(4).TaskWays, 1);
  EXPECT_EQ(Seq.pool(), nullptr);
}

TEST(ExecContext, ExecutorNestedRunStaysWithinBudget) {
  // Drive a real plan through an explicitly shared context at a pinned
  // 2 x 4 split: task chunks and nested leaf sub-jobs interleave on one
  // 8-thread pool, and the live-worker high-water must respect it. N = 224
  // on a 2x2 grid keeps each leaf above the GEMM parallel cutoff so the
  // leaf level genuinely fans out.
  MatmulOptions Opts;
  Opts.N = 224;
  Opts.Procs = 4;
  MatmulProblem Prob = buildMatmul(MatmulAlgo::Cannon, Opts);
  Region RA(Prob.A, Prob.P.formatOf(Prob.A), Prob.P.M);
  Region RB(Prob.B, Prob.P.formatOf(Prob.B), Prob.P.M);
  Region RC(Prob.C, Prob.P.formatOf(Prob.C), Prob.P.M);
  RB.fillRandom(7);
  RC.fillRandom(8);
  ExecContext Ctx(8);
  ASSERT_NE(Ctx.pool(), nullptr);
  Ctx.pool()->resetLiveWorkerHighWater();
  Executor Exec(Prob.P);
  Exec.setExecContext(&Ctx);
  Exec.setThreadSplit(2, 4);
  Exec.run({{Prob.A, &RA}, {Prob.B, &RB}, {Prob.C, &RC}});
  EXPECT_LE(Ctx.pool()->liveWorkerHighWater(), 8);

  // The default split at tasks >= threads: 4 task ways on a 4-thread pool,
  // and every leaf fans out over all 4 threads as a nested job.
  ExecContext Ctx4(4);
  Ctx4.pool()->resetLiveWorkerHighWater();
  Executor Default(Prob.P);
  Default.setExecContext(&Ctx4);
  Default.run({{Prob.A, &RA}, {Prob.B, &RB}, {Prob.C, &RC}});
  EXPECT_LE(Ctx4.pool()->liveWorkerHighWater(), 4);
  EXPECT_GE(Ctx4.pool()->liveWorkerHighWater(), 1);
}

TEST(ExecContext, ParallelGatherMatchesSequential) {
  // 640x320 rectangles are comfortably above the copy parallel cutoff
  // (2^17 elements), so both gather fast paths really fan out.
  TensorVar T("G", {640, 640});
  Format F({ModeKind::Dense, ModeKind::Dense},
           TensorDistribution::parse("xy->*"));
  Region R(T, F, Machine::grid({1}));
  R.fillRandom(13);
  ExecContext Ctx(4);
  LeafParallelism LP{Ctx.pool(), 4};
  // Strided (many runs, split across runs) and contiguous (single run,
  // split memcpy) shapes.
  for (Rect Rt : {Rect(Point({0, 160}), Point({640, 480})),
                  Rect(Point({160, 0}), Point({480, 640}))}) {
    Instance Par = R.gather(Rt, LP);
    Instance Seq = R.gather(Rt);
    Rt.forEachPoint([&](const Point &P) {
      ASSERT_EQ(Par.at(P), Seq.at(P));
    });
  }
}

TEST(ExecContext, ParallelBlasKernelsBitwiseMatchSequential) {
  // Each pool-parameterized kernel above its parallel cutoff: the parallel
  // result must equal the sequential-handle result bit for bit (disjoint
  // output splits for gemm/axpy, fixed-chunk association for the
  // reductions). Runs under the CI TSan job, so races in the nested
  // fan-outs surface here too.
  ExecContext Ctx(4);
  LeafParallelism LP{Ctx.pool(), 4};
  LeafParallelism Seq;

  constexpr int64_t VN = 150000; // > 4 reduction chunks, > axpy cutoff.
  std::vector<double> X(VN), Y(VN);
  for (int64_t I = 0; I < VN; ++I) {
    X[I] = static_cast<double>((I * 13) % 101) / 101.0 - 0.5;
    Y[I] = static_cast<double>((I * 29) % 97) / 97.0 - 0.5;
  }
  EXPECT_EQ(blas::dot(LP, X.data(), Y.data(), VN),
            blas::dot(Seq, X.data(), Y.data(), VN));
  EXPECT_EQ(blas::dotStrided(LP, X.data(), 2, Y.data(), 3, VN / 3),
            blas::dotStrided(Seq, X.data(), 2, Y.data(), 3, VN / 3));
  EXPECT_EQ(blas::sumStrided(LP, X.data(), 2, VN / 2),
            blas::sumStrided(Seq, X.data(), 2, VN / 2));

  std::vector<double> YPar = Y, YSeq = Y;
  blas::axpy(LP, YPar.data(), X.data(), 1.75, VN);
  blas::axpy(Seq, YSeq.data(), X.data(), 1.75, VN);
  for (int64_t I = 0; I < VN; ++I)
    ASSERT_EQ(YPar[I], YSeq[I]) << "axpy element " << I;

  constexpr int64_t GN = 128; // 128^3 multiply-adds > gemm parallel cutoff.
  std::vector<double> A(GN * GN), B(GN * GN), CPar(GN * GN, 0),
      CSeq(GN * GN, 0);
  for (int64_t I = 0; I < GN * GN; ++I) {
    A[I] = static_cast<double>((I * 7) % 13) / 13.0;
    B[I] = static_cast<double>((I * 11) % 17) / 17.0;
  }
  blas::gemm(LP, CPar.data(), A.data(), B.data(), GN, GN, GN, GN, GN, GN);
  blas::gemm(Seq, CSeq.data(), A.data(), B.data(), GN, GN, GN, GN, GN, GN);
  for (int64_t I = 0; I < GN * GN; ++I)
    ASSERT_EQ(CPar[I], CSeq[I]) << "gemm element " << I;
}
