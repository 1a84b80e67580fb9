//===- perfbench/src/Layers.cpp -------------------------------*- C++ -*-===//

#include "Layers.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "Inputs.h"
#include "Spans.h"
#include "Stats.h"
#include "blas/LocalKernels.h"
#include "runtime/CompiledProgram.h"

using namespace distal;
using namespace perfbench;

namespace {

/// How long each probe runs, as a time budget clamped to a rep range.
struct Budget {
  double Seconds;
  int MinReps, MaxReps;
};

double divOr0(double A, double B) { return B != 0 ? A / B : 0; }

/// Runs \p Fn once untimed (warming it) and returns how many timed reps fit
/// the budget.
template <typename F> int warmReps(const Budget &B, F &&Fn) {
  int64_t T0 = nowNs();
  Fn();
  double Est = std::max((nowNs() - T0) * 1e-9, 1e-7);
  return std::clamp(static_cast<int>(B.Seconds / Est), B.MinReps, B.MaxReps);
}

/// Warms \p Fn, then runs it the budgeted number of times, each inside a
/// span named \p Name.
template <typename F> void repeat(const char *Name, const Budget &B, F &&Fn) {
  int Reps = warmReps(B, Fn);
  for (int R = 0; R < Reps; ++R) {
    setCurrentRequest(R);
    Span S(Name);
    Fn();
  }
}

/// Runs Fn(Client) on \p Clients threads at once.
template <typename F> void onClients(int Clients, F &&Fn) {
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&Fn, C] { Fn(C); });
  for (std::thread &T : Threads)
    T.join();
}

double ms(const char *Name) {
  return median(ActiveRecorder->durations(Name)) * 1e3;
}
double us(const char *Name) { return ms(Name) * 1e3; }

ExecOptions untracedOpts(const Entry &E) {
  ExecOptions O = E.Opts;
  O.Mode = TraceMode::Off;
  return O;
}

} // namespace

Counters Counters::now() {
  PlanCache::Stats C = PlanCache::global().stats();
  AdmissionQueue::Stats A = PlanCache::global().admissionStats();
  return {C.Hits, C.Misses, A.Admitted, A.Coalesced, A.Rejected, A.PeakActive};
}

void Counters::addDelta(const Counters &Before, const Counters &After) {
  Hits += After.Hits - Before.Hits;
  Misses += After.Misses - Before.Misses;
  Admitted += After.Admitted - Before.Admitted;
  Coalesced += After.Coalesced - Before.Coalesced;
  Rejected += After.Rejected - Before.Rejected;
  PeakActive = std::max(PeakActive, After.PeakActive);
}

std::vector<Metric> perfbench::layerMetrics(Workload &W,
                                            const TracedWindows &Win,
                                            int64_t &Attempted,
                                            int64_t &Failed) {
  Budget B = W.config().Smoke ? Budget{0.002, 2, 3} : Budget{0.25, 5, 400};
  auto check = [&](const Entry &E) {
    ++Attempted;
    Failed += !E.matchesGolden();
  };
  // Poisons the checked output before probes that execute only the first
  // statement, when that statement writes it.
  auto poisonFirst = [](Entry &E) {
    if (E.Stmts.size() == 1)
      E.poisonOutput();
  };

  // Arena reuse over setup and both windows, read before any probe runs.
  double Created = 0, Reused = 0;
  for (Entry *E : W.entries()) {
    CompiledPlan::ArenaStats A = E->Prog
                                     ? E->Prog->compile(E->M)->arenaStats()
                                     : E->out().compile(E->M)->arenaStats();
    Created += A.Created;
    Reused += A.Reused;
  }

  Entry &E = W.primary();
  Tensor &T = *E.Stmts[0];
  ExecOptions Opts = untracedOpts(E);
  std::shared_ptr<CompiledPlan> CP = T.compile(E.M);
  std::map<TensorVar, Region *> Regs = E.regions();

  // Front end: lowering, fingerprinting, and the compile phase.
  Plan P = T.lower(E.M);
  repeat("lower", B, [&] { T.lower(E.M); });
  repeat("plancache.keyFor", B,
         [&] { PlanCache::keyFor(P, LeafStrategy::Compiled); });
  {
    // Artifacts are destroyed after the loop, outside the spans.
    std::vector<std::unique_ptr<CompiledPlan>> Keep;
    repeat("compile.plan", B,
           [&] { Keep.push_back(std::make_unique<CompiledPlan>(P)); });
  }
  std::vector<std::shared_ptr<CompiledPlan>> Members;
  for (Tensor *S : E.Stmts)
    Members.push_back(S->compile(E.M));
  std::vector<std::unique_ptr<CompiledProgram>> Progs;
  repeat("compile.program", B,
         [&] { Progs.push_back(std::make_unique<CompiledProgram>(Members)); });
  std::unique_ptr<CompiledProgram> Prog = std::move(Progs.back());
  Progs.clear();

  // The request path at the workload's client count, each client on its
  // own artifact: the warm compile (memo -> PlanCache::find), then
  // admission submit and wait.
  int Clients = W.clients();
  int PrepareReps = warmReps(B, [&] { T.compile(E.M); });
  onClients(Clients, [&](int C) {
    Entry &Ec = W.entry(C, 0);
    for (int R = 0; R < PrepareReps; ++R) {
      setCurrentRequest(R);
      Span S("api.prepare");
      Ec.out().compile(Ec.M);
    }
  });
  int SubmitReps = warmReps(B, [&] {
    CP->submit(Regs, Opts, AdmissionQueue::Dispatch::Deferred).wait();
  });
  std::vector<int64_t> ClientFailed(Clients, 0);
  for (int C = 0; C < Clients; ++C)
    poisonFirst(W.entry(C, 0));
  onClients(Clients, [&](int C) {
    Entry &Ec = W.entry(C, 0);
    std::shared_ptr<CompiledPlan> CPc = Ec.out().compile(Ec.M);
    std::map<TensorVar, Region *> RegsC = Ec.regions();
    ExecOptions OptsC = untracedOpts(Ec);
    for (int R = 0; R < SubmitReps; ++R) {
      setCurrentRequest(R);
      ExecFuture F;
      {
        Span S("admission.submit");
        F = CPc->submit(RegsC, OptsC, AdmissionQueue::Dispatch::Deferred);
      }
      Span S("admission.wait");
      ClientFailed[C] += !F.wait().ok();
    }
  });
  for (int C = 0; C < Clients; ++C) {
    Failed += ClientFailed[C];
    check(W.entry(C, 0));
  }

  // Executor alone vs through the admission queue, one client, alternated
  // so drift hits both alike; then the thread scaling of the same artifact.
  poisonFirst(E);
  int ExecReps = warmReps(B, [&] { CP->execute(Regs, Opts); });
  for (int R = 0; R < ExecReps; ++R) {
    setCurrentRequest(R);
    {
      Span S("exec.execute");
      CP->execute(Regs, Opts);
    }
    Span S("admission.roundtrip");
    Failed += !CP->submit(Regs, Opts, AdmissionQueue::Dispatch::Deferred)
                   .wait()
                   .ok();
  }
  ExecOptions One = Opts, Four = Opts;
  One.NumThreads = 1;
  Four.NumThreads = 4;
  CP->execute(Regs, Four);
  int ScaleReps = warmReps(B, [&] { CP->execute(Regs, One); });
  for (int R = 0; R < ScaleReps; ++R) {
    setCurrentRequest(R);
    {
      Span S("exec.execute_1t");
      CP->execute(Regs, One);
    }
    Span S("exec.execute_4t");
    CP->execute(Regs, Four);
  }
  check(E);

  // Copy engine: every gather rectangle of the compiled plan, against a
  // plain memcpy of the same byte count in the same process.
  std::vector<std::pair<const Region *, Rect>> Copies;
  double Bytes = 0;
  for (const CompiledTask &Task : CP->compiledTasks()) {
    auto add = [&](const CompiledGather &G) {
      if (G.IsOutput)
        return;
      Copies.emplace_back(Regs.at(G.Tensor), G.R);
      Bytes += static_cast<double>(G.R.volume()) * sizeof(double);
    };
    for (const CompiledGather &G : Task.LaunchGathers)
      add(G);
    for (const std::vector<CompiledGather> &Step : Task.StepGathers)
      for (const CompiledGather &G : Step)
        add(G);
  }
  std::vector<Instance> Inst(Copies.size());
  std::vector<double> Src(static_cast<size_t>(Bytes / sizeof(double)), 1.0),
      Dst(Src.size(), 0.0);
  auto gatherAll = [&] {
    for (size_t I = 0; I < Copies.size(); ++I)
      Copies[I].first->gatherInto(Inst[I]);
  };
  auto resetAll = [&] {
    for (size_t I = 0; I < Copies.size(); ++I)
      Inst[I].reset(Copies[I].second);
  };
  resetAll();
  int CopyReps = warmReps(B, gatherAll);
  for (int R = 0; R < CopyReps; ++R) {
    setCurrentRequest(R);
    resetAll();
    {
      Span S("region.gather");
      gatherAll();
    }
    Span S("region.memcpy");
    std::memcpy(Dst.data(), Src.data(), Src.size() * sizeof(double));
  }
  double GatherGBps = divOr0(Bytes, ms("region.gather") * 1e6);
  double MemcpyGBps = divOr0(Bytes, ms("region.memcpy") * 1e6);

  // The leaf kernel at the leaf tile shape, as many at once as the
  // executor runs them.
  const LeafTile &L = E.Leaf;
  std::vector<std::vector<double>> As, Bs, Cs;
  for (int Way = 0; Way < L.Ways; ++Way) {
    As.push_back(inputArray(W.config().Seed, 0xA000 + Way, L.M * L.K));
    Bs.push_back(inputArray(W.config().Seed, 0xB000 + Way, L.K * L.N));
    Cs.emplace_back(static_cast<size_t>(L.M * L.N), 0.0);
  }
  auto gemmOne = [&](int Way) {
    blas::gemm(LeafParallelism{}, Cs[Way].data(), As[Way].data(),
               Bs[Way].data(), L.M, L.N, L.K, L.N, L.K, L.N);
  };
  repeat("blas.gemm", B, [&] {
    if (L.Ways == 1)
      gemmOne(0);
    else
      onClients(L.Ways, gemmOne);
  });
  double GemmGflops =
      divOr0(L.Ways * 2.0 * L.M * L.N * L.K, ms("blas.gemm") * 1e6);
  double LeafGflops = divOr0(E.StmtFlops, ms("exec.execute") * 1e6);

  // The linked program against its members run one by one, same regions.
  std::map<TensorVar, Region *> AllRegs = E.regions();
  auto stmtByStmt = [&] {
    for (const std::shared_ptr<CompiledPlan> &M : Members) {
      Span S("exec.member");
      M->execute(AllRegs, Opts);
    }
  };
  stmtByStmt();
  int ProgReps = warmReps(B, [&] { Prog->execute(AllRegs, Opts); });
  for (int R = 0; R < ProgReps; ++R) {
    setCurrentRequest(R);
    E.poisonOutput();
    {
      Span S("program.execute");
      Prog->execute(AllRegs, Opts);
    }
    check(E);
    E.poisonOutput();
    {
      Span S("program.stmt_by_stmt");
      stmtByStmt();
    }
    check(E);
  }

  CompiledPlan::DataMovementStats Mv =
      E.Prog ? Prog->dataMovementStats() : CP->dataMovementStats();
  CompiledProgram::LinkStats Lk = Prog->linkStats();
  const Counters &N = Win.Windows;
  double Hits = N.Hits, Misses = N.Misses;
  return {
      {"api.prepare_us", us("api.prepare"), "us"},
      {"lower.ms", ms("lower"), "ms"},
      {"plancache.keyfor_us", us("plancache.keyFor"), "us"},
      {"plancache.hit_ratio", divOr0(Hits, Hits + Misses), "ratio"},
      {"compile.plan_ms", ms("compile.plan"), "ms"},
      {"compile.program_ms", ms("compile.program"), "ms"},
      {"admission.submit_us", us("admission.submit"), "us"},
      {"admission.wait_ms", ms("admission.wait"), "ms"},
      {"admission.overhead_us",
       us("admission.roundtrip") - us("exec.execute"), "us"},
      {"admission.admitted", double(N.Admitted), "count"},
      {"admission.coalesced", double(N.Coalesced), "count"},
      {"admission.rejected", double(N.Rejected), "count"},
      {"admission.peak_active", double(N.PeakActive), "count"},
      {"exec.ms", ms("exec.execute"), "ms"},
      {"exec.arena_reuse_ratio", divOr0(Reused, Created + Reused), "ratio"},
      {"exec.thread_scaling",
       divOr0(ms("exec.execute_1t"), ms("exec.execute_4t")), "ratio"},
      {"region.moved_bytes", double(Mv.movedBytes()), "bytes"},
      {"region.elided_bytes", double(Mv.ElidedBytes + Mv.WritebackElidedBytes),
       "bytes"},
      {"region.gather_gbps", GatherGBps, "GB/s"},
      {"region.memcpy_gbps", MemcpyGBps, "GB/s"},
      {"region.gather_roofline_frac", divOr0(GatherGBps, MemcpyGBps), "ratio"},
      {"blas.gemm_gflops", GemmGflops, "GFLOP/s"},
      {"leaf.gflops", LeafGflops, "GFLOP/s"},
      {"leaf.roofline_frac", divOr0(LeafGflops, GemmGflops), "ratio"},
      {"program.ms", ms("program.execute"), "ms"},
      {"program.stmt_by_stmt_ms", ms("program.stmt_by_stmt"), "ms"},
      {"program.elided_bytes",
       double(Lk.ElidedGatherBytes + Lk.ElidedWritebackBytes), "bytes"},
      {"program.direct_dep_frac",
       divOr0(Lk.DirectDeps, Lk.DirectDeps + Lk.BarrierDeps), "ratio"},
      {"trace.overhead_frac", 1 - divOr0(Win.TracedPerS, Win.UntracedPerS),
       "ratio"},
  };
}
