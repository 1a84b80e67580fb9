//===- perfbench/src/main.cpp - The repository benchmark -------*- C++ -*-===//
///
/// \file
/// One workload per process, so the PlanCache starts empty and the peak RSS
/// belongs to that workload:
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
///
/// --trace 0 runs the closed loop for S seconds untraced and reports the
/// end-to-end metrics. --trace 1 splits every segment of those S seconds
/// into an untraced and a traced half (the difference is the tracing
/// overhead), then runs the per-layer probes and reports the per-layer
/// metrics; the spans go to .bench_out/NAME-seedN.trace.json as Chrome
/// trace-event JSON. Human-readable tables go to stdout; the last stdout
/// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
/// Exit status 0 when every output matched its reference, 1 on a mismatch
/// or failure, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "Layers.h"
#include "Spans.h"
#include "Stats.h"
#include "Workload.h"

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I], Value;
    if (Key == "--smoke") {
      A.Smoke = true;
      continue;
    }
    size_t Eq = Key.find('=');
    if (Eq != std::string::npos) {
      Value = Key.substr(Eq + 1);
      Key = Key.substr(0, Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      return false;
    }
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (!(A.Seconds > 0 && A.Seconds <= 120))
        return false;
    } else if (Key == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      A.Trace = Value == "1";
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return HaveWorkload;
}

/// The successful requests that ended in one slice of a timed window, and
/// the slice's wall time less the clients' mean check time.
struct Slice {
  std::vector<double> LatMs;
  double WallS = 0;
  double perSecond() const { return LatMs.size() / WallS; }
};

/// Slices of about this length make up a timed window. The host runs
/// whole processes in slow phases lasting seconds; a slice is short enough
/// that every run has slices outside them.
constexpr double SliceS = 0.5;

int sliceCount(double Seconds) {
  return std::max(1, static_cast<int>(Seconds / SliceS));
}

/// The quiet tenth of a run: its fastest slices by throughput, a tenth of
/// them and at least 100 requests (so at least 10 lie beyond p90), pooled.
struct Quiet {
  int Slices = 0;
  std::vector<double> LatMs;
  double WallS = 0;
};

Quiet quietTenth(std::vector<Slice> Slices) {
  std::sort(Slices.begin(), Slices.end(), [](const Slice &A, const Slice &B) {
    return A.perSecond() > B.perSecond();
  });
  Quiet Q;
  size_t Tenth = (Slices.size() + 9) / 10;
  for (const Slice &S : Slices) {
    if (static_cast<size_t>(Q.Slices) >= Tenth && Q.LatMs.size() >= 100)
      break;
    ++Q.Slices;
    Q.LatMs.insert(Q.LatMs.end(), S.LatMs.begin(), S.LatMs.end());
    Q.WallS += S.WallS;
  }
  return Q;
}

/// One closed-loop timed window over every client of a workload.
struct Window {
  int64_t Attempted = 0, Failed = 0;
  std::vector<double> LatMs; ///< Successful requests only.
  /// The same latencies by entry kind, cold requests apart.
  std::map<std::string, std::vector<double>> ByKind;
  double WallS = 0;
  std::vector<Slice> Slices;
  double perSecond() const {
    return WallS > 0 ? (Attempted - Failed) / WallS : 0;
  }
  void append(const Window &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
    LatMs.insert(LatMs.end(), O.LatMs.begin(), O.LatMs.end());
    for (const auto &[Kind, Lat] : O.ByKind)
      ByKind[Kind].insert(ByKind[Kind].end(), Lat.begin(), Lat.end());
    WallS += O.WallS;
    Slices.insert(Slices.end(), O.Slices.begin(), O.Slices.end());
  }
};

/// A completed request as the slices see it.
struct Done {
  int64_t EndNs, CheckNs;
  double LatMs; ///< Negative when the request failed.
};

/// Cuts [Start, End) into \p N equal slices and puts every request in the
/// slice it ended in. A slice's wall time takes out the clients' mean check
/// time, as Window::WallS does.
std::vector<Slice> slice(const std::vector<Done> &Requests, int64_t Start,
                         int64_t End, int N, int Clients) {
  std::vector<Slice> Slices(N);
  std::vector<int64_t> CheckNs(N, 0);
  double LenNs = static_cast<double>(End - Start) / N;
  for (const Done &D : Requests) {
    int K = std::clamp(static_cast<int>((D.EndNs - Start) / LenNs), 0, N - 1);
    CheckNs[K] += D.CheckNs;
    if (D.LatMs >= 0)
      Slices[K].LatMs.push_back(D.LatMs);
  }
  std::vector<Slice> Out;
  for (int K = 0; K < N; ++K) {
    Slices[K].WallS =
        (LenNs - static_cast<double>(CheckNs[K]) / Clients) * 1e-9;
    if (!Slices[K].LatMs.empty() && Slices[K].WallS > 0)
      Out.push_back(std::move(Slices[K]));
  }
  return Out;
}

/// Every client sends its next request as soon as the previous one
/// returns, until \p Seconds have passed. Before each request the output is
/// poisoned, after it compared bit for bit with the golden bytes. Latency
/// covers the API call only, and the time a client spends poisoning and
/// comparing is taken out of its wall time.
Window runWindow(Workload &W, double Seconds) {
  static std::atomic<int64_t> NextRequest{1};
  int Clients = W.clients();
  std::vector<Window> Per(Clients);
  std::vector<std::vector<Done>> Requests(Clients);
  std::vector<int64_t> EndNs(Clients), CheckNs(Clients, 0);
  int64_t Start = nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      Window &Win = Per[C];
      for (int64_t I = 0; nowNs() < Deadline; ++I) {
        Request R = W.plan(C, I);
        Entry &E = W.entry(C, R.Entry);
        setCurrentRequest(NextRequest++);
        Span Root("request");
        int64_t P0 = nowNs();
        E.poisonOutput();
        bool Ok = true;
        int64_t T0 = nowNs();
        try {
          E.evaluate(R.Cold);
        } catch (...) {
          Ok = false;
        }
        int64_t T1 = nowNs();
        {
          Span Check("check.golden");
          Ok = Ok && E.matchesGolden();
        }
        int64_t Check = (T0 - P0) + (nowNs() - T1);
        CheckNs[C] += Check;
        Requests[C].push_back({T1, Check, Ok ? (T1 - T0) * 1e-6 : -1});
        ++Win.Attempted;
        if (Ok) {
          Win.LatMs.push_back((T1 - T0) * 1e-6);
          Win.ByKind[E.Kind + (R.Cold ? " cold" : "")].push_back(
              Win.LatMs.back());
        } else
          ++Win.Failed;
      }
      EndNs[C] = nowNs();
    });
  for (std::thread &T : Threads)
    T.join();
  Window All;
  std::vector<Done> Merged;
  for (int C = 0; C < Clients; ++C) {
    Per[C].WallS = 0;
    All.append(Per[C]);
    All.WallS = std::max(All.WallS, (EndNs[C] - Start - CheckNs[C]) * 1e-9);
    Merged.insert(Merged.end(), Requests[C].begin(), Requests[C].end());
  }
  All.Slices = slice(Merged, Start, *std::max_element(EndNs.begin(), EndNs.end()),
                     sliceCount(Seconds), Clients);
  return All;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

void printWindow(const char *Label, const Window &W) {
  std::printf("%s: %lld requests in %.3f s, %lld failed, %.3f req/s, "
              "p50 %.4f ms, p90 %.4f ms (n=%zu)\n",
              Label, static_cast<long long>(W.Attempted), W.WallS,
              static_cast<long long>(W.Failed), W.perSecond(),
              percentile(W.LatMs, 50), percentile(W.LatMs, 90),
              W.LatMs.size());
  if (W.ByKind.size() > 1)
    for (const auto &[Kind, Lat] : W.ByKind)
      std::printf("  %-12s p50 %.4f ms, p90 %.4f ms (n=%zu)\n", Kind.c_str(),
                  percentile(Lat, 50), percentile(Lat, 90), Lat.size());
}

void printResult(bool Correct, int64_t Attempted, int64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              Correct ? "true" : "false", static_cast<long long>(Attempted),
              static_cast<long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(),
                std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

int runBenchmark(Workload &W, const Args &A) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s "
              "clients=%d threads=%d\n",
              W.name().c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, A.Smoke ? " smoke" : "",
              W.clients(), W.threads());

  // The run alternates set-up and measurement. Each set-up builds fresh
  // tensors and artifacts and is followed by an equal share of the timed
  // seconds, so every run times several buffer placements. A single set-up
  // is dominated by first-touch page faults and moves 15-30% between runs,
  // and the host's slow phases stretch some: every segment after the first
  // repeats its set-up for about 0.1 s (up to 20 times), and setup_s is the
  // set-up at the 10th percentile, as throughput and latency take the fast
  // tenth of their slices.
  int Segments = A.Smoke ? 2 : 7;
  double SegmentS = A.Seconds / Segments;
  std::vector<double> SetupS;
  Window Untraced, Traced;
  TracedWindows TW;
  SpanRecorder Rec;
  int64_t Attempted = 0, Failed = 0;
  for (int S = 0; S < Segments; ++S) {
    int64_t SetupEnd = nowNs() + (S ? 100000000 : 0);
    int Mismatched = 0;
    for (int Rep = 0; Rep < 20 && (Rep == 0 || nowNs() < SetupEnd); ++Rep) {
      if (!SetupS.empty())
        W.teardown();
      int64_t T0 = nowNs();
      Mismatched += W.setup();
      SetupS.push_back((nowNs() - T0) * 1e-9);
      Attempted += static_cast<int64_t>(W.entries().size());
    }
    if (S == 0) {
      double MaxErr = 0;
      int Bad = W.verifyAgainstReferences(MaxErr);
      std::printf("reference check: %zu outputs, max abs error %.3e, %d out "
                  "of tolerance\n",
                  W.entries().size(), MaxErr, Bad);
      Failed += Bad;
      // The request check must catch an output the program left unwritten:
      // a poisoned output has to fail the compare, and one evaluation has
      // to restore it.
      int Caught = 0, Restored = 0;
      for (Entry *E : W.entries()) {
        E->poisonOutput();
        Caught += !E->matchesGolden();
        E->evaluate(/*Cold=*/false);
        Restored += E->matchesGolden();
      }
      int Outputs = static_cast<int>(W.entries().size());
      std::printf("check self-test: %d of %d poisoned outputs caught, %d "
                  "restored\n",
                  Caught, Outputs, Restored);
      Attempted += 2 * Outputs;
      Failed += (Outputs - Caught) + (Outputs - Restored);
    } else {
      Failed += Mismatched;
    }
    Counters Before = Counters::now();
    Window U = runWindow(W, A.Trace ? SegmentS / 2 : SegmentS);
    if (A.Trace) {
      ActiveRecorder = &Rec;
      Window T = runWindow(W, SegmentS / 2);
      ActiveRecorder = nullptr;
      Traced.append(T);
    }
    TW.Windows.addDelta(Before, Counters::now());
    std::printf("segment %d: set-up %.4f s, %lld requests, %.3f req/s, p50 "
                "%.4f ms, p90 %.4f ms\n",
                S, SetupS.back(), static_cast<long long>(U.Attempted),
                U.perSecond(), percentile(U.LatMs, 50),
                percentile(U.LatMs, 90));
    Untraced.append(U);
  }
  Attempted += Untraced.Attempted + Traced.Attempted;
  Failed += Untraced.Failed + Traced.Failed;
  // Every workload's clients own their artifacts and set-up compiles them
  // all: in the timed windows every lookup must hit, and nothing may
  // coalesce or be refused. Each broken invariant counts as a failure.
  const Counters &N = TW.Windows;
  int Broken = (N.Misses != 0) + (N.Coalesced != 0) + (N.Rejected != 0);
  std::printf("timed windows: %lld cache hits, %lld misses; %lld admitted, "
              "%lld coalesced, %lld rejected%s\n",
              static_cast<long long>(N.Hits), static_cast<long long>(N.Misses),
              static_cast<long long>(N.Admitted),
              static_cast<long long>(N.Coalesced),
              static_cast<long long>(N.Rejected),
              Broken ? " (INVARIANT BROKEN)" : "");
  Failed += Broken;
  printWindow(A.Trace ? "untraced, all segments" : "all segments", Untraced);

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    // Throughput and latency come from the quiet tenth of the run's slices.
    // Slow host phases cover a different share of every run: pooled over
    // whole runs, power_chain's p50 spread 0.34 (quartile distance over
    // median) across seeds. The fastest slices stay outside those phases.
    Quiet Q = quietTenth(Untraced.Slices);
    int64_t Lat = static_cast<int64_t>(Q.LatMs.size());
    Metrics = {
        {"setup_s", percentile(SetupS, 10), "s"},
        {"throughput_per_s", Q.WallS > 0 ? Lat / Q.WallS : 0, "1/s"},
        {"lat_p50_ms", percentile(Q.LatMs, 50), "ms"},
        {"lat_p90_ms", percentile(Q.LatMs, 90), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"success_ratio",
         Attempted ? double(Attempted - Failed) / Attempted : 0, "ratio"},
    };
    std::printf("  %-18s %16s %-7s %s\n", "metric", "value", "unit",
                "samples");
    const char *Samples[] = {"set-ups", "requests", "requests", "requests",
                             "process", "outputs checked"};
    int64_t Counts[] = {static_cast<int64_t>(SetupS.size()), Lat, Lat, Lat, 1,
                        Attempted};
    for (size_t I = 0; I < Metrics.size(); ++I)
      std::printf("  %-18s %16.6g %-7s %lld %s\n", Metrics[I].Name.c_str(),
                  Metrics[I].Value, Metrics[I].Unit.c_str(),
                  static_cast<long long>(Counts[I]), Samples[I]);
    std::printf("  error_rate = %lld / %lld = %.6g; quiet tenth: %d of %zu "
                "slices of %.3g s, %lld requests, %lld beyond p90\n",
                static_cast<long long>(Failed),
                static_cast<long long>(Attempted),
                Attempted ? double(Failed) / Attempted : 0, Q.Slices,
                Untraced.Slices.size(), SegmentS / sliceCount(SegmentS),
                static_cast<long long>(Lat),
                static_cast<long long>(Lat - (Lat * 9 + 9) / 10));
  } else {
    printWindow("traced, all segments", Traced);
    TW.UntracedPerS = Untraced.perSecond();
    TW.TracedPerS = Traced.perSecond();
    ActiveRecorder = &Rec;
    Metrics = layerMetrics(W, TW, Attempted, Failed);
    ActiveRecorder = nullptr;
    std::printf("spans (self time = span minus nested spans):\n");
    Rec.printSelfTimes(stdout);
    std::printf("per-layer metrics:\n");
    for (const Metric &M : Metrics)
      std::printf("  %-28s %16.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
    std::string Path = ".bench_out/" + W.name() + "-seed" +
                       std::to_string(A.Seed) + ".trace.json";
    std::error_code Ec;
    std::filesystem::create_directories(".bench_out", Ec);
    if (Rec.writeChromeTrace(Path))
      std::printf("chrome trace: %s\n", Path.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }
  std::printf("output digest: %016llx\n",
              static_cast<unsigned long long>(W.digest()));
  bool Correct = Failed == 0;
  std::fflush(stdout);
  printResult(Correct, Attempted, Failed, Metrics);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke]\n");
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, {A.Seed, A.Smoke});
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  try {
    return runBenchmark(*W, A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
