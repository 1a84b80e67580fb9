//===- perfbench/src/Workload.cpp -----------------------------*- C++ -*-===//

#include "Workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "Inputs.h"
#include "Reference.h"
#include "Spans.h"
#include "runtime/PlanCache.h"

using namespace distal;
using namespace perfbench;

namespace {

/// Outputs within this absolute error of the reference pass. Inputs lie in
/// [-0.5, 0.5), so every checked value is a short sum of small products and
/// reassociation moves it by far less.
constexpr double Tolerance = 1e-9;

Tensor &addTensor(Entry &E, const std::string &Name, std::vector<Coord> Dims,
                  Format F) {
  E.Tensors.push_back(
      std::make_unique<Tensor>(E.Kind + "_" + Name, std::move(Dims), F));
  return *E.Tensors.back();
}

Format denseFormat(int Order, const char *Spec) {
  return Format(std::vector<ModeKind>(Order, ModeKind::Dense),
                TensorDistribution::parse(Spec));
}

/// Fills \p T with inputValue(Seed, Salt, row-major index).
void fillSeeded(Tensor &T, uint64_t Seed, uint64_t Salt) {
  std::vector<Coord> Shape = T.var().shape();
  T.fill([Seed, Salt, Shape](const Point &P) {
    uint64_t Index = 0;
    for (int D = 0; D < P.dim(); ++D)
      Index = Index * Shape[D] + P[D];
    return inputValue(Seed, Salt, Index);
  });
}

void setThreads(Entry &E, int Threads) {
  E.Opts.NumThreads = Threads;
  for (Tensor *T : E.Stmts)
    T->execOptions() = E.Opts;
  if (E.Prog)
    E.Prog->execOptions() = E.Opts;
}

/// A(i,j) = B(i,k) * C(k,j), n x n on a G x G grid, scheduled as Cannon's
/// algorithm (systolic rotation) or SUMMA (k chunks of n / G), with GEMM
/// leaves. Checked on the full result, or on sampled rows and columns.
Entry gemmEntry(bool Cannon, Coord N, int G, int Threads, const Config &Cfg,
                uint64_t Salt, bool FullCheck) {
  Entry E;
  E.Kind = Cannon ? "cannon" : "summa";
  E.M = Machine::grid({G, G});
  Format F = denseFormat(2, "xy->xy");
  Tensor &A = addTensor(E, "A", {N, N}, F), &B = addTensor(E, "B", {N, N}, F),
         &C = addTensor(E, "C", {N, N}, F);
  fillSeeded(B, Cfg.Seed, Salt + 1);
  fillSeeded(C, Cfg.Seed, Salt + 2);
  IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji"),
      Ko("ko"), Ki("ki"), Kos("kos");
  A(I, J) = B(I, K) * C(K, J);
  Schedule &S = A.schedule();
  S.distribute({I, J}, {Io, Jo}, {Ii, Ji}, E.M);
  if (Cannon)
    S.divide(K, Ko, Ki, G)
        .reorder({Io, Jo, Ko, Ii, Ji, Ki})
        .rotate(Ko, {Io, Jo}, Kos)
        .communicate(A, Jo)
        .communicate({B, C}, Kos);
  else
    S.split(K, Ko, Ki, N / G)
        .reorder({Io, Jo, Ko, Ii, Ji, Ki})
        .communicate(A, Jo)
        .communicate({B, C}, Ko);
  S.substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
  E.Stmts = {&A};
  setThreads(E, Threads);
  E.StmtFlops = 2.0 * N * N * N;
  E.Leaf = {N / G, N / G, N / G, std::min(Threads, G * G)};
  uint64_t Seed = Cfg.Seed;
  E.ReferenceError = [Seed, Salt, N, FullCheck](const double *Got) {
    std::vector<double> Bv = inputArray(Seed, Salt + 1, N * N),
                        Cv = inputArray(Seed, Salt + 2, N * N);
    if (FullCheck)
      return gemmFullError(Got, Bv, Cv, N);
    Rng R(splitmix64(Seed ^ Salt));
    std::vector<int64_t> Rows, Cols;
    for (int Sample = 0; Sample < 8; ++Sample) {
      Rows.push_back(static_cast<int64_t>(R.next() % N));
      Cols.push_back(static_cast<int64_t>(R.next() % N));
    }
    return gemmSampledError(Got, Bv, Cv, N, Rows, Cols);
  };
  return E;
}

/// MTTKRP A(i,l) = B(i,j,k) C(j,l) D(k,l) with the paper's schedule (B in
/// place on a 2 x 2 grid, partials reduced into A).
Entry mttkrpEntry(Coord Dim, Coord Rank, int Threads, const Config &Cfg,
                  uint64_t Salt) {
  Entry E;
  E.Kind = "mttkrp";
  E.M = Machine::grid({2, 2});
  Tensor &A = addTensor(E, "A", {Dim, Rank}, denseFormat(2, "xy->x0")),
         &B = addTensor(E, "B", {Dim, Dim, Dim}, denseFormat(3, "xyz->xy")),
         &C = addTensor(E, "C", {Dim, Rank}, denseFormat(2, "xy->*x")),
         &D = addTensor(E, "D", {Dim, Rank}, denseFormat(2, "xy->**"));
  fillSeeded(B, Cfg.Seed, Salt + 1);
  fillSeeded(C, Cfg.Seed, Salt + 2);
  fillSeeded(D, Cfg.Seed, Salt + 3);
  IndexVar I("i"), J("j"), K("k"), L("l"), Io("io"), Ii("ii"), Jo("jo"),
      Ji("ji");
  A(I, L) = B(I, J, K) * C(J, L) * D(K, L);
  A.schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, E.M)
      .communicate({A, B, C, D}, Jo)
      .parallelize(Ii);
  E.Stmts = {&A};
  setThreads(E, Threads);
  E.StmtFlops = 3.0 * Dim * Dim * Dim * Rank;
  uint64_t Seed = Cfg.Seed;
  E.ReferenceError = [Seed, Salt, Dim, Rank](const double *Got) {
    return mttkrpError(Got, inputArray(Seed, Salt + 1, Dim * Dim * Dim),
                       inputArray(Seed, Salt + 2, Dim * Rank),
                       inputArray(Seed, Salt + 3, Dim * Rank), Dim, Rank);
  };
  return E;
}

/// TTM A(i,j,l) = B(i,j,k) C(k,l) distributed over i on 4 processors (local
/// GEMMs, no communication).
Entry ttmEntry(Coord Dim, Coord Rank, int Threads, const Config &Cfg,
               uint64_t Salt) {
  Entry E;
  E.Kind = "ttm";
  E.M = Machine::grid({4});
  Tensor &A = addTensor(E, "A", {Dim, Dim, Rank}, denseFormat(3, "xyz->x")),
         &B = addTensor(E, "B", {Dim, Dim, Dim}, denseFormat(3, "xyz->x")),
         &C = addTensor(E, "C", {Dim, Rank}, denseFormat(2, "xy->*"));
  fillSeeded(B, Cfg.Seed, Salt + 1);
  fillSeeded(C, Cfg.Seed, Salt + 2);
  IndexVar I("i"), J("j"), K("k"), L("l"), Io("io"), Ii("ii");
  A(I, J, L) = B(I, J, K) * C(K, L);
  A.schedule()
      .distribute({I}, {Io}, {Ii}, E.M)
      .communicate({A, B, C}, Io)
      .parallelize(Ii);
  E.Stmts = {&A};
  setThreads(E, Threads);
  E.StmtFlops = 2.0 * Dim * Dim * Dim * Rank;
  uint64_t Seed = Cfg.Seed;
  E.ReferenceError = [Seed, Salt, Dim, Rank](const double *Got) {
    return ttmError(Got, inputArray(Seed, Salt + 1, Dim * Dim * Dim),
                    inputArray(Seed, Salt + 2, Dim * Rank), Dim, Rank);
  };
  return E;
}

/// The linked power-iteration chain x_{s+1}(i) = x_s(i) * Mul + Add over
/// \p Steps statements on 4 processors. Interior iterates are homed whole on
/// processor 0 ("x->0"), so only program linking keeps their bytes in place.
Entry powerChainEntry(Coord N, int Steps, int Threads, const Config &Cfg,
                      int64_t GemmRef) {
  constexpr double Mul = 1.0009765625, Add = 0.03125;
  constexpr uint64_t Salt = 0x900;
  Entry E;
  E.Kind = "power";
  E.M = Machine::grid({4});
  std::vector<Tensor *> X;
  for (int S = 0; S <= Steps; ++S)
    X.push_back(&addTensor(
        E, "x" + std::to_string(S), {N},
        denseFormat(1, S == 0 || S == Steps ? "x->x" : "x->0")));
  fillSeeded(*X[0], Cfg.Seed, Salt);
  E.Prog = std::make_unique<Program>();
  for (int S = 0; S < Steps; ++S) {
    IndexVar I("i"), Io("io"), Ii("ii");
    (*X[S + 1])(I) = (*X[S])(I) * Mul + Add;
    X[S + 1]->schedule().distribute({I}, {Io}, {Ii}, E.M);
    E.Stmts.push_back(X[S + 1]);
    E.Prog->add(*X[S + 1]);
  }
  setThreads(E, Threads);
  E.StmtFlops = 2.0 * N;
  // No GEMM leaf: the blas probe times a GEMM of this shape as the host's
  // compute roof.
  E.Leaf = {GemmRef, GemmRef, GemmRef, Threads};
  uint64_t Seed = Cfg.Seed;
  E.ReferenceError = [Seed, N, Steps](const double *Got) {
    return powerChainError(Got, inputArray(Seed, Salt, N), Steps, Mul, Add);
  };
  return E;
}

} // namespace

void Entry::evaluate(bool Cold) {
  if (Prog) {
    Span S("program.evaluate");
    Prog->evaluate(M);
  } else if (Cold) {
    Span S("api.evaluateUncached");
    out().evaluateUncached(M);
  } else {
    Span S("api.evaluate");
    out().evaluate(M);
  }
}

std::map<TensorVar, Region *> Entry::regions() const {
  std::map<TensorVar, Region *> R;
  for (const std::unique_ptr<Tensor> &T : Tensors)
    R[T->var()] = T->region();
  return R;
}

bool Entry::matchesGolden() const {
  const Region *R = out().region();
  return R && Golden && static_cast<size_t>(R->volume()) == Golden->size() &&
         std::memcmp(R->data(), Golden->data(),
                     Golden->size() * sizeof(double)) == 0;
}

void Entry::poisonOutput() {
  // 1024 hashed positions land in every tile of every output the workloads
  // use, whatever the layout.
  Region *R = out().region();
  if (!R)
    return;
  uint64_t Volume = static_cast<uint64_t>(R->volume());
  for (uint64_t K = 0; K < 1024; ++K)
    R->data()[splitmix64(K) % Volume] = std::nan("");
}

Workload::Workload(std::string Name, Config Cfg, int Clients, int Threads,
                   int ColdEvery, CatalogueFn Build)
    : Name(std::move(Name)), Cfg(Cfg), Clients(Clients), Threads(Threads),
      ColdEvery(ColdEvery), Build(std::move(Build)) {}

int Workload::setup() {
  for (int C = 0; C < Clients; ++C)
    Catalogues.push_back(Build(C, Cfg));
  for (std::vector<Entry> &Cat : Catalogues)
    for (Entry &E : Cat)
      E.evaluate(/*Cold=*/false);
  int Mismatched = 0;
  std::vector<Entry *> All = entries();
  for (size_t I = 0; I < Goldens.size(); ++I) {
    All[I]->Golden = &Goldens[I];
    Mismatched += !All[I]->matchesGolden();
  }
  return Mismatched;
}

void Workload::teardown() {
  Catalogues.clear();
  PlanCache::global().clear();
}

int Workload::verifyAgainstReferences(double &MaxError) {
  int Bad = 0;
  MaxError = 0;
  Goldens.clear();
  std::vector<Entry *> All = entries();
  for (Entry *E : All) {
    const Region &R = *E->out().region();
    double Err = E->ReferenceError(R.data());
    if (!(Err <= Tolerance))
      ++Bad;
    MaxError = std::max(MaxError, Err);
    Goldens.emplace_back(R.data(), R.data() + R.volume());
  }
  for (size_t I = 0; I < All.size(); ++I)
    All[I]->Golden = &Goldens[I];
  return Bad;
}

Request Workload::plan(int Client, int64_t Index) const {
  Request R;
  int N = static_cast<int>(Catalogues[Client].size());
  uint64_t Stream = splitmix64(Cfg.Seed ^ (static_cast<uint64_t>(Client) << 48));
  if (N > 1) {
    Rng G(splitmix64(Stream ^ static_cast<uint64_t>(Index)));
    R.Entry = Zipf(N).sample(G);
  }
  if (ColdEvery > 0) {
    int64_t Phase = static_cast<int64_t>(splitmix64(~Stream) % ColdEvery);
    R.Cold = (Index + Phase) % ColdEvery == ColdEvery - 1;
  }
  return R;
}

std::vector<Entry *> Workload::entries() {
  std::vector<Entry *> Out;
  for (std::vector<Entry> &Cat : Catalogues)
    for (Entry &E : Cat)
      Out.push_back(&E);
  return Out;
}

uint64_t Workload::digest() const {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const std::vector<double> &G : Goldens) {
    const unsigned char *P = reinterpret_cast<const unsigned char *>(G.data());
    for (size_t I = 0; I < G.size() * sizeof(double); ++I)
      H = (H ^ P[I]) * 0x100000001b3ull;
  }
  return H;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  const Config &Cfg) {
  bool Smoke = Cfg.Smoke;
  if (Name == "gemm_cannon")
    // Fig. 15a Cannon GEMM on a 2 x 2 machine, one closed-loop client.
    // 4 threads, not 3: 3 threads on 4 tasks is slower and noisier.
    return std::make_unique<Workload>(
        Name, Cfg, /*Clients=*/1, /*Threads=*/4, /*ColdEvery=*/0,
        [Smoke](int, const Config &C) {
          std::vector<Entry> Cat;
          Cat.push_back(gemmEntry(/*Cannon=*/true, Smoke ? 64 : 1024, 2, 4, C,
                                  0x100, /*FullCheck=*/Smoke));
          return Cat;
        });
  if (Name == "power_chain")
    // One thread: at 2-4 threads the chain's p90 latency swung between
    // 1.1x and 2.2x its p50 from one process to the next on the 4-core
    // reference host (wake-up latency of the DAG's worker hand-offs), an
    // unusable 30-65% run-to-run spread; at 1 thread it stays near 13%.
    // n=4096, not 65536: requests take ~1.5 ms instead of 25-40 ms, so
    // each half-second slice of a run holds hundreds of them, and the
    // per-statement overhead the workload is about dominates the bytes.
    return std::make_unique<Workload>(
        Name, Cfg, 1, 1, 0, [Smoke](int, const Config &C) {
          std::vector<Entry> Cat;
          Cat.push_back(powerChainEntry(Smoke ? 1024 : 4096, Smoke ? 4 : 32,
                                        1, C, Smoke ? 32 : 256));
          return Cat;
        });
  if (Name == "serve_mix")
    // Private catalogues (nothing coalesces), 32 artifacts under the
    // PlanCache capacity of 64 (nothing is evicted). Kinds interleave in
    // Zipf rank order, so each kind's share of requests is the same for
    // every seed.
    return std::make_unique<Workload>(
        Name, Cfg, 4, 1, Smoke ? 4 : 16, [Smoke](int Client, const Config &C) {
          Coord N = Smoke ? 32 : 256, Dim = Smoke ? 8 : 48,
                Rank = Smoke ? 4 : 16;
          std::vector<Entry> Cat;
          for (uint64_t Copy = 0; Copy < 2; ++Copy) {
            uint64_t Salt = (static_cast<uint64_t>(Client) << 16) | (Copy << 12);
            Cat.push_back(gemmEntry(true, N, 4, 1, C, Salt | 0x100, true));
            Cat.push_back(gemmEntry(false, N, 4, 1, C, Salt | 0x200, true));
            Cat.push_back(mttkrpEntry(Dim, Rank, 1, C, Salt | 0x300));
            Cat.push_back(ttmEntry(Dim, Rank, 1, C, Salt | 0x400));
          }
          return Cat;
        });
  return nullptr;
}
