//===- runtime/Region.cpp -------------------------------------*- C++ -*-===//

#include "runtime/Region.h"

#include <algorithm>
#include <cstring>

#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

using namespace distal;

static std::vector<Coord> rowMajorStrides(const std::vector<Coord> &Extents) {
  std::vector<Coord> Strides(Extents.size(), 1);
  for (int I = static_cast<int>(Extents.size()) - 2; I >= 0; --I)
    Strides[I] = Strides[I + 1] * Extents[I + 1];
  return Strides;
}

namespace {

/// Decomposition of the points of a rectangle into contiguous innermost
/// runs, contiguous on *both* sides of a region<->instance copy: the run
/// spans the trailing dimensions the rectangle covers fully (plus the
/// innermost partial one), so both the row-major region offsets and the
/// row-major instance offsets advance by 1 within a run.
struct RunDecomposition {
  int64_t NumRuns = 0;
  int64_t RunLen = 0;
  int OuterDims = 0; ///< Dims iterated by the odometer, [0, OuterDims).
};

RunDecomposition decomposeRuns(const Rect &R,
                               const std::vector<Coord> &Shape) {
  RunDecomposition D;
  if (R.isEmpty() && R.dim() > 0)
    return D;
  int Dim = R.dim();
  if (Dim == 0) { // Scalar region: one run of one element.
    D.NumRuns = 1;
    D.RunLen = 1;
    return D;
  }
  // Cut: smallest dim index such that every deeper dim is fully covered.
  int Cut = Dim - 1;
  while (Cut > 0 && R.lo()[Cut] == 0 && R.hi()[Cut] == Shape[Cut])
    --Cut;
  D.OuterDims = Cut;
  D.RunLen = 1;
  for (int I = Cut; I < Dim; ++I)
    D.RunLen *= R.hi()[I] - R.lo()[I];
  D.NumRuns = 1;
  for (int I = 0; I < Cut; ++I)
    D.NumRuns *= R.hi()[I] - R.lo()[I];
  return D;
}

/// Invokes Fn(RegionOff, InstOff, RunLen) for runs [RunLo, RunHi) of \p R
/// under decomposition \p D. \p RegStrides are the row-major strides of the
/// full region whose shape is \p Shape; instance offsets are row-major over
/// the rectangle extents. Restartable at any run index so large copies can
/// fan out over disjoint run ranges.
template <typename Fn>
void forEachRunRange(const Rect &R, const std::vector<Coord> &Shape,
                     const std::vector<Coord> &RegStrides,
                     const RunDecomposition &D, int64_t RunLo, int64_t RunHi,
                     const Fn &Body) {
  if (RunLo >= RunHi)
    return;
  int Dim = R.dim();
  int64_t RegOff = 0;
  for (int I = 0; I < Dim; ++I)
    RegOff += R.lo()[I] * RegStrides[I];
  // Seed the outer-dim odometer at RunLo, then maintain the region offset
  // incrementally; the instance side is contiguous across runs.
  std::vector<Coord> Idx(D.OuterDims, 0);
  int64_t Rem = RunLo;
  for (int I = D.OuterDims - 1; I >= 0; --I) {
    Coord Extent = R.hi()[I] - R.lo()[I];
    Idx[I] = Rem % Extent;
    Rem /= Extent;
    RegOff += Idx[I] * RegStrides[I];
  }
  int64_t InstOff = RunLo * D.RunLen;
  for (int64_t Run = RunLo; Run < RunHi; ++Run) {
    Body(RegOff, InstOff, D.RunLen);
    InstOff += D.RunLen;
    for (int I = D.OuterDims - 1; I >= 0; --I) {
      RegOff += RegStrides[I];
      if (++Idx[I] < R.hi()[I] - R.lo()[I])
        break;
      RegOff -= (R.hi()[I] - R.lo()[I]) * RegStrides[I];
      Idx[I] = 0;
    }
  }
}

/// Invokes Fn(RegionOff, InstOff, RunLen) for every contiguous run of \p R.
template <typename Fn>
void forEachRun(const Rect &R, const std::vector<Coord> &Shape,
                const std::vector<Coord> &RegStrides, const Fn &Body) {
  RunDecomposition D = decomposeRuns(R, Shape);
  forEachRunRange(R, Shape, RegStrides, D, 0, D.NumRuns, Body);
}

/// Copies below this many elements are not worth a fan-out.
constexpr int64_t CopyParallelCutoff = 1 << 17;

} // namespace

Instance::Instance(Rect R) { reset(std::move(R)); }

static int64_t loCornerOffset(const Rect &Bounds,
                              const std::vector<Coord> &Strides) {
  int64_t Off = 0;
  for (int I = 0; I < Bounds.dim(); ++I)
    Off -= Bounds.lo()[I] * Strides[I];
  return Off;
}

void Instance::reset(Rect R) {
  Bounds = std::move(R);
  std::vector<Coord> Extents(Bounds.dim());
  for (int I = 0; I < Bounds.dim(); ++I)
    Extents[I] = std::max<Coord>(Bounds.hi()[I] - Bounds.lo()[I], 0);
  Strides = rowMajorStrides(Extents);
  BaseOff = loCornerOffset(Bounds, Strides);
  size_t Vol = static_cast<size_t>(Bounds.dim() == 0 ? 1 : Bounds.volume());
  if (Data.size() != Vol) {
    FaultInjector::inject(FaultInjector::Site::Alloc);
    Data.resize(Vol, 0.0);
  }
}

void Instance::reserve(int64_t Elems) {
  FaultInjector::inject(FaultInjector::Site::Alloc);
  Data.reserve(static_cast<size_t>(std::max<int64_t>(Elems, 1)));
}

int64_t Instance::offset(const Point &Global) const {
  DISTAL_ASSERT(Bounds.contains(Global), "instance access out of bounds");
  int64_t Off = BaseOff;
  for (int I = 0; I < Bounds.dim(); ++I)
    Off += Global[I] * Strides[I];
  return Off;
}

int64_t Instance::stride(int D) const {
  DISTAL_ASSERT(D >= 0 && D < Bounds.dim(), "stride dimension out of range");
  return Strides[D];
}

void Instance::zero() {
  if (!Data.empty())
    std::memset(Data.data(), 0, Data.size() * sizeof(double));
}

Region::Region(TensorVar Var, Format Fmt, Machine M)
    : Var(std::move(Var)), Fmt(std::move(Fmt)), M(std::move(M)) {
  DISTAL_ASSERT(this->Var.defined(), "region over undefined tensor");
  if (this->Fmt.order() != this->Var.order())
    reportFatalError("format order does not match tensor '" +
                     this->Var.name() + "'");
  this->Fmt.distribution().validate(this->Var.order(), this->M);
  Strides = rowMajorStrides(shape());
  int64_t Vol = 1;
  for (Coord D : shape())
    Vol *= D;
  Data.assign(static_cast<size_t>(Vol), 0.0);
  MemCharge.add(Vol * 8);
}

int64_t Region::volume() const { return static_cast<int64_t>(Data.size()); }

int64_t Region::offset(const Point &P) const {
  DISTAL_ASSERT(P.dim() == Var.order(), "region access dimension mismatch");
  int64_t Off = 0;
  for (int I = 0; I < P.dim(); ++I) {
    DISTAL_ASSERT(P[I] >= 0 && P[I] < shape()[I], "region access out of range");
    Off += P[I] * Strides[I];
  }
  return Off;
}

void Region::fill(const std::function<double(const Point &)> &Fn) {
  Rect::forExtents(shape()).forEachPoint(
      [&](const Point &P) { at(P) = Fn(P); });
}

void Region::fillRandom(uint64_t Seed) {
  uint64_t State = Seed * 2654435761u + 12345;
  for (double &V : Data) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    V = static_cast<double>((State >> 33) % 1000) / 999.0 - 0.5;
  }
}

void Region::zero() {
  if (!Data.empty())
    std::memset(Data.data(), 0, Data.size() * sizeof(double));
}

Instance Region::gather(const Rect &R) const { return gather(R, {}); }

Instance Region::gather(const Rect &R, const LeafParallelism &LP) const {
  Instance I(R);
  gatherInto(I, LP);
  return I;
}

void Region::gatherInto(Instance &I, const LeafParallelism &LP) const {
  const Rect &R = I.rect();
  DISTAL_ASSERT(Rect::forExtents(shape()).contains(R) || R.isEmpty(),
                "gather rectangle outside region bounds");
  double *Dst = I.data();
  const double *Src = Data.data();
  RunDecomposition D = decomposeRuns(R, shape());
  auto CopyRun = [&](int64_t RegOff, int64_t InstOff, int64_t Len) {
    std::memcpy(Dst + InstOff, Src + RegOff,
                static_cast<size_t>(Len) * sizeof(double));
  };
  if (!LP.enabled() || D.NumRuns * D.RunLen < CopyParallelCutoff) {
    forEachRunRange(R, shape(), Strides, D, 0, D.NumRuns, CopyRun);
    return;
  }
  if (D.NumRuns == 1) {
    // Fully contiguous rectangle: split the single memcpy into sub-ranges.
    int64_t RegBase = 0;
    for (int Dim = 0; Dim < R.dim(); ++Dim)
      RegBase += R.lo()[Dim] * Strides[Dim];
    LP.Pool->parallelForWays(D.RunLen, LP.Ways, [&](int64_t Lo, int64_t Hi) {
      std::memcpy(Dst + Lo, Src + RegBase + Lo,
                  static_cast<size_t>(Hi - Lo) * sizeof(double));
    });
    return;
  }
  // Runs target disjoint instance ranges: any run split copies the same
  // bytes, just on different threads.
  LP.Pool->parallelForWays(D.NumRuns, LP.Ways, [&](int64_t Lo, int64_t Hi) {
    forEachRunRange(R, shape(), Strides, D, Lo, Hi, CopyRun);
  });
}

GatherRuns distal::compileGatherRuns(const Rect &R,
                                     const std::vector<Coord> &Shape) {
  GatherRuns GR;
  std::vector<Coord> RegStrides = rowMajorStrides(Shape);
  RunDecomposition D = decomposeRuns(R, Shape);
  GR.RunLen = D.RunLen;
  for (int I = 0; I < R.dim(); ++I)
    GR.RegBase += R.lo()[I] * RegStrides[I];
  if (D.NumRuns == 0) { // Empty rectangle: nothing to copy.
    GR.Count0 = GR.Count1 = 0;
    return GR;
  }
  switch (D.OuterDims) {
  case 0:
    break; // One run; the defaults (1 x 1 grid) already describe it.
  case 1:
    GR.Count1 = R.hi()[0] - R.lo()[0];
    GR.Stride1 = RegStrides[0];
    break;
  case 2:
    GR.Count0 = R.hi()[0] - R.lo()[0];
    GR.Stride0 = RegStrides[0];
    GR.Count1 = R.hi()[1] - R.lo()[1];
    GR.Stride1 = RegStrides[1];
    break;
  default:
    GR.General = true; // > 3D rectangle with a partial prefix: odometer.
    break;
  }
  return GR;
}

void Region::gatherCompiled(Instance &I, const GatherRuns &GR,
                            const LeafParallelism &LP) const {
  if (GR.General) {
    gatherInto(I, LP);
    return;
  }
  int64_t NumRuns = GR.numRuns();
  if (NumRuns == 0 || GR.RunLen == 0)
    return;
  double *Dst = I.data();
  const double *Src = Data.data() + GR.RegBase;
  size_t RunBytes = static_cast<size_t>(GR.RunLen) * sizeof(double);
  if (!LP.enabled() || NumRuns * GR.RunLen < CopyParallelCutoff) {
    double *D = Dst;
    for (int64_t I0 = 0; I0 < GR.Count0; ++I0) {
      const double *S0 = Src + I0 * GR.Stride0;
      for (int64_t I1 = 0; I1 < GR.Count1; ++I1, D += GR.RunLen)
        std::memcpy(D, S0 + I1 * GR.Stride1, RunBytes);
    }
    return;
  }
  if (NumRuns == 1) {
    // Fully contiguous rectangle: split the single memcpy into sub-ranges.
    LP.Pool->parallelForWays(GR.RunLen, LP.Ways, [&](int64_t Lo, int64_t Hi) {
      std::memcpy(Dst + Lo, Src + Lo,
                  static_cast<size_t>(Hi - Lo) * sizeof(double));
    });
    return;
  }
  // Runs target disjoint instance ranges: any run split copies the same
  // bytes, just on different threads.
  LP.Pool->parallelForWays(NumRuns, LP.Ways, [&](int64_t Lo, int64_t Hi) {
    for (int64_t Run = Lo; Run < Hi; ++Run) {
      int64_t I0 = Run / GR.Count1, I1 = Run % GR.Count1;
      std::memcpy(Dst + Run * GR.RunLen,
                  Src + I0 * GR.Stride0 + I1 * GR.Stride1, RunBytes);
    }
  });
}

void Region::reduceBack(const Instance &I) {
  DISTAL_ASSERT(Rect::forExtents(shape()).contains(I.rect()) ||
                    I.rect().isEmpty(),
                "instance rectangle outside region bounds");
  double *Dst = Data.data();
  const double *Src = I.data();
  forEachRun(I.rect(), shape(), Strides,
             [&](int64_t RegOff, int64_t InstOff, int64_t Len) {
               double *__restrict__ D = Dst + RegOff;
               const double *__restrict__ S = Src + InstOff;
               for (int64_t E = 0; E < Len; ++E)
                 D[E] += S[E];
             });
}

void Region::reduceBackRows(const Instance &I, Coord RowLo, Coord RowHi) {
  const Rect &R = I.rect();
  if (R.dim() == 0) { // Scalar: assigned to stripe containing row 0.
    if (RowLo <= 0 && 0 < RowHi)
      reduceBack(I);
    return;
  }
  Coord Lo = std::max(R.lo()[0], RowLo), Hi = std::min(R.hi()[0], RowHi);
  if (Lo >= Hi)
    return;
  std::vector<Coord> ClampLo = R.lo().coords(), ClampHi = R.hi().coords();
  ClampLo[0] = Lo;
  ClampHi[0] = Hi;
  Rect Clamped{Point(ClampLo), Point(ClampHi)};
  double *Dst = Data.data();
  const double *Src = I.data();
  // Instance offsets must be relative to the *original* rect, so shift by
  // the rows we skipped.
  int64_t InstShift = (Lo - R.lo()[0]) * I.stride(0);
  forEachRun(Clamped, shape(), Strides,
             [&](int64_t RegOff, int64_t InstOff, int64_t Len) {
               double *__restrict__ D = Dst + RegOff;
               const double *__restrict__ S = Src + InstShift + InstOff;
               for (int64_t E = 0; E < Len; ++E)
                 D[E] += S[E];
             });
}

void Region::writeBack(const Instance &I) {
  DISTAL_ASSERT(Rect::forExtents(shape()).contains(I.rect()) ||
                    I.rect().isEmpty(),
                "instance rectangle outside region bounds");
  double *Dst = Data.data();
  const double *Src = I.data();
  forEachRun(I.rect(), shape(), Strides,
             [&](int64_t RegOff, int64_t InstOff, int64_t Len) {
               std::memcpy(Dst + RegOff, Src + InstOff,
                           static_cast<size_t>(Len) * sizeof(double));
             });
}

Rect Region::ownedRect(const Point &Proc) const {
  return Fmt.distribution().ownedRect(shape(), M, Proc);
}
