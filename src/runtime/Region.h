//===- runtime/Region.h - Logical regions and instances --------*- C++ -*-===//
///
/// \file
/// The data side of the Legion-substitute runtime (paper §6.1). A Region is
/// a logical n-dimensional array of doubles with a *home distribution*
/// describing which processor's memory owns each element. An Instance is a
/// physical, rectangle-restricted copy materialised in one processor's
/// memory for a task to compute on; tasks may only touch instances, never
/// the logical region directly, which gives the Execute backend real
/// distributed-memory semantics.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_REGION_H
#define DISTAL_RUNTIME_REGION_H

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "format/Format.h"
#include "ir/IndexNotation.h"
#include "machine/Machine.h"
#include "support/ExecContext.h"
#include "support/ResourceGovernor.h"

namespace distal {

/// A physical instance: a packed row-major copy of one rectangle of a
/// region, resident in one processor's memory — the model of a copy
/// materialised in the executing processor's memory. A zero-copy view
/// needs no Instance: the engine binds it as a pointer into Region storage
/// at the offset recorded with the gather (GatherRuns::RegBase), read with
/// the region's strides.
class Instance {
public:
  Instance() = default;
  explicit Instance(Rect R);

  /// Rebinds the instance to rectangle \p R, reusing the existing storage
  /// when its capacity suffices (the steady-state path of a CompiledPlan
  /// re-binds the same buffers every execution). Element values are
  /// unspecified afterwards; callers gather into or zero() the instance.
  void reset(Rect R);
  /// Pre-sizes the backing storage for \p Elems elements so later reset()
  /// calls never allocate.
  void reserve(int64_t Elems);

  const Rect &rect() const { return Bounds; }
  bool valid() const { return Bounds.dim() >= 0 && !Data.empty(); }
  /// Bytes of backing storage.
  int64_t bytes() const { return static_cast<int64_t>(Data.size()) * 8; }

  /// Element access by global (region) coordinates.
  double at(const Point &Global) const { return data()[offset(Global)]; }
  double &at(const Point &Global) { return data()[offset(Global)]; }

  /// Offset of a global coordinate within this instance's storage
  /// (row-major over the rectangle). The lo-corner term is precomputed at
  /// reset, so this is a pure multiply-add over the coordinates.
  int64_t offset(const Point &Global) const;
  /// Element stride of dimension \p D within this instance.
  int64_t stride(int D) const;

  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  void zero();

private:
  Rect Bounds;
  std::vector<Coord> Strides;
  /// Precomputed -sum(lo[d] * Strides[d]) of the bound rectangle, so
  /// offset() needs no per-coordinate lo subtraction.
  int64_t BaseOff = 0;
  std::vector<double> Data;
};

/// A compile-time coalesced copy program for one rectangle of a region: the
/// rectangle's contiguous innermost runs merged into a (up to 3-level)
/// grid of strided block memcpys — base offset, run length, and the outer
/// run counts/strides — recorded once in a CompiledPlan instead of being
/// rediscovered from the rectangle on every execution. Rectangles with more
/// than two non-collapsed outer dimensions fall back to the general
/// odometer walk (General).
struct GatherRuns {
  int64_t RegBase = 0; ///< Region element offset of the rectangle's lo.
  int64_t RunLen = 0;  ///< Contiguous elements per run (both sides).
  int64_t Count0 = 1, Count1 = 1;   ///< Outer x inner grid of runs.
  int64_t Stride0 = 0, Stride1 = 0; ///< Region element strides of the grid.
  bool General = false; ///< Too deep to merge: use the odometer path.
  int64_t numRuns() const { return Count0 * Count1; }
};

/// Derives the coalesced copy program of rectangle \p R inside a row-major
/// region of \p Shape (pure geometry — runs at compile time, no Region
/// needed).
GatherRuns compileGatherRuns(const Rect &R, const std::vector<Coord> &Shape);

/// A logical region backing one tensor.
class Region {
public:
  Region(TensorVar Var, Format Fmt, Machine M);

  /// Copying or moving a region never transfers execution pins: pins
  /// attach to one Region *object* (in-flight executions hold pointers to
  /// it), so the new object starts unpinned and the source keeps its
  /// count. Copying/moving a pinned region's data is the caller's hazard.
  Region(const Region &O)
      : Var(O.Var), Fmt(O.Fmt), M(O.M), Strides(O.Strides), Data(O.Data) {
    MemCharge.add(static_cast<int64_t>(Data.size()) * 8);
  }
  Region(Region &&O)
      : Var(std::move(O.Var)), Fmt(std::move(O.Fmt)), M(std::move(O.M)),
        Strides(std::move(O.Strides)), Data(std::move(O.Data)),
        MemCharge(std::move(O.MemCharge)) {}
  Region &operator=(const Region &O) {
    Var = O.Var;
    Fmt = O.Fmt;
    M = O.M;
    Strides = O.Strides;
    Data = O.Data;
    MemCharge.reset();
    MemCharge.add(static_cast<int64_t>(Data.size()) * 8);
    return *this;
  }
  Region &operator=(Region &&O) {
    Var = std::move(O.Var);
    Fmt = std::move(O.Fmt);
    M = std::move(O.M);
    Strides = std::move(O.Strides);
    Data = std::move(O.Data);
    MemCharge = std::move(O.MemCharge);
    return *this;
  }

  const TensorVar &var() const { return Var; }
  const Format &format() const { return Fmt; }
  const Machine &machine() const { return M; }
  const std::vector<Coord> &shape() const { return Var.shape(); }
  int64_t volume() const;

  /// Whole-region element access (used by tests, fills, and the runtime's
  /// copy engine; tasks use instances).
  double at(const Point &P) const { return Data[offset(P)]; }
  double &at(const Point &P) { return Data[offset(P)]; }

  /// Fills every element with Fn(coordinates).
  void fill(const std::function<double(const Point &)> &Fn);
  /// Deterministic pseudo-random fill.
  void fillRandom(uint64_t Seed);
  void zero();

  /// Copies the rectangle \p R out of the region into a fresh instance.
  /// Contiguous innermost runs move with memcpy. The \p LP overload fans
  /// large copies out over the execution context's pool (splitting runs, or
  /// the single memcpy of a fully contiguous rectangle, into sub-ranges);
  /// the copied bytes are identical for every pool size and ways budget.
  Instance gather(const Rect &R) const;
  Instance gather(const Rect &R, const LeafParallelism &LP) const;
  /// In-place variants filling an instance already reset() to the target
  /// rectangle — the steady-state path that reuses buffers across
  /// executions. Copied bytes are identical to the allocating overloads.
  void gatherInto(Instance &I, const LeafParallelism &LP = {}) const;
  /// Replays a precomputed coalesced copy program (compileGatherRuns of
  /// \p I's rectangle against this region's shape) into an instance already
  /// reset() to that rectangle: the steady-state copy path of a
  /// CompiledPlan, which never re-derives the run structure. Copied bytes
  /// are identical to gatherInto.
  void gatherCompiled(Instance &I, const GatherRuns &GR,
                      const LeafParallelism &LP = {}) const;
  /// Zeroes the rectangle \p R of the region in place, one memset per run
  /// of its compiled copy program \p GR (compileGatherRuns of \p R against
  /// this region's shape), fanned out over \p LP like gatherCompiled; a
  /// General program walks the rectangle's runs instead.
  void zeroCompiled(const Rect &R, const GatherRuns &GR,
                    const LeafParallelism &LP);
  /// Accumulates (+=) an instance's contents back into the region.
  void reduceBack(const Instance &I);
  /// Accumulates only the rows (dim-0 coordinates) of \p I that fall in
  /// [RowLo, RowHi). Lets the executor stripe a writeback across threads
  /// while applying instances in deterministic task order within a stripe;
  /// a 0-dim (scalar) instance belongs to the stripe containing row 0.
  void reduceBackRows(const Instance &I, Coord RowLo, Coord RowHi);
  /// Overwrites the region contents covered by the instance.
  void writeBack(const Instance &I);

  /// The rectangle owned by processor \p Proc under the home distribution.
  Rect ownedRect(const Point &Proc) const;

  /// Row-major element strides of the full region (what views bind with).
  const std::vector<Coord> &strides() const { return Strides; }
  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  /// Execution pin: counts in-flight executions reading or writing this
  /// region's storage. Owners that want to replace or copy out the storage
  /// (Tensor::materialize on a machine change) must wait for pinned() to
  /// drop to zero first — pinned storage may be written concurrently by the
  /// pinning execution. Pins are advisory bookkeeping, not locks: they
  /// never block the executions themselves.
  void pin() { Pins.fetch_add(1, std::memory_order_acq_rel); }
  void unpin() { Pins.fetch_sub(1, std::memory_order_acq_rel); }
  int pinned() const { return Pins.load(std::memory_order_acquire); }

private:
  int64_t offset(const Point &P) const;

  TensorVar Var;
  Format Fmt;
  Machine M;
  std::vector<Coord> Strides;
  std::vector<double> Data;
  /// Governor ledger for the backing storage — charged when Data is sized
  /// and released with the region, so usedBytes() tracks live region bytes.
  ResourceGovernor::Charge MemCharge;
  std::atomic<int> Pins{0};
};

} // namespace distal

#endif // DISTAL_RUNTIME_REGION_H
