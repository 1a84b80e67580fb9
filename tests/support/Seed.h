//===- tests/support/Seed.h - Seed reference implementations ---*- C++ -*-===//
//
// The seed's per-point implementations, kept outside the library as the
// reference for differential tests and the microbench seed columns: the
// region copies that walk every point individually, the cache-blocked GEMM,
// the leaf interpreter that walks the expression tree at every point, and
// an engine that runs a compiled plan one task at a time over them. The
// library's own engine never calls any of it. Link the distal_seed target
// to use it.
//
//===----------------------------------------------------------------------===//

#ifndef DISTAL_TESTS_SUPPORT_SEED_H
#define DISTAL_TESTS_SUPPORT_SEED_H

#include <cstdint>
#include <map>
#include <vector>

#include "lower/Plan.h"
#include "runtime/CompiledPlan.h"
#include "runtime/Mapper.h"
#include "runtime/Region.h"

namespace distal {
namespace seed {

/// Per-point copies of \p R's rectangles: the reference behaviour of
/// Region::gather, gatherInto, reduceBack and writeBack.
Instance gatherPointwise(const Region &R, const Rect &Rc);
/// Fills \p I, already reset() to its rectangle, from \p R.
void gatherIntoPointwise(const Region &R, Instance &I);
/// Accumulates (+=) \p I's contents back into \p R.
void reduceBackPointwise(Region &R, const Instance &I);
/// Overwrites the elements of \p R that \p I covers.
void writeBackPointwise(Region &R, const Instance &I);

/// The seed's cache-blocked (but not register-blocked, not parallel) GEMM:
/// C[m,n] += A[m,k] * B[k,n] with row strides LdC/LdA/LdB, every product
/// added straight into C in ascending k. blas::gemm's direct kernel has the
/// same bytes; its packed path, above the pack cutoff with a full 32-column
/// panel, differs.
void gemmBlockedReference(double *C, const double *A, const double *B,
                          int64_t M, int64_t N, int64_t K, int64_t LdC,
                          int64_t LdA, int64_t LdB);

/// The seed leaf interpreter: rebuilds the affine structure every call and
/// walks the expression tree through recursive std::functions at every
/// point. GEMM leaves in canonical layout run gemmBlockedReference.
void runInterpretedLeaf(const Plan &P,
                        const std::map<IndexVar, Coord> &FixedVals,
                        std::map<TensorVar, Instance *> &Insts);

/// The seed execution engine over a compiled plan: walks compiledTasks()
/// one task at a time, gathering every rectangle with per-point copies,
/// always zeroing the output accumulator, running interpreted leaves, and
/// merging every task's accumulator back per point in task order. No
/// views, no threads. Instance buffers persist across executions, sized
/// once at each tensor's largest rectangle.
class Engine {
public:
  explicit Engine(const Plan &P, const Mapper &Map = defaultMapper());

  /// Runs the plan over \p Regions, zeroing the output region first.
  /// Returns the compiled trace (TraceMode::Full) or an empty one.
  Trace execute(const std::map<TensorVar, Region *> &Regions,
                TraceMode Mode = TraceMode::Full);

private:
  struct TaskState {
    std::map<IndexVar, Coord> FixedVals;
    std::map<TensorVar, Instance> Owned;
    std::map<TensorVar, Instance *> Insts;
  };
  CompiledPlan CP;
  std::vector<TaskState> Tasks;
};

} // namespace seed
} // namespace distal

#endif // DISTAL_TESTS_SUPPORT_SEED_H
