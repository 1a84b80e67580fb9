//===- runtime/LeafCompiler.h - Compiled leaf kernels ----------*- C++ -*-===//
///
/// \file
/// The leaf-kernel compiler of the execution engine (runtime-internal).
/// The statement's right-hand side compiles once into a flat postfix tape;
/// every access offset becomes an affine function of the leaf loop
/// variables whose coefficient structure is cached per task across steps
/// (and across executions of a CompiledPlan — only the bases and instance
/// bindings are re-derived per step, validated with one probe at the far
/// corner of the leaf domain); guards hoist out of the innermost loop; and
/// recognisable loop structures route to blas:: kernels. One recogniser
/// routes whole leaves into the packed GEMM: adjacent leaf loops that fuse
/// for every access collapse into one (TTM's (ii, j) becomes GEMM rows),
/// after which a matrix-multiply leaf runs as one GEMM and an MTTKRP-shaped
/// leaf Out[m,n] += P[m,r,s] * Q[r,n] * W[s,n] runs as GEMMs against a
/// Khatri-Rao workspace built one k block at a time. Other leaves route
/// their innermost loop to strided dot / axpy / sum for contraction and
/// elementwise loops, or evaluate the tape a block of points at a time, one
/// pass per instruction, with the same bytes as point by point; the tape
/// runs one point at a time only when the statement needs it (per-point
/// guards, a right-hand side that reads the output).
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_LEAFCOMPILER_H
#define DISTAL_RUNTIME_LEAFCOMPILER_H

#include <cstdint>
#include <map>
#include <vector>

#include "lower/Plan.h"
#include "runtime/Region.h"
#include "support/ExecContext.h"
#include "support/ResourceGovernor.h"

namespace distal {
namespace leaf {

/// One postfix instruction of the compiled right-hand side.
enum class TapeOp : uint8_t { PushAcc, PushLit, Add, Mul };
struct TapeIns {
  TapeOp Op = TapeOp::PushLit;
  int Acc = 0;
  double Lit = 0;
};

/// The statement's right-hand side compiled to a flat postfix tape, plus
/// the product decomposition used to pick innermost-loop kernels.
struct Tape {
  std::vector<TapeIns> Ins;
  int MaxDepth = 0;
  /// True when the expression is a pure product of accesses and literals
  /// (no additions), i.e. rhs == ProductLit * prod(Accesses[ProductAccs]).
  bool PureProduct = true;
  double ProductLit = 1.0;
  std::vector<int> ProductAccs; ///< Access ids in left-to-right order.
};

/// Compiles \p Rhs into a postfix tape (access 0 is the output).
Tape compileTape(const Expr &Rhs);

/// Per-task leaf state. The affine structure (loop extents and per-leaf-var
/// coefficients of every original variable) is compiled on first use and
/// cached across steps — only the bases and instance bindings change per
/// step, verified cheaply at the far corner of the leaf domain.
struct LeafEngine {
  bool Ready = false;
  int NumLeaf = 0, NumOrig = 0, NumAcc = 0;
  std::vector<IndexVar> LeafV, OrigV;
  std::vector<Access> Accesses; ///< LHS first.
  /// A right-hand-side access reads the output tensor: the tape then runs
  /// one point at a time, so each point sees the stores before it.
  bool ReadsOutput = false;
  std::map<IndexVar, int> OrigIdx;
  std::vector<Coord> LeafExtents;
  std::vector<Coord> VarExtent;
  std::vector<std::vector<Coord>> VarCoef; ///< [orig][leaf], cached.

  // Per-step state.
  std::vector<Coord> VarBase;
  std::vector<std::vector<int64_t>> AccCoef; ///< [acc][leaf], elements.
  /// AccCoef under each layout an instance can take, whichever is bound: a
  /// packed copy of its rectangle, or a view with its tensor's row-major
  /// strides. The GEMM recogniser fuses loops only where both layouts
  /// agree, so views on or off pick the same route (and the same bytes).
  std::vector<std::vector<int64_t>> CopyCoef, ViewCoef;
  std::vector<int64_t> AccBase;
  std::vector<double *> AccData;
  bool NeedGuard = false;

  // Scratch buffers reused across rows.
  std::vector<double> Stack;
  std::vector<int64_t> CurOff, RowOff;
  std::vector<Coord> CurVal;
  std::vector<Coord> Odometer;

  /// The Khatri-Rao block of the MTTKRP route (one blas::GemmBlockK-deep
  /// block of rows), sized on the route's first use and reused after; its
  /// bytes stay charged to the governor until the arena holding the engine
  /// dies.
  std::vector<double> Workspace;
  ResourceGovernor::Charge WorkspaceCharge;
};

/// Runs one leaf invocation through the compiled engine: binds this step's
/// fixed values and instances (compiling/validating the cached affine
/// structure), then routes to a GEMM, strided-BLAS, or tape loop (block at
/// a time where the statement allows). \p LP bounds the nested fan-out of
/// the routed kernels.
///
/// \p Overwrite runs the leaf in overwrite mode: output elements are
/// assigned (=) instead of accumulated (+=), valid only when compile-time
/// analysis proved every element of the output instance is written exactly
/// once per execution (CompiledTask::SkipOutputZero) — the launch-phase
/// zero of the accumulator is skipped in exchange. Overwrite leaves route
/// through the strided-update kernels, never GEMM (a GEMM leaf reduces
/// over k and can never satisfy the exactly-once proof).
void runCompiledLeaf(LeafEngine &E, const Plan &P,
                     const std::map<IndexVar, Coord> &FixedVals,
                     std::map<TensorVar, Instance *> &Insts, const Tape &T,
                     const LeafParallelism &LP, bool Overwrite = false);

} // namespace leaf
} // namespace distal

#endif // DISTAL_RUNTIME_LEAFCOMPILER_H
