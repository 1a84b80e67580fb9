//===- runtime/LeafCompiler.h - Compiled leaf kernels ----------*- C++ -*-===//
///
/// \file
/// The leaf-kernel compiler of the execution engine (runtime-internal).
/// The statement's right-hand side compiles once into a flat postfix tape,
/// and every (task, step)'s leaf is bound once, when the CompiledPlan is
/// built: every access offset becomes an affine function of the leaf loop
/// variables — a base and per-loop coefficients, recorded for both layouts
/// an instance can take — with the affine structure checked at compile
/// time, the guard requirement and the GEMM route decided there too. At run
/// time a leaf only adds the bound data pointers to the recorded offsets;
/// guards hoist out of the innermost loop; and recognisable loop structures
/// route to blas:: kernels. One recogniser routes whole leaves into the
/// packed GEMM: adjacent leaf loops that fuse for every access collapse
/// into one (TTM's (ii, j) becomes GEMM rows), after which a
/// matrix-multiply leaf runs as one GEMM and an MTTKRP-shaped leaf
/// Out[m,n] += P[m,r,s] * Q[r,n] * W[s,n] runs as GEMMs against a
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

/// The statement's leaf loops, the same for every task and step.
struct LeafShape {
  int NumLeaf = 0, NumOrig = 0, NumAcc = 0;
  std::vector<IndexVar> LeafV, OrigV;
  std::vector<Access> Accesses; ///< LHS first.
  /// Instance slot of every access: its tensor's position in the
  /// statement's tensors().
  std::vector<int> AccSlot;
  /// A right-hand-side access reads the output tensor: the tape then runs
  /// one point at a time, so each point sees the stores before it.
  bool ReadsOutput = false;
  std::vector<Coord> LeafExtents; ///< [leaf]
  std::vector<Coord> VarExtent;   ///< [orig]
};

/// Derives \p P's leaf shape; \p Slots is the statement's tensors().
LeafShape compileLeafShape(const Plan &P, const std::vector<TensorVar> &Slots);

/// The two layouts an instance can take: a packed copy of the rectangle
/// last gathered for its tensor, or a view with the tensor's row-major
/// strides.
enum Layout : int { CopyLayout = 0, ViewLayout = 1 };

/// How a whole leaf routes into the packed GEMM, decided at compile time
/// over the collapsed leaf loops (see tryGemmLeaf in LeafCompiler.cpp).
struct GemmRoute {
  enum class Kind : uint8_t {
    None,      ///< Innermost-loop kernels (runGeneralLeaf).
    Gemm,      ///< Out[m,n] += P[m,k] * Q[k,n].
    KhatriRao, ///< Out[m,n] += P[m,r,s] * Q[r,n] * W[s,n]; K is r.
  };
  Kind K = Kind::None;
  int P = 0, Q = 0, W = 0; ///< Operand accesses.
  /// The leaf loop whose coefficients step m, n, k (r) and s.
  int LM = 0, LN = 0, LK = 0, LS = 0;
  Coord M = 0, N = 0, KExt = 0, S = 0; ///< Collapsed extents.
  /// Elements of the Khatri-Rao block (0 for the other routes).
  int64_t WorkspaceElems = 0;
};

/// One (task, step)'s leaf, bound at compile time: everything the run-time
/// leaf needs except the data pointers.
struct LeafBinding {
  /// A leaf loop has extent 0: the leaf runs no iteration.
  bool Empty = false;
  /// Some leaf point falls outside an original loop's extent (edge tile).
  bool NeedGuard = false;
  std::vector<Coord> VarBase; ///< [orig] at the leaf origin.
  std::vector<Coord> VarCoef; ///< [orig * NumLeaf]
  /// Per access, in each Layout: element offset of the leaf origin from the
  /// instance's data pointer, and the per-leaf-loop coefficients. The base
  /// is taken at the (unclamped) VarBase corner; in guarded edge tiles that
  /// corner can lie outside the instance rectangle, but every guarded point
  /// is skipped before being dereferenced.
  std::vector<int64_t> Base[2]; ///< [acc]
  std::vector<int64_t> Coef[2]; ///< [acc * NumLeaf]
  GemmRoute Route;

  int64_t footprintBytes() const;
};

/// Binds one (task, step)'s leaf. \p Vals holds the distributed and step
/// loop values of the step (leaf entries are overwritten while probing).
/// \p SlotRect[s] is the rectangle last gathered into slot s, null when
/// none was. \p Coefs carries the task's coefficient structure from its
/// previous leaf step (empty at its first): it is reused when it still
/// predicts the far corner of this step's leaf domain and re-derived
/// otherwise. \p Overwrite is the task's SkipOutputZero. Throws DistalError
/// when the leaf loops are not affine or an accessed tensor has no
/// instance.
LeafBinding bindLeaf(const Plan &P, const LeafShape &S, const Tape &T,
                     std::map<IndexVar, Coord> &Vals,
                     const std::vector<const Rect *> &SlotRect,
                     bool Overwrite, std::vector<Coord> &Coefs);

/// Per-task scratch of the run-time leaf. Every field is rewritten by each
/// call before it is read, so nothing carries from one step to the next;
/// sized once (size()) so the steady state never allocates.
struct LeafEngine {
  std::vector<double *> AccData;         ///< [acc] instance data pointers.
  std::vector<int64_t> AccBase;          ///< [acc] bound layout's base.
  std::vector<const int64_t *> AccCoef;  ///< [acc] bound layout's row.
  std::vector<double> Stack;
  std::vector<int64_t> CurOff, RowOff;
  std::vector<Coord> CurVal;
  std::vector<Coord> Odometer;
  std::vector<int> Varying, Invariant;
  /// The Khatri-Rao block of the MTTKRP route, sized for the task's
  /// largest GemmRoute::WorkspaceElems.
  std::vector<double> Workspace;

  /// Sizes the scratch for \p S and \p T with a workspace of
  /// \p WorkspaceElems elements.
  void size(const LeafShape &S, const Tape &T, int64_t WorkspaceElems);
};

/// Runs one leaf invocation of binding \p B: slot s of the task holds
/// data pointer \p SlotData[s], a view when \p SlotView[s] is set. Routes
/// to a GEMM, strided-BLAS, or tape loop (block at a time where the
/// statement allows). \p LP bounds the nested fan-out of the routed
/// kernels.
///
/// \p Overwrite runs the leaf in overwrite mode: output elements are
/// assigned (=) instead of accumulated (+=), valid only when compile-time
/// analysis proved every element of the output instance is written exactly
/// once per execution (CompiledTask::SkipOutputZero) — the launch-phase
/// zero of the accumulator is skipped in exchange. Overwrite leaves route
/// through the strided-update kernels, never GEMM (a GEMM leaf reduces
/// over k and can never satisfy the exactly-once proof).
void runCompiledLeaf(LeafEngine &E, const LeafShape &S, const LeafBinding &B,
                     double *const *SlotData, const uint8_t *SlotView,
                     const Tape &T, const LeafParallelism &LP,
                     bool Overwrite);

} // namespace leaf
} // namespace distal

#endif // DISTAL_RUNTIME_LEAFCOMPILER_H
