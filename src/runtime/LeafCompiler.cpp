//===- runtime/LeafCompiler.cpp -------------------------------*- C++ -*-===//
//
// Leaf kernels run through a small compiler instead of an interpreter: the
// statement's right-hand side becomes a flat postfix tape, every access
// offset becomes an affine function of the leaf loop variables (cached per
// task across steps), guards are hoisted out of the innermost loop, and
// recognisable loop structures route to blas:: kernels. Unguarded product
// leaves go whole into the packed GEMM when their loops, after collapsing
// adjacent loops that fuse for every access, form a matrix multiply (GEMM,
// TTM) or an MTTKRP (GEMMs against a Khatri-Rao workspace); other leaves
// route their innermost loop to strided dot / axpy / sum for contraction
// and elementwise loops. Any other innermost loop evaluates the tape a
// block of points at a time, one pass per instruction; it falls back to
// one point at a time only when the statement needs it (per-point guards,
// a right-hand side that reads the output).
//
//===----------------------------------------------------------------------===//

#include "runtime/LeafCompiler.h"

#include <algorithm>
#include <functional>

#include "blas/LocalKernels.h"
#include "support/Error.h"
#include "support/Util.h"

using namespace distal;
using namespace distal::leaf;

namespace {

void compileTapeRec(const Expr &E, int &Cursor, int Depth, Tape &T) {
  T.MaxDepth = std::max(T.MaxDepth, Depth + 1);
  switch (E.kind()) {
  case ExprKind::Access:
    T.Ins.push_back({TapeOp::PushAcc, Cursor, 0});
    T.ProductAccs.push_back(Cursor);
    ++Cursor;
    return;
  case ExprKind::Literal:
    T.Ins.push_back({TapeOp::PushLit, 0, E.literal()});
    T.ProductLit *= E.literal();
    return;
  case ExprKind::Add:
  case ExprKind::Mul:
    compileTapeRec(E.lhs(), Cursor, Depth, T);
    compileTapeRec(E.rhs(), Cursor, Depth + 1, T);
    T.Ins.push_back({E.kind() == ExprKind::Add ? TapeOp::Add : TapeOp::Mul});
    if (E.kind() == ExprKind::Add)
      T.PureProduct = false;
    return;
  }
  unreachable("unknown expr kind");
}

/// Evaluates the tape at the current access offsets. \p Stack must hold at
/// least Tape::MaxDepth doubles.
inline double evalTape(const std::vector<TapeIns> &Ins,
                       double *const *Data, const int64_t *Off,
                       double *Stack) {
  int SP = 0;
  for (const TapeIns &I : Ins) {
    switch (I.Op) {
    case TapeOp::PushAcc:
      Stack[SP++] = Data[I.Acc][Off[I.Acc]];
      break;
    case TapeOp::PushLit:
      Stack[SP++] = I.Lit;
      break;
    case TapeOp::Add:
      Stack[SP - 2] += Stack[SP - 1];
      --SP;
      break;
    case TapeOp::Mul:
      Stack[SP - 2] *= Stack[SP - 1];
      --SP;
      break;
    }
  }
  return Stack[0];
}

/// Stack slots of the block evaluator; a deeper tape runs per point.
constexpr int BlockSlots = 8;
/// Points per block: one slot is a 1 KB run, so all slots stay in L1.
constexpr int BlockLen = 128;

/// One pass of the block evaluator over \p Len points: D[K] = X(K) for a
/// push, D[K] += X(K) or D[K] *= X(K) for an Add or Mul (or a push folded
/// into one).
template <typename Operand>
inline void blockPass(TapeOp Op, double *__restrict__ D, int Len,
                      Operand X) {
  if (Op == TapeOp::Add)
    for (int K = 0; K < Len; ++K)
      D[K] += X(K);
  else if (Op == TapeOp::Mul)
    for (int K = 0; K < Len; ++K)
      D[K] *= X(K);
  else
    for (int K = 0; K < Len; ++K)
      D[K] = X(K);
}

/// Evaluates the tape over the first \p Trips points of the innermost leaf
/// loop, starting at the row offsets in E.CurOff, one block of BlockLen
/// points at a time. Every instruction is one tight pass over the block:
/// PushAcc loads the access's strided run into a slot, PushLit broadcasts,
/// Add/Mul combine the top two slots; a push consumed at once by Add/Mul
/// folds into that operation's pass (the same operation, same operand
/// order). A final pass assigns or accumulates the block into the output at
/// its inner stride, in point order.
///
/// The bytes equal evalTape's point by point: each element sees the same
/// IEEE operations in the same order, and since no pass holds two tape
/// operations the compiler cannot contract a multiply and an add into an
/// FMA. Requires T.MaxDepth <= BlockSlots and no right-hand-side access of
/// the output (a block reads all its operands before it stores). Kept out
/// of line so only this frame holds the slots, which stay uninitialized: a
/// postfix tape writes every slot element before it reads it.
__attribute__((noinline)) void runTapeBlocks(const LeafEngine &E,
                                             const Tape &T, int Inner,
                                             Coord Trips, bool Overwrite) {
  double Slot[BlockSlots][BlockLen];
  double *const *Data = E.AccData.data();
  const TapeIns *Ins = T.Ins.data();
  const size_t NumIns = T.Ins.size();
  auto Binary = [](TapeOp Op) {
    return Op == TapeOp::Add || Op == TapeOp::Mul;
  };
  for (Coord B0 = 0; B0 < Trips; B0 += BlockLen) {
    const int Len = static_cast<int>(std::min<Coord>(BlockLen, Trips - B0));
    int SP = 0;
    for (size_t P = 0; P < NumIns; ++P) {
      const TapeIns &I = Ins[P];
      if (Binary(I.Op)) {
        const double *R = Slot[--SP];
        blockPass(I.Op, Slot[SP - 1], Len, [R](int K) { return R[K]; });
        continue;
      }
      // A push that Add/Mul consumes at once combines into the top slot.
      TapeOp Op = I.Op;
      if (P + 1 < NumIns && Binary(Ins[P + 1].Op))
        Op = Ins[++P].Op;
      else
        ++SP;
      double *D = Slot[SP - 1];
      if (I.Op == TapeOp::PushLit) {
        blockPass(Op, D, Len, [Lit = I.Lit](int) { return Lit; });
      } else {
        const int64_t S = E.AccCoef[I.Acc][Inner];
        const double *Src = Data[I.Acc] + E.CurOff[I.Acc] + B0 * S;
        blockPass(Op, D, Len, [Src, S](int K) { return Src[K * S]; });
      }
    }
    const int64_t OutIC = E.AccCoef[0][Inner];
    double *__restrict__ Out = Data[0] + E.CurOff[0] + B0 * OutIC;
    const double *V = Slot[0];
    if (Overwrite)
      for (int K = 0; K < Len; ++K)
        Out[K * OutIC] = V[K];
    else
      for (int K = 0; K < Len; ++K)
        Out[K * OutIC] += V[K];
  }
}

/// Computes the per-leaf-var coefficients of every original variable by
/// probing the provenance graph (the expensive part, cached across steps).
void computeVarCoefs(LeafEngine &E, const ProvenanceGraph &Prov,
                     const std::map<IndexVar, Coord> &FixedVals) {
  auto ValuesWith = [&](const std::vector<Coord> &LeafVals) {
    std::map<IndexVar, Coord> Vals = FixedVals;
    for (int I = 0; I < E.NumLeaf; ++I)
      Vals[E.LeafV[I]] = LeafVals[I];
    return Vals;
  };
  std::vector<Coord> Zero(E.NumLeaf, 0), Probe(E.NumLeaf, 0);
  std::map<IndexVar, Coord> ValsZero = ValuesWith(Zero);
  for (int V = 0; V < E.NumOrig; ++V) {
    E.VarBase[V] = Prov.recoverValue(E.OrigV[V], ValsZero);
    for (int I = 0; I < E.NumLeaf; ++I) {
      E.VarCoef[V][I] = 0;
      if (E.LeafExtents[I] <= 1)
        continue;
      Probe = Zero;
      Probe[I] = 1;
      E.VarCoef[V][I] =
          Prov.recoverValue(E.OrigV[V], ValuesWith(Probe)) - E.VarBase[V];
    }
  }
}

/// Verifies the cached coefficients at the far corner of the leaf domain
/// and recomputes NeedGuard. Returns false when the cached structure no
/// longer predicts the provenance recovery (caller recompiles).
bool verifyAffineStructure(LeafEngine &E, const ProvenanceGraph &Prov,
                           const std::map<IndexVar, Coord> &FixedVals) {
  std::map<IndexVar, Coord> Vals = FixedVals;
  for (int I = 0; I < E.NumLeaf; ++I)
    Vals[E.LeafV[I]] = E.LeafExtents[I] - 1;
  E.NeedGuard = false;
  for (int V = 0; V < E.NumOrig; ++V) {
    Coord Predicted = E.VarBase[V];
    for (int I = 0; I < E.NumLeaf; ++I)
      Predicted += E.VarCoef[V][I] * (E.LeafExtents[I] - 1);
    if (Prov.recoverValue(E.OrigV[V], Vals) != Predicted)
      return false;
    if (Predicted >= E.VarExtent[V])
      E.NeedGuard = true;
  }
  return true;
}

/// Binds the engine to this step's fixed values and instances: recovers the
/// bases, re-derives the per-access offset functions from the instance
/// strides, and validates the cached affine structure (recompiling it if a
/// rotation moved underneath us). Returns false when the leaf domain is
/// empty.
bool prepareStep(LeafEngine &E, const Plan &P,
                 const std::map<IndexVar, Coord> &FixedVals,
                 std::map<TensorVar, Instance *> &Insts, const Tape &T) {
  const Assignment &Stmt = P.Nest.Stmt;
  const ProvenanceGraph &Prov = P.Nest.Prov;
  if (!E.Ready) {
    E.LeafV = P.leafVars();
    E.OrigV = Stmt.defaultLoopOrder();
    E.Accesses = Stmt.accesses();
    E.NumLeaf = static_cast<int>(E.LeafV.size());
    E.NumOrig = static_cast<int>(E.OrigV.size());
    E.NumAcc = static_cast<int>(E.Accesses.size());
    for (int V = 0; V < E.NumOrig; ++V)
      E.OrigIdx[E.OrigV[V]] = V;
    E.ReadsOutput = false;
    for (int A = 1; A < E.NumAcc; ++A)
      E.ReadsOutput |= E.Accesses[A].tensor() == E.Accesses[0].tensor();
    E.LeafExtents.resize(E.NumLeaf);
    for (int I = 0; I < E.NumLeaf; ++I)
      E.LeafExtents[I] = Prov.extent(E.LeafV[I]);
    E.VarExtent.resize(E.NumOrig);
    for (int V = 0; V < E.NumOrig; ++V)
      E.VarExtent[V] = Prov.extent(E.OrigV[V]);
    E.VarBase.resize(E.NumOrig);
    E.VarCoef.assign(E.NumOrig, std::vector<Coord>(E.NumLeaf, 0));
    E.AccCoef.assign(E.NumAcc, std::vector<int64_t>(E.NumLeaf, 0));
    E.CopyCoef = E.AccCoef;
    E.ViewCoef = E.AccCoef;
    E.AccBase.resize(E.NumAcc);
    E.AccData.resize(E.NumAcc);
    E.Stack.resize(std::max(T.MaxDepth, 1));
    E.CurOff.resize(E.NumAcc);
    E.RowOff.resize(E.NumAcc);
    E.CurVal.resize(E.NumOrig);
    E.Odometer.assign(std::max(E.NumLeaf - 1, 0), 0);
    computeVarCoefs(E, Prov, FixedVals);
    if (!verifyAffineStructure(E, Prov, FixedVals))
      reportFatalError("leaf loops are not affine in the leaf variables; "
                       "rotate must be applied to sequential step loops only");
    E.Ready = true;
  } else {
    // Bases move every step; the coefficient structure almost never does.
    auto ValuesWith = [&](Coord LeafVal) {
      std::map<IndexVar, Coord> Vals = FixedVals;
      for (int I = 0; I < E.NumLeaf; ++I)
        Vals[E.LeafV[I]] = LeafVal;
      return Vals;
    };
    std::map<IndexVar, Coord> ValsZero = ValuesWith(0);
    for (int V = 0; V < E.NumOrig; ++V)
      E.VarBase[V] = Prov.recoverValue(E.OrigV[V], ValsZero);
    if (!verifyAffineStructure(E, Prov, FixedVals)) {
      computeVarCoefs(E, Prov, FixedVals);
      if (!verifyAffineStructure(E, Prov, FixedVals))
        reportFatalError(
            "leaf loops are not affine in the leaf variables; "
            "rotate must be applied to sequential step loops only");
    }
  }
  for (int I = 0; I < E.NumLeaf; ++I)
    if (E.LeafExtents[I] == 0)
      return false;

  // Bind accesses: instance pointers and affine offsets in elements. The
  // binding is stride-generic, so it works unchanged whether the instance
  // owns a packed copy or is a zero-copy view carrying the home region's
  // strides. Offsets accumulate directly through stride arithmetic — no
  // Point construction, no per-coordinate bounds re-derivation — since
  // this runs per task per step on the steady-state path. The base is
  // computed at the (unclamped) VarBase corner; in guarded edge tiles that
  // corner can lie outside the instance rectangle, but every guarded point
  // is skipped before being dereferenced, exactly as the clamp-and-adjust
  // formulation guaranteed.
  for (int A = 0; A < E.NumAcc; ++A) {
    const Access &Acc = E.Accesses[A];
    auto It = Insts.find(Acc.tensor());
    DISTAL_ASSERT(It != Insts.end() && It->second,
                  "leaf run without an instance for an accessed tensor");
    Instance *Inst = It->second;
    E.AccData[A] = Inst->data();
    std::fill(E.AccCoef[A].begin(), E.AccCoef[A].end(), 0);
    std::fill(E.CopyCoef[A].begin(), E.CopyCoef[A].end(), 0);
    std::fill(E.ViewCoef[A].begin(), E.ViewCoef[A].end(), 0);
    int64_t Base = 0;
    const Rect &IR = Inst->rect();
    const std::vector<Coord> &Shape = Acc.tensor().shape();
    int64_t CopyStride = 1, ViewStride = 1; // Row-major, innermost first.
    for (int D = Acc.tensor().order() - 1; D >= 0; --D) {
      int V = E.OrigIdx[Acc.indices()[D]];
      int64_t Stride = Inst->stride(D);
      Base += (E.VarBase[V] - IR.lo()[D]) * Stride;
      for (int I = 0; I < E.NumLeaf; ++I) {
        E.AccCoef[A][I] += E.VarCoef[V][I] * Stride;
        E.CopyCoef[A][I] += E.VarCoef[V][I] * CopyStride;
        E.ViewCoef[A][I] += E.VarCoef[V][I] * ViewStride;
      }
      CopyStride *= std::max<Coord>(IR.hi()[D] - IR.lo()[D], 0);
      ViewStride *= Shape[D];
    }
    E.AccBase[A] = Base;
  }
  return true;
}

/// Whether loop \p Outer of access \p A steps exactly \p InnerExtent
/// iterations of loop \p Inner (Coef[Outer] == InnerExtent * Coef[Inner]),
/// so the two run as one loop of Inner's stride — in both instance layouts,
/// so the answer never depends on whether the access is bound as a view.
bool fuses(const LeafEngine &E, int A, int Outer, int Inner,
           Coord InnerExtent) {
  return E.CopyCoef[A][Outer] == InnerExtent * E.CopyCoef[A][Inner] &&
         E.ViewCoef[A][Outer] == InnerExtent * E.ViewCoef[A][Inner];
}

/// The most collapsed loops a GEMM route uses (MTTKRP's m, n, r, s).
constexpr int MaxRouteLoops = 4;

/// The leaf loops after collapse: every maximal run of adjacent loops
/// that fuse for every access (the output included) becomes one loop of
/// the product extent, stepping with its innermost loop's coefficients.
struct CollapsedLoops {
  int Count = 0;
  int Loop[MaxRouteLoops] = {}; ///< Innermost leaf loop: its coefficients.
  Coord Extent[MaxRouteLoops] = {};
  unsigned Moves[MaxRouteLoops] = {}; ///< Bit A: access A's coef is nonzero.

  /// The loop that moves exactly the accesses in \p Mask, or -1.
  int find(unsigned Mask) const {
    for (int L = 0; L < Count; ++L)
      if (Moves[L] == Mask)
        return L;
    return -1;
  }
};

/// Collapses \p E's leaf loops into \p C; false when more than
/// MaxRouteLoops remain.
bool collapseLoops(const LeafEngine &E, CollapsedLoops &C) {
  for (int D = 0; D < E.NumLeaf; ++D) {
    bool Fused = D > 0;
    for (int A = 0; Fused && A < E.NumAcc; ++A)
      Fused = fuses(E, A, D - 1, D, E.LeafExtents[D]);
    if (Fused) {
      C.Loop[C.Count - 1] = D;
      C.Extent[C.Count - 1] *= E.LeafExtents[D];
      continue;
    }
    if (C.Count == MaxRouteLoops)
      return false;
    C.Loop[C.Count] = D;
    C.Extent[C.Count] = E.LeafExtents[D];
    ++C.Count;
  }
  for (int L = 0; L < C.Count; ++L)
    for (int A = 0; A < E.NumAcc; ++A)
      if (E.AccCoef[A][C.Loop[L]] != 0)
        C.Moves[L] |= 1u << A;
  return true;
}

/// Out[m,n] += P[m,(r,s)] * KR[(r,s),n] with KR[(r,s),n] = Q[r,n] * W[s,n]:
/// the matricized MTTKRP. KR is built one blas::GemmBlockK-deep block of
/// fused (r,s) rows at a time in the engine's workspace, and each block
/// runs as one GEMM, in ascending order. P's r must step exactly ext(s)
/// of its s, so P reads as an (m, r*s) matrix of stride coef(s).
void runKhatriRaoGemm(LeafEngine &E, const LeafParallelism &LP,
                      const CollapsedLoops &C, int P, int Q, int W, int M,
                      int N, int R, int S) {
  const auto &OC = E.AccCoef[0], &PC = E.AccCoef[P], &QC = E.AccCoef[Q],
             &WC = E.AccCoef[W];
  const int LM = C.Loop[M], LN = C.Loop[N], LR = C.Loop[R], LS = C.Loop[S];
  const Coord ExtN = C.Extent[N], ExtS = C.Extent[S];
  const Coord RS = C.Extent[R] * ExtS;
  const size_t Need =
      static_cast<size_t>(std::min(blas::GemmBlockK, RS) * ExtN);
  if (E.Workspace.size() < Need) {
    E.WorkspaceCharge.add(static_cast<int64_t>(Need - E.Workspace.size()) *
                          8);
    E.Workspace.resize(Need);
  }
  double *KR = E.Workspace.data();
  const double *QBase = E.AccData[Q] + E.AccBase[Q];
  const double *WBase = E.AccData[W] + E.AccBase[W];
  Coord RI = 0, SI = 0; // (r, s) of fused row K0 + T.
  for (Coord K0 = 0; K0 < RS; K0 += blas::GemmBlockK) {
    const Coord KLen = std::min(blas::GemmBlockK, RS - K0);
    for (Coord T = 0; T < KLen; ++T) {
      const double *QRow = QBase + RI * QC[LR];
      const double *WRow = WBase + SI * WC[LS];
      double *Row = KR + T * ExtN;
      for (Coord J = 0; J < ExtN; ++J)
        Row[J] = QRow[J * QC[LN]] * WRow[J * WC[LN]];
      if (++SI == ExtS) {
        SI = 0;
        ++RI;
      }
    }
    blas::gemmGeneral(LP, E.AccData[0] + E.AccBase[0],
                      E.AccData[P] + E.AccBase[P] + K0 * PC[LS], KR,
                      C.Extent[M], ExtN, KLen, OC[LM], OC[LN], PC[LM], PC[LS],
                      ExtN, 1);
  }
}

/// Whole-leaf GEMM recogniser over the bound extents and coefficients.
/// After collapseLoops, an unguarded leaf whose right-hand side is a plain
/// product of accesses takes one of two routes, under arbitrary (possibly
/// transposed) affine strides:
///  * GEMM: two operands over three loops, Out[m,n] += P[m,k] * Q[k,n]
///    (Cannon/SUMMA leaves; TTM, whose (ii, j) collapse into m).
///  * Khatri-Rao: three operands over four loops, Out[m,n] +=
///    P[m,r,s] * Q[r,n] * W[s,n] with P's (r, s) fusing (MTTKRP).
/// Each loop's role is the set of accesses it moves. Returns false, having
/// run nothing, for any other leaf.
bool tryGemmLeaf(LeafEngine &E, const Tape &T, const LeafParallelism &LP) {
  const size_t Ops = T.ProductAccs.size();
  if (E.NeedGuard || E.ReadsOutput || !T.PureProduct || T.ProductLit != 1.0 ||
      (Ops != 2 && Ops != 3))
    return false;
  CollapsedLoops C;
  if (!collapseLoops(E, C) || C.Count != static_cast<int>(Ops) + 1)
    return false;
  const unsigned Out = 1u;
  if (Ops == 2) {
    const int P = T.ProductAccs[0], Q = T.ProductAccs[1];
    const unsigned PB = 1u << P, QB = 1u << Q;
    int M = C.find(Out | PB), N = C.find(Out | QB), K = C.find(PB | QB);
    if (M < 0 || N < 0 || K < 0)
      return false;
    const auto &OC = E.AccCoef[0], &PC = E.AccCoef[P], &QC = E.AccCoef[Q];
    const int LM = C.Loop[M], LN = C.Loop[N], LK = C.Loop[K];
    blas::gemmGeneral(LP, E.AccData[0] + E.AccBase[0],
                      E.AccData[P] + E.AccBase[P], E.AccData[Q] + E.AccBase[Q],
                      C.Extent[M], C.Extent[N], C.Extent[K], OC[LM], OC[LN],
                      PC[LM], PC[LK], QC[LK], QC[LN]);
    return true;
  }
  // P is the operand n does not move; the other two each share one of P's
  // contracted loops, and P's fusion order decides which one is r.
  for (int I = 0; I < 3; ++I) {
    const int P = T.ProductAccs[I];
    int Q = T.ProductAccs[(I + 1) % 3], W = T.ProductAccs[(I + 2) % 3];
    const unsigned PB = 1u << P, QB = 1u << Q, WB = 1u << W;
    int M = C.find(Out | PB), N = C.find(Out | QB | WB);
    int R = C.find(PB | QB), S = C.find(PB | WB);
    if (M < 0 || N < 0 || R < 0 || S < 0)
      continue;
    if (!fuses(E, P, C.Loop[R], C.Loop[S], C.Extent[S])) {
      if (!fuses(E, P, C.Loop[S], C.Loop[R], C.Extent[R]))
        return false;
      std::swap(Q, W);
      std::swap(R, S);
    }
    runKhatriRaoGemm(E, LP, C, P, Q, W, M, N, R, S);
    return true;
  }
  return false;
}

/// How the innermost leaf loop executes.
enum class InnerKind {
  TapeBlocks,  ///< Evaluate the postfix tape a block of points at a time.
  TapeLoop,    ///< Evaluate the postfix tape one point at a time.
  DotReduce,   ///< Out invariant: alpha * dot/sum over the varying accesses.
  AxpyUpdate,  ///< Out varies, one varying operand: strided axpy.
  MulUpdate,   ///< Out varies, two varying operands: elementwise product.
  ConstUpdate, ///< Out varies, no varying operands: add a constant.
};

/// General compiled path: odometer over the outer leaf loops maintaining
/// running offsets, guard hoisted to a per-row trip count, innermost loop
/// routed to the best-matching kernel. \p LP bounds the nested fan-out of
/// the routed kernels; the reductions among them use a fixed chunk
/// association, so results are bitwise-identical for every budget.
/// \p Overwrite assigns output elements instead of accumulating (see
/// runCompiledLeaf); the exactly-once proof behind it guarantees each
/// element is written by a single (row, trip) so plain stores suffice.
void runGeneralLeaf(LeafEngine &E, const Tape &T, const LeafParallelism &LP,
                    bool Overwrite) {
  // A leaf with no loops is a single (guarded) point.
  if (E.NumLeaf == 0) {
    for (int V = 0; V < E.NumOrig; ++V)
      if (E.VarBase[V] >= E.VarExtent[V])
        return;
    double Val =
        evalTape(T.Ins, E.AccData.data(), E.AccBase.data(), E.Stack.data());
    if (Overwrite)
      E.AccData[0][E.AccBase[0]] = Val;
    else
      E.AccData[0][E.AccBase[0]] += Val;
    return;
  }

  int Inner = E.NumLeaf - 1;
  Coord InnerExtent = E.LeafExtents[Inner];
  int64_t OutIC = E.AccCoef[0][Inner];

  // Pick the innermost kernel once per step.
  std::vector<int> Varying, Invariant; // Rhs product accesses.
  if (T.PureProduct)
    for (int A : T.ProductAccs)
      (E.AccCoef[A][Inner] != 0 ? Varying : Invariant).push_back(A);
  // A block reads all its operands before it stores, so a right-hand side
  // that reads the output (and must see the partial sums of the points
  // before it) runs per point, as does a tape deeper than the block slots.
  InnerKind Kind = !E.ReadsOutput && T.MaxDepth <= BlockSlots
                       ? InnerKind::TapeBlocks
                       : InnerKind::TapeLoop;
  if (T.PureProduct) {
    if (OutIC == 0 && Varying.size() <= 2)
      Kind = InnerKind::DotReduce;
    else if (OutIC != 0 && Varying.size() == 1)
      Kind = InnerKind::AxpyUpdate;
    else if (OutIC != 0 && Varying.size() == 2)
      Kind = InnerKind::MulUpdate;
    else if (OutIC != 0 && Varying.empty())
      Kind = InnerKind::ConstUpdate;
  }
  // Negative innermost coefficients make the hoisted guard bound invalid;
  // fall back to per-point guarding through the tape.
  bool PerPointGuard = false;
  if (E.NeedGuard)
    for (int V = 0; V < E.NumOrig; ++V)
      if (E.VarCoef[V][Inner] < 0) {
        PerPointGuard = true;
        Kind = InnerKind::TapeLoop;
        break;
      }

  std::copy(E.AccBase.begin(), E.AccBase.end(), E.CurOff.begin());
  std::copy(E.VarBase.begin(), E.VarBase.end(), E.CurVal.begin());
  std::fill(E.Odometer.begin(), E.Odometer.end(), 0);

  double *const *Data = E.AccData.data();
  for (;;) {
    // Hoist the guard: the largest prefix of the innermost loop whose
    // recovered original variables all stay inside their extents.
    Coord Trips = InnerExtent;
    if (E.NeedGuard && !PerPointGuard) {
      for (int V = 0; V < E.NumOrig; ++V) {
        Coord C = E.VarCoef[V][Inner];
        if (E.CurVal[V] >= E.VarExtent[V]) {
          Trips = 0;
          break;
        }
        if (C > 0)
          Trips = std::min(Trips, (E.VarExtent[V] - E.CurVal[V] + C - 1) / C);
      }
    }

    if (Trips > 0)
      switch (Kind) {
      case InnerKind::DotReduce: {
        double Alpha = T.ProductLit;
        for (int A : Invariant)
          Alpha *= Data[A][E.CurOff[A]];
        double Sum;
        if (Varying.size() == 2)
          Sum = blas::dotStrided(LP, Data[Varying[0]] + E.CurOff[Varying[0]],
                                 E.AccCoef[Varying[0]][Inner],
                                 Data[Varying[1]] + E.CurOff[Varying[1]],
                                 E.AccCoef[Varying[1]][Inner], Trips);
        else if (Varying.size() == 1)
          Sum = blas::sumStrided(LP, Data[Varying[0]] + E.CurOff[Varying[0]],
                                 E.AccCoef[Varying[0]][Inner], Trips);
        else
          Sum = static_cast<double>(Trips);
        if (Overwrite)
          Data[0][E.CurOff[0]] = Alpha * Sum;
        else
          Data[0][E.CurOff[0]] += Alpha * Sum;
        break;
      }
      case InnerKind::AxpyUpdate: {
        double Alpha = T.ProductLit;
        for (int A : Invariant)
          Alpha *= Data[A][E.CurOff[A]];
        if (Overwrite)
          blas::scaleStrided(LP, Data[0] + E.CurOff[0], OutIC,
                             Data[Varying[0]] + E.CurOff[Varying[0]],
                             E.AccCoef[Varying[0]][Inner], Alpha, Trips);
        else
          blas::axpyStrided(LP, Data[0] + E.CurOff[0], OutIC,
                            Data[Varying[0]] + E.CurOff[Varying[0]],
                            E.AccCoef[Varying[0]][Inner], Alpha, Trips);
        break;
      }
      case InnerKind::MulUpdate: {
        double Alpha = T.ProductLit;
        for (int A : Invariant)
          Alpha *= Data[A][E.CurOff[A]];
        double *__restrict__ Out = Data[0] + E.CurOff[0];
        const double *__restrict__ U = Data[Varying[0]] + E.CurOff[Varying[0]];
        const double *__restrict__ W = Data[Varying[1]] + E.CurOff[Varying[1]];
        int64_t SU = E.AccCoef[Varying[0]][Inner],
                SW = E.AccCoef[Varying[1]][Inner];
        if (Overwrite)
          for (Coord I = 0; I < Trips; ++I)
            Out[I * OutIC] = Alpha * U[I * SU] * W[I * SW];
        else
          for (Coord I = 0; I < Trips; ++I)
            Out[I * OutIC] += Alpha * U[I * SU] * W[I * SW];
        break;
      }
      case InnerKind::ConstUpdate: {
        double Alpha = T.ProductLit;
        for (int A : Invariant)
          Alpha *= Data[A][E.CurOff[A]];
        double *__restrict__ Out = Data[0] + E.CurOff[0];
        if (Overwrite)
          for (Coord I = 0; I < Trips; ++I)
            Out[I * OutIC] = Alpha;
        else
          for (Coord I = 0; I < Trips; ++I)
            Out[I * OutIC] += Alpha;
        break;
      }
      case InnerKind::TapeBlocks:
        runTapeBlocks(E, T, Inner, Trips, Overwrite);
        break;
      case InnerKind::TapeLoop: {
        std::copy(E.CurOff.begin(), E.CurOff.end(), E.RowOff.begin());
        for (Coord I = 0; I < Trips; ++I) {
          bool Skip = false;
          if (PerPointGuard)
            for (int V = 0; V < E.NumOrig; ++V)
              if (E.CurVal[V] + I * E.VarCoef[V][Inner] >= E.VarExtent[V]) {
                Skip = true;
                break;
              }
          if (!Skip) {
            double Val = evalTape(T.Ins, Data, E.RowOff.data(), E.Stack.data());
            if (Overwrite)
              Data[0][E.RowOff[0]] = Val;
            else
              Data[0][E.RowOff[0]] += Val;
          }
          for (int A = 0; A < E.NumAcc; ++A)
            E.RowOff[A] += E.AccCoef[A][Inner];
        }
        break;
      }
      }

    // Advance the odometer over the outer leaf loops.
    int D = Inner - 1;
    for (; D >= 0; --D) {
      for (int A = 0; A < E.NumAcc; ++A)
        E.CurOff[A] += E.AccCoef[A][D];
      for (int V = 0; V < E.NumOrig; ++V)
        E.CurVal[V] += E.VarCoef[V][D];
      if (++E.Odometer[D] < E.LeafExtents[D])
        break;
      for (int A = 0; A < E.NumAcc; ++A)
        E.CurOff[A] -= E.AccCoef[A][D] * E.LeafExtents[D];
      for (int V = 0; V < E.NumOrig; ++V)
        E.CurVal[V] -= E.VarCoef[V][D] * E.LeafExtents[D];
      E.Odometer[D] = 0;
    }
    if (D < 0)
      break;
  }
}

} // namespace

Tape distal::leaf::compileTape(const Expr &Rhs) {
  Tape T;
  int Cursor = 1; // Access 0 is the output.
  compileTapeRec(Rhs, Cursor, 0, T);
  return T;
}

void distal::leaf::runCompiledLeaf(LeafEngine &E, const Plan &P,
                                   const std::map<IndexVar, Coord> &FixedVals,
                                   std::map<TensorVar, Instance *> &Insts,
                                   const Tape &T, const LeafParallelism &LP,
                                   bool Overwrite) {
  if (!prepareStep(E, P, FixedVals, Insts, T))
    return;
  // blas::gemm accumulates into C; overwrite leaves (which by construction
  // have no reduction loop) take the strided-update path instead.
  if (!Overwrite && tryGemmLeaf(E, T, LP))
    return;
  runGeneralLeaf(E, T, LP, Overwrite);
}
