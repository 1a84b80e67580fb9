//===- runtime/LeafCompiler.cpp -------------------------------*- C++ -*-===//
//
// Leaf kernels run through a small compiler instead of an interpreter: the
// statement's right-hand side becomes a flat postfix tape, every access
// offset becomes an affine function of the leaf loop variables (bound once
// per task and step when the CompiledPlan is built, with the GEMM route),
// guards are hoisted out of the innermost loop, and recognisable loop
// structures route to blas:: kernels. Unguarded product
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

/// Sets every leaf variable of \p Vals to \p LeafVal(I).
template <typename Fn>
void setLeafVals(const LeafShape &S, std::map<IndexVar, Coord> &Vals,
                 Fn LeafVal) {
  for (int I = 0; I < S.NumLeaf; ++I)
    Vals[S.LeafV[I]] = LeafVal(I);
}

/// Derives the per-leaf-var coefficients of every original variable by
/// probing the provenance graph one leaf variable at a time from the leaf
/// origin, whose values are \p VarBase.
void computeVarCoefs(const LeafShape &S, const ProvenanceGraph &Prov,
                     std::map<IndexVar, Coord> &Vals,
                     const std::vector<Coord> &VarBase,
                     std::vector<Coord> &Coefs) {
  Coefs.assign(static_cast<size_t>(S.NumOrig * S.NumLeaf), 0);
  for (int I = 0; I < S.NumLeaf; ++I) {
    if (S.LeafExtents[I] <= 1)
      continue;
    setLeafVals(S, Vals, [I](int J) { return J == I ? 1 : 0; });
    for (int V = 0; V < S.NumOrig; ++V)
      Coefs[V * S.NumLeaf + I] =
          Prov.recoverValue(S.OrigV[V], Vals) - VarBase[V];
  }
}

/// Verifies \p Coefs at the far corner of the leaf domain and derives
/// \p NeedGuard. False when the coefficients do not predict the provenance
/// recovery there.
bool verifyAffineStructure(const LeafShape &S, const ProvenanceGraph &Prov,
                           std::map<IndexVar, Coord> &Vals,
                           const std::vector<Coord> &VarBase,
                           const std::vector<Coord> &Coefs, bool &NeedGuard) {
  setLeafVals(S, Vals, [&](int I) { return S.LeafExtents[I] - 1; });
  NeedGuard = false;
  for (int V = 0; V < S.NumOrig; ++V) {
    Coord Predicted = VarBase[V];
    for (int I = 0; I < S.NumLeaf; ++I)
      Predicted += Coefs[V * S.NumLeaf + I] * (S.LeafExtents[I] - 1);
    if (Prov.recoverValue(S.OrigV[V], Vals) != Predicted)
      return false;
    if (Predicted >= S.VarExtent[V])
      NeedGuard = true;
  }
  return true;
}

/// Coefficient \p Loop of access \p A in layout \p L.
inline int64_t coefOf(const LeafShape &S, const LeafBinding &B, int L, int A,
                      int Loop) {
  return B.Coef[L][static_cast<size_t>(A * S.NumLeaf + Loop)];
}

/// Whether loop \p Outer of access \p A steps exactly \p InnerExtent
/// iterations of loop \p Inner (Coef[Outer] == InnerExtent * Coef[Inner]),
/// so the two run as one loop of Inner's stride — in both instance layouts,
/// so the answer never depends on whether the access is bound as a view.
bool fuses(const LeafShape &S, const LeafBinding &B, int A, int Outer,
           int Inner, Coord InnerExtent) {
  for (int L : {CopyLayout, ViewLayout})
    if (coefOf(S, B, L, A, Outer) != InnerExtent * coefOf(S, B, L, A, Inner))
      return false;
  return true;
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

/// Collapses \p B's leaf loops into \p C; false when more than
/// MaxRouteLoops remain, or when the two layouts disagree on which
/// accesses a loop moves (the route must not depend on the layout).
bool collapseLoops(const LeafShape &S, const LeafBinding &B,
                   CollapsedLoops &C) {
  for (int D = 0; D < S.NumLeaf; ++D) {
    bool Fused = D > 0;
    for (int A = 0; Fused && A < S.NumAcc; ++A)
      Fused = fuses(S, B, A, D - 1, D, S.LeafExtents[D]);
    if (Fused) {
      C.Loop[C.Count - 1] = D;
      C.Extent[C.Count - 1] *= S.LeafExtents[D];
      continue;
    }
    if (C.Count == MaxRouteLoops)
      return false;
    C.Loop[C.Count] = D;
    C.Extent[C.Count] = S.LeafExtents[D];
    ++C.Count;
  }
  for (int L = 0; L < C.Count; ++L)
    for (int A = 0; A < S.NumAcc; ++A) {
      bool CopyMoves = coefOf(S, B, CopyLayout, A, C.Loop[L]) != 0;
      if (CopyMoves != (coefOf(S, B, ViewLayout, A, C.Loop[L]) != 0))
        return false;
      if (CopyMoves)
        C.Moves[L] |= 1u << A;
    }
  return true;
}

/// Whole-leaf GEMM recogniser over the bound extents and coefficients.
/// After collapseLoops, an unguarded, accumulating leaf whose right-hand
/// side is a plain product of accesses takes one of two routes, under
/// arbitrary (possibly transposed) affine strides:
///  * GEMM: two operands over three loops, Out[m,n] += P[m,k] * Q[k,n]
///    (Cannon/SUMMA leaves; TTM, whose (ii, j) collapse into m).
///  * Khatri-Rao: three operands over four loops, Out[m,n] +=
///    P[m,r,s] * Q[r,n] * W[s,n] with P's (r, s) fusing (MTTKRP).
/// Each loop's role is the set of accesses it moves. Any other leaf gets
/// Kind::None. blas::gemm accumulates into C, so overwrite leaves (which by
/// construction have no reduction loop) never route here.
GemmRoute tryGemmLeaf(const LeafShape &S, const LeafBinding &B, const Tape &T,
                      bool Overwrite) {
  GemmRoute R;
  const size_t Ops = T.ProductAccs.size();
  if (Overwrite || B.Empty || B.NeedGuard || S.ReadsOutput ||
      !T.PureProduct || T.ProductLit != 1.0 || (Ops != 2 && Ops != 3))
    return R;
  CollapsedLoops C;
  if (!collapseLoops(S, B, C) || C.Count != static_cast<int>(Ops) + 1)
    return R;
  const unsigned Out = 1u;
  if (Ops == 2) {
    const int P = T.ProductAccs[0], Q = T.ProductAccs[1];
    const unsigned PB = 1u << P, QB = 1u << Q;
    int M = C.find(Out | PB), N = C.find(Out | QB), K = C.find(PB | QB);
    if (M < 0 || N < 0 || K < 0)
      return R;
    R.K = GemmRoute::Kind::Gemm;
    R.P = P;
    R.Q = Q;
    R.LM = C.Loop[M];
    R.LN = C.Loop[N];
    R.LK = C.Loop[K];
    R.M = C.Extent[M];
    R.N = C.Extent[N];
    R.KExt = C.Extent[K];
    return R;
  }
  // P is the operand n does not move; the other two each share one of P's
  // contracted loops, and P's fusion order decides which one is r.
  for (int I = 0; I < 3; ++I) {
    const int P = T.ProductAccs[I];
    int Q = T.ProductAccs[(I + 1) % 3], W = T.ProductAccs[(I + 2) % 3];
    const unsigned PB = 1u << P, QB = 1u << Q, WB = 1u << W;
    int M = C.find(Out | PB), N = C.find(Out | QB | WB);
    int Rl = C.find(PB | QB), Sl = C.find(PB | WB);
    if (M < 0 || N < 0 || Rl < 0 || Sl < 0)
      continue;
    if (!fuses(S, B, P, C.Loop[Rl], C.Loop[Sl], C.Extent[Sl])) {
      if (!fuses(S, B, P, C.Loop[Sl], C.Loop[Rl], C.Extent[Rl]))
        return R;
      std::swap(Q, W);
      std::swap(Rl, Sl);
    }
    R.K = GemmRoute::Kind::KhatriRao;
    R.P = P;
    R.Q = Q;
    R.W = W;
    R.LM = C.Loop[M];
    R.LN = C.Loop[N];
    R.LK = C.Loop[Rl];
    R.LS = C.Loop[Sl];
    R.M = C.Extent[M];
    R.N = C.Extent[N];
    R.KExt = C.Extent[Rl];
    R.S = C.Extent[Sl];
    R.WorkspaceElems = std::min(blas::GemmBlockK, R.KExt * R.S) * R.N;
    return R;
  }
  return R;
}

/// Out[m,n] += P[m,(r,s)] * KR[(r,s),n] with KR[(r,s),n] = Q[r,n] * W[s,n]:
/// the matricized MTTKRP. KR is built one blas::GemmBlockK-deep block of
/// fused (r,s) rows at a time in the engine's workspace, and each block
/// runs as one GEMM, in ascending order. P's r must step exactly ext(s)
/// of its s, so P reads as an (m, r*s) matrix of stride coef(s).
void runKhatriRaoGemm(LeafEngine &E, const GemmRoute &R,
                      const LeafParallelism &LP) {
  const int64_t *OC = E.AccCoef[0], *PC = E.AccCoef[R.P],
                *QC = E.AccCoef[R.Q], *WC = E.AccCoef[R.W];
  const Coord ExtN = R.N, ExtS = R.S;
  const Coord RS = R.KExt * ExtS;
  DISTAL_ASSERT(static_cast<int64_t>(E.Workspace.size()) >= R.WorkspaceElems,
                "Khatri-Rao workspace smaller than its compiled size");
  double *KR = E.Workspace.data();
  const double *QBase = E.AccData[R.Q] + E.AccBase[R.Q];
  const double *WBase = E.AccData[R.W] + E.AccBase[R.W];
  Coord RI = 0, SI = 0; // (r, s) of fused row K0 + T.
  for (Coord K0 = 0; K0 < RS; K0 += blas::GemmBlockK) {
    const Coord KLen = std::min(blas::GemmBlockK, RS - K0);
    for (Coord T = 0; T < KLen; ++T) {
      const double *QRow = QBase + RI * QC[R.LK];
      const double *WRow = WBase + SI * WC[R.LS];
      double *Row = KR + T * ExtN;
      for (Coord J = 0; J < ExtN; ++J)
        Row[J] = QRow[J * QC[R.LN]] * WRow[J * WC[R.LN]];
      if (++SI == ExtS) {
        SI = 0;
        ++RI;
      }
    }
    blas::gemmGeneral(LP, E.AccData[0] + E.AccBase[0],
                      E.AccData[R.P] + E.AccBase[R.P] + K0 * PC[R.LS], KR,
                      R.M, ExtN, KLen, OC[R.LM], OC[R.LN], PC[R.LM], PC[R.LS],
                      ExtN, 1);
  }
}

/// Out[m,n] += P[m,k] * Q[k,n] as one GEMM.
void runGemm(const LeafEngine &E, const GemmRoute &R,
             const LeafParallelism &LP) {
  const int64_t *OC = E.AccCoef[0], *PC = E.AccCoef[R.P],
                *QC = E.AccCoef[R.Q];
  blas::gemmGeneral(LP, E.AccData[0] + E.AccBase[0],
                    E.AccData[R.P] + E.AccBase[R.P],
                    E.AccData[R.Q] + E.AccBase[R.Q], R.M, R.N, R.KExt,
                    OC[R.LM], OC[R.LN], PC[R.LM], PC[R.LK], QC[R.LK],
                    QC[R.LN]);
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
void runGeneralLeaf(LeafEngine &E, const LeafShape &Sh, const LeafBinding &B,
                    const Tape &T, const LeafParallelism &LP, bool Overwrite) {
  const int NL = Sh.NumLeaf;
  auto VarCoef = [&](int V, int I) { return B.VarCoef[V * NL + I]; };
  // A leaf with no loops is a single (guarded) point.
  if (NL == 0) {
    for (int V = 0; V < Sh.NumOrig; ++V)
      if (B.VarBase[V] >= Sh.VarExtent[V])
        return;
    double Val =
        evalTape(T.Ins, E.AccData.data(), E.AccBase.data(), E.Stack.data());
    if (Overwrite)
      E.AccData[0][E.AccBase[0]] = Val;
    else
      E.AccData[0][E.AccBase[0]] += Val;
    return;
  }

  int Inner = NL - 1;
  Coord InnerExtent = Sh.LeafExtents[Inner];
  int64_t OutIC = E.AccCoef[0][Inner];

  // Pick the innermost kernel once per step.
  std::vector<int> &Varying = E.Varying, &Invariant = E.Invariant;
  Varying.clear(); // Rhs product accesses.
  Invariant.clear();
  if (T.PureProduct)
    for (int A : T.ProductAccs)
      (E.AccCoef[A][Inner] != 0 ? Varying : Invariant).push_back(A);
  // A block reads all its operands before it stores, so a right-hand side
  // that reads the output (and must see the partial sums of the points
  // before it) runs per point, as does a tape deeper than the block slots.
  InnerKind Kind = !Sh.ReadsOutput && T.MaxDepth <= BlockSlots
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
  if (B.NeedGuard)
    for (int V = 0; V < Sh.NumOrig; ++V)
      if (VarCoef(V, Inner) < 0) {
        PerPointGuard = true;
        Kind = InnerKind::TapeLoop;
        break;
      }

  std::copy(E.AccBase.begin(), E.AccBase.end(), E.CurOff.begin());
  std::copy(B.VarBase.begin(), B.VarBase.end(), E.CurVal.begin());
  std::fill(E.Odometer.begin(), E.Odometer.end(), 0);

  double *const *Data = E.AccData.data();
  for (;;) {
    // Hoist the guard: the largest prefix of the innermost loop whose
    // recovered original variables all stay inside their extents.
    Coord Trips = InnerExtent;
    if (B.NeedGuard && !PerPointGuard) {
      for (int V = 0; V < Sh.NumOrig; ++V) {
        Coord C = VarCoef(V, Inner);
        if (E.CurVal[V] >= Sh.VarExtent[V]) {
          Trips = 0;
          break;
        }
        if (C > 0)
          Trips = std::min(Trips, (Sh.VarExtent[V] - E.CurVal[V] + C - 1) / C);
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
            for (int V = 0; V < Sh.NumOrig; ++V)
              if (E.CurVal[V] + I * VarCoef(V, Inner) >= Sh.VarExtent[V]) {
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
          for (int A = 0; A < Sh.NumAcc; ++A)
            E.RowOff[A] += E.AccCoef[A][Inner];
        }
        break;
      }
      }

    // Advance the odometer over the outer leaf loops.
    int D = Inner - 1;
    for (; D >= 0; --D) {
      for (int A = 0; A < Sh.NumAcc; ++A)
        E.CurOff[A] += E.AccCoef[A][D];
      for (int V = 0; V < Sh.NumOrig; ++V)
        E.CurVal[V] += VarCoef(V, D);
      if (++E.Odometer[D] < Sh.LeafExtents[D])
        break;
      for (int A = 0; A < Sh.NumAcc; ++A)
        E.CurOff[A] -= E.AccCoef[A][D] * Sh.LeafExtents[D];
      for (int V = 0; V < Sh.NumOrig; ++V)
        E.CurVal[V] -= VarCoef(V, D) * Sh.LeafExtents[D];
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

LeafShape distal::leaf::compileLeafShape(const Plan &P,
                                         const std::vector<TensorVar> &Slots) {
  const Assignment &Stmt = P.Nest.Stmt;
  const ProvenanceGraph &Prov = P.Nest.Prov;
  LeafShape S;
  S.LeafV = P.leafVars();
  S.OrigV = Stmt.defaultLoopOrder();
  S.Accesses = Stmt.accesses();
  S.NumLeaf = static_cast<int>(S.LeafV.size());
  S.NumOrig = static_cast<int>(S.OrigV.size());
  S.NumAcc = static_cast<int>(S.Accesses.size());
  for (const Access &A : S.Accesses)
    S.AccSlot.push_back(static_cast<int>(
        std::find(Slots.begin(), Slots.end(), A.tensor()) - Slots.begin()));
  for (int A = 1; A < S.NumAcc; ++A)
    S.ReadsOutput |= S.Accesses[A].tensor() == S.Accesses[0].tensor();
  for (const IndexVar &V : S.LeafV)
    S.LeafExtents.push_back(Prov.extent(V));
  for (const IndexVar &V : S.OrigV)
    S.VarExtent.push_back(Prov.extent(V));
  return S;
}

LeafBinding distal::leaf::bindLeaf(const Plan &P, const LeafShape &S,
                                   const Tape &T,
                                   std::map<IndexVar, Coord> &Vals,
                                   const std::vector<const Rect *> &SlotRect,
                                   bool Overwrite, std::vector<Coord> &Coefs) {
  const ProvenanceGraph &Prov = P.Nest.Prov;
  LeafBinding B;
  setLeafVals(S, Vals, [](int) { return 0; });
  for (const IndexVar &V : S.OrigV)
    B.VarBase.push_back(Prov.recoverValue(V, Vals));
  // The coefficient structure almost never moves between steps: reuse the
  // previous step's while it predicts this step's far corner.
  bool Fresh = Coefs.empty();
  if (Fresh)
    computeVarCoefs(S, Prov, Vals, B.VarBase, Coefs);
  if (!verifyAffineStructure(S, Prov, Vals, B.VarBase, Coefs, B.NeedGuard) &&
      (Fresh || (computeVarCoefs(S, Prov, Vals, B.VarBase, Coefs),
                 !verifyAffineStructure(S, Prov, Vals, B.VarBase, Coefs,
                                        B.NeedGuard))))
    reportFatalError("leaf loops are not affine in the leaf variables; "
                     "rotate must be applied to sequential step loops only");
  B.VarCoef = Coefs;
  for (Coord Ext : S.LeafExtents)
    B.Empty |= Ext == 0;
  if (B.Empty)
    return B;

  // Offsets in elements, for both layouts an instance can take: a packed
  // copy of the slot's last gathered rectangle (row-major over its
  // extents) and a view with the tensor's row-major strides, both taken
  // from the rectangle's lo corner.
  const size_t NL = static_cast<size_t>(S.NumLeaf);
  for (int L : {CopyLayout, ViewLayout}) {
    B.Base[L].assign(static_cast<size_t>(S.NumAcc), 0);
    B.Coef[L].assign(static_cast<size_t>(S.NumAcc) * NL, 0);
  }
  for (int A = 0; A < S.NumAcc; ++A) {
    const Access &Acc = S.Accesses[A];
    const Rect *IR = SlotRect[static_cast<size_t>(S.AccSlot[A])];
    if (!IR)
      throwError(ErrorCode::Internal,
                 "leaf run without an instance for accessed tensor '" +
                     Acc.tensor().name() + "'");
    const std::vector<Coord> &Shape = Acc.tensor().shape();
    int64_t Stride[2] = {1, 1}; // Row-major, innermost first.
    for (int D = Acc.tensor().order() - 1; D >= 0; --D) {
      int V = static_cast<int>(
          std::find(S.OrigV.begin(), S.OrigV.end(), Acc.indices()[D]) -
          S.OrigV.begin());
      for (int L : {CopyLayout, ViewLayout}) {
        B.Base[L][static_cast<size_t>(A)] +=
            (B.VarBase[V] - IR->lo()[D]) * Stride[L];
        for (size_t I = 0; I < NL; ++I)
          B.Coef[L][A * NL + I] += B.VarCoef[V * NL + I] * Stride[L];
      }
      Stride[CopyLayout] *= std::max<Coord>(IR->hi()[D] - IR->lo()[D], 0);
      Stride[ViewLayout] *= Shape[D];
    }
  }
  B.Route = tryGemmLeaf(S, B, T, Overwrite);
  return B;
}

int64_t LeafBinding::footprintBytes() const {
  size_t Elems = VarBase.size() + VarCoef.size();
  for (int L : {CopyLayout, ViewLayout})
    Elems += Base[L].size() + Coef[L].size();
  return static_cast<int64_t>(sizeof(LeafBinding) + Elems * 8);
}

void LeafEngine::size(const LeafShape &S, const Tape &T,
                      int64_t WorkspaceElems) {
  const size_t NumAcc = static_cast<size_t>(S.NumAcc);
  AccData.assign(NumAcc, nullptr);
  AccBase.assign(NumAcc, 0);
  AccCoef.assign(NumAcc, nullptr);
  Stack.resize(static_cast<size_t>(std::max(T.MaxDepth, 1)));
  CurOff.resize(NumAcc);
  RowOff.resize(NumAcc);
  CurVal.resize(static_cast<size_t>(S.NumOrig));
  Odometer.assign(static_cast<size_t>(std::max(S.NumLeaf - 1, 0)), 0);
  Varying.reserve(NumAcc);
  Invariant.reserve(NumAcc);
  Workspace.resize(static_cast<size_t>(WorkspaceElems));
}

void distal::leaf::runCompiledLeaf(LeafEngine &E, const LeafShape &S,
                                   const LeafBinding &B,
                                   double *const *SlotData,
                                   const uint8_t *SlotView, const Tape &T,
                                   const LeafParallelism &LP, bool Overwrite) {
  if (B.Empty)
    return;
  const size_t NL = static_cast<size_t>(S.NumLeaf);
  for (int A = 0; A < S.NumAcc; ++A) {
    const int Slot = S.AccSlot[static_cast<size_t>(A)];
    const int L = SlotView[Slot] ? ViewLayout : CopyLayout;
    E.AccData[A] = SlotData[Slot];
    E.AccBase[A] = B.Base[L][static_cast<size_t>(A)];
    E.AccCoef[A] = B.Coef[L].data() + A * NL;
  }
  switch (B.Route.K) {
  case GemmRoute::Kind::Gemm:
    runGemm(E, B.Route, LP);
    return;
  case GemmRoute::Kind::KhatriRao:
    runKhatriRaoGemm(E, B.Route, LP);
    return;
  case GemmRoute::Kind::None:
    break;
  }
  runGeneralLeaf(E, S, B, T, LP, Overwrite);
}
