//===- runtime/LeafCompiler.cpp -------------------------------*- C++ -*-===//
//
// Leaf kernels run through a small compiler instead of an interpreter: the
// statement's right-hand side becomes a flat postfix tape, every access
// offset becomes an affine function of the leaf loop variables (cached per
// task across steps), guards are hoisted out of the innermost loop, and
// recognisable loop structures route to blas:: kernels (GEMM for
// matrix-multiply leaves; strided dot / axpy / sum for contraction and
// elementwise innermost loops). Any other innermost loop evaluates the tape
// a block of points at a time, one pass per instruction; it falls back to
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
    int64_t Base = 0;
    const Rect &IR = Inst->rect();
    for (int D = 0; D < Acc.tensor().order(); ++D) {
      int V = E.OrigIdx[Acc.indices()[D]];
      int64_t Stride = Inst->stride(D);
      Base += (E.VarBase[V] - IR.lo()[D]) * Stride;
      for (int I = 0; I < E.NumLeaf; ++I)
        E.AccCoef[A][I] += E.VarCoef[V][I] * Stride;
    }
    E.AccBase[A] = Base;
  }
  return true;
}

/// Whole-leaf GEMM recogniser: three leaf loops computing
/// Out[m,n] += P[m,k] * Q[k,n] under arbitrary (possibly transposed)
/// affine strides. Fires for any coefficient pattern where each operand
/// depends on exactly its two roles, not just the canonical layout.
bool tryGemmLeaf(LeafEngine &E, const Tape &T, const LeafParallelism &LP) {
  if (E.NumLeaf != 3 || E.NumAcc != 3 || E.NeedGuard || !T.PureProduct ||
      T.ProductAccs.size() != 2 || T.ProductLit != 1.0)
    return false;
  const auto &OC = E.AccCoef[0];
  int KVar = -1;
  for (int V = 0; V < 3; ++V) {
    if (OC[V] != 0)
      continue;
    if (KVar != -1)
      return false; // Output varies along exactly two leaf vars.
    KVar = V;
  }
  if (KVar == -1)
    return false;
  int X = KVar == 0 ? 1 : 0;
  int Y = KVar == 2 ? 1 : 2;
  int PA = T.ProductAccs[0], QA = T.ProductAccs[1];
  const auto &PC = E.AccCoef[PA], &QC = E.AccCoef[QA];
  if (PC[KVar] == 0 || QC[KVar] == 0)
    return false;
  int M = -1, N = -1;
  if (PC[X] != 0 && PC[Y] == 0 && QC[Y] != 0 && QC[X] == 0) {
    M = X;
    N = Y;
  } else if (PC[Y] != 0 && PC[X] == 0 && QC[X] != 0 && QC[Y] == 0) {
    M = Y;
    N = X;
  } else {
    return false;
  }
  blas::gemmGeneral(LP, E.AccData[0] + E.AccBase[0],
                    E.AccData[PA] + E.AccBase[PA],
                    E.AccData[QA] + E.AccBase[QA], E.LeafExtents[M],
                    E.LeafExtents[N], E.LeafExtents[KVar], OC[M], OC[N],
                    PC[M], PC[KVar], QC[KVar], QC[N]);
  return true;
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
