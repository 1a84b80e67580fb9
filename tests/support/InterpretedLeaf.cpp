//===- tests/support/InterpretedLeaf.cpp ----------------------*- C++ -*-===//
//
// The seed leaf implementation, kept for benchmarks and differential tests
// (seed::Engine's leaves): rebuilds the affine structure every step and
// walks the expression tree through recursive std::functions at every
// point, except canonical GEMM leaves, which run the seed's cache-blocked
// GEMM. See src/runtime/LeafCompiler.cpp for the compiled engine that
// replaced it.
//
//===----------------------------------------------------------------------===//

#include "Seed.h"

#include <algorithm>
#include <functional>

#include "support/Error.h"
#include "support/Util.h"

using namespace distal;

namespace {

/// Precomputed affine leaf-kernel structure for one task/step context,
/// rebuilt from scratch on every call.
struct AffineLeaf {
  bool Affine = true;
  bool NeedGuard = false;
  std::vector<Coord> LeafExtents;
  std::vector<Coord> VarBase;
  std::vector<std::vector<Coord>> VarCoef;
  std::vector<Coord> VarExtent;
  std::vector<double *> AccData;
  std::vector<int64_t> AccBase;
  std::vector<std::vector<int64_t>> AccCoef;
};

} // namespace

void distal::seed::gemmBlockedReference(double *C, const double *A,
                                        const double *B, int64_t M, int64_t N,
                                        int64_t K, int64_t LdC, int64_t LdA,
                                        int64_t LdB) {
  constexpr int64_t Bm = 64, Bn = 64, Bk = 64;
  for (int64_t I0 = 0; I0 < M; I0 += Bm)
    for (int64_t K0 = 0; K0 < K; K0 += Bk)
      for (int64_t J0 = 0; J0 < N; J0 += Bn) {
        int64_t IMax = std::min(I0 + Bm, M);
        int64_t KMax = std::min(K0 + Bk, K);
        int64_t JMax = std::min(J0 + Bn, N);
        for (int64_t I = I0; I < IMax; ++I)
          for (int64_t KK = K0; KK < KMax; ++KK) {
            double AVal = A[I * LdA + KK];
            const double *BRow = B + KK * LdB;
            double *CRow = C + I * LdC;
            for (int64_t J = J0; J < JMax; ++J)
              CRow[J] += AVal * BRow[J];
          }
      }
}

void distal::seed::runInterpretedLeaf(
    const Plan &P, const std::map<IndexVar, Coord> &FixedVals,
    std::map<TensorVar, Instance *> &Insts) {
  const Assignment &Stmt = P.Nest.Stmt;
  const ProvenanceGraph &Prov = P.Nest.Prov;
  std::vector<IndexVar> LeafV = P.leafVars();
  std::vector<IndexVar> OrigV = Stmt.defaultLoopOrder();
  std::vector<Access> Accesses = Stmt.accesses(); // LHS first.
  int NumLeaf = static_cast<int>(LeafV.size());
  int NumOrig = static_cast<int>(OrigV.size());
  int NumAcc = static_cast<int>(Accesses.size());

  AffineLeaf L;
  L.LeafExtents.resize(NumLeaf);
  for (int I = 0; I < NumLeaf; ++I)
    L.LeafExtents[I] = Prov.extent(LeafV[I]);

  auto ValuesWith = [&](const std::vector<Coord> &LeafVals) {
    std::map<IndexVar, Coord> Vals = FixedVals;
    for (int I = 0; I < NumLeaf; ++I)
      Vals[LeafV[I]] = LeafVals[I];
    return Vals;
  };
  std::vector<Coord> Zero(NumLeaf, 0), Probe(NumLeaf, 0);
  std::map<IndexVar, Coord> ValsZero = ValuesWith(Zero);
  L.VarBase.resize(NumOrig);
  L.VarCoef.assign(NumOrig, std::vector<Coord>(NumLeaf, 0));
  L.VarExtent.resize(NumOrig);
  for (int V = 0; V < NumOrig; ++V) {
    L.VarBase[V] = Prov.recoverValue(OrigV[V], ValsZero);
    L.VarExtent[V] = Prov.extent(OrigV[V]);
    for (int I = 0; I < NumLeaf; ++I) {
      if (L.LeafExtents[I] <= 1)
        continue;
      Probe = Zero;
      Probe[I] = 1;
      L.VarCoef[V][I] =
          Prov.recoverValue(OrigV[V], ValuesWith(Probe)) - L.VarBase[V];
    }
    for (int I = 0; I < NumLeaf; ++I)
      Probe[I] = L.LeafExtents[I] - 1;
    Coord Predicted = L.VarBase[V];
    for (int I = 0; I < NumLeaf; ++I)
      Predicted += L.VarCoef[V][I] * Probe[I];
    if (Prov.recoverValue(OrigV[V], ValuesWith(Probe)) != Predicted)
      L.Affine = false;
    if (Predicted >= L.VarExtent[V])
      L.NeedGuard = true;
  }

  std::map<IndexVar, int> OrigIdx;
  for (int V = 0; V < NumOrig; ++V)
    OrigIdx[OrigV[V]] = V;
  L.AccData.resize(NumAcc);
  L.AccBase.assign(NumAcc, 0);
  L.AccCoef.assign(NumAcc, std::vector<int64_t>(NumLeaf, 0));
  for (int A = 0; A < NumAcc; ++A) {
    const Access &Acc = Accesses[A];
    auto It = Insts.find(Acc.tensor());
    DISTAL_ASSERT(It != Insts.end() && It->second,
                  "leaf run without an instance for an accessed tensor");
    Instance *Inst = It->second;
    L.AccData[A] = Inst->data();
    std::vector<Coord> BaseCoords(Acc.tensor().order());
    for (int D = 0; D < Acc.tensor().order(); ++D) {
      int V = OrigIdx[Acc.indices()[D]];
      BaseCoords[D] = std::min(L.VarBase[V],
                               Inst->rect().hi()[D] > 0
                                   ? Inst->rect().hi()[D] - 1
                                   : L.VarBase[V]);
      for (int I = 0; I < NumLeaf; ++I)
        L.AccCoef[A][I] += L.VarCoef[V][I] * Inst->stride(D);
    }
    L.AccBase[A] = Inst->offset(Point(BaseCoords));
    for (int D = 0; D < Acc.tensor().order(); ++D) {
      int V = OrigIdx[Acc.indices()[D]];
      L.AccBase[A] += (L.VarBase[V] - BaseCoords[D]) * Inst->stride(D);
    }
  }

  if (!L.Affine)
    reportFatalError("leaf loops are not affine in the leaf variables; "
                     "rotate must be applied to sequential step loops only");

  // Canonical-layout GeMM substitution (the only fast path the seed had).
  if (P.Nest.Leaf == LeafKernel::GeMM && NumLeaf == 3 && NumAcc == 3 &&
      !L.NeedGuard) {
    const auto &OutC = L.AccCoef[0], &AC = L.AccCoef[1], &BC = L.AccCoef[2];
    bool Canonical = OutC[2] == 0 && OutC[1] == 1 && AC[1] == 0 &&
                     AC[2] == 1 && BC[0] == 0 && BC[2] >= 1 && BC[1] == 1;
    if (Canonical) {
      gemmBlockedReference(
          L.AccData[0] + L.AccBase[0], L.AccData[1] + L.AccBase[1],
          L.AccData[2] + L.AccBase[2], L.LeafExtents[0], L.LeafExtents[1],
          L.LeafExtents[2], OutC[0], AC[0], BC[2]);
      return;
    }
  }

  std::vector<int64_t> CurOff = L.AccBase;
  std::vector<Coord> CurVal = L.VarBase;

  std::function<double(const Expr &, int &)> Eval = [&](const Expr &E,
                                                        int &Cursor) {
    switch (E.kind()) {
    case ExprKind::Access: {
      double V = L.AccData[Cursor][CurOff[Cursor]];
      ++Cursor;
      return V;
    }
    case ExprKind::Literal:
      return E.literal();
    case ExprKind::Add: {
      double LV = Eval(E.lhs(), Cursor);
      return LV + Eval(E.rhs(), Cursor);
    }
    case ExprKind::Mul: {
      double LV = Eval(E.lhs(), Cursor);
      return LV * Eval(E.rhs(), Cursor);
    }
    }
    unreachable("unknown expr kind");
  };

  std::function<void(int)> Loop = [&](int Depth) {
    if (Depth == NumLeaf) {
      if (L.NeedGuard)
        for (int V = 0; V < NumOrig; ++V)
          if (CurVal[V] >= L.VarExtent[V])
            return;
      int Cursor = 1; // Access 0 is the output.
      L.AccData[0][CurOff[0]] += Eval(Stmt.rhs(), Cursor);
      return;
    }
    for (Coord I = 0; I < L.LeafExtents[Depth]; ++I) {
      Loop(Depth + 1);
      for (int A = 0; A < NumAcc; ++A)
        CurOff[A] += L.AccCoef[A][Depth];
      for (int V = 0; V < NumOrig; ++V)
        CurVal[V] += L.VarCoef[V][Depth];
    }
    for (int A = 0; A < NumAcc; ++A)
      CurOff[A] -= L.AccCoef[A][Depth] * L.LeafExtents[Depth];
    for (int V = 0; V < NumOrig; ++V)
      CurVal[V] -= L.VarCoef[V][Depth] * L.LeafExtents[Depth];
  };
  Loop(0);
}
