//===- tests/RegionFastPathTest.cpp - Strided copy vs reference *- C++ -*-===//
//
// Property tests for the strided gather / reduceBack / writeBack fast paths
// (contiguous-run memcpy / vectorized loops) against the seed's per-point
// reference copies (distal_seed), over random rectangles including empty,
// full-region, and 0-dimensional cases, plus the stripe-limited
// reduceBackRows used by the parallel writeback merge.
//
//===----------------------------------------------------------------------===//

#include "runtime/Region.h"

#include <gtest/gtest.h>

#include "Seed.h"

using namespace distal;

namespace {

/// Deterministic xorshift-style generator, independent of libc rand.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 99991) {}
  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }
  Coord range(Coord Lo, Coord Hi) { // Inclusive bounds.
    return Lo + static_cast<Coord>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
};

Format denseFormat(int Order) {
  std::string Spec(Order, ' ');
  for (int D = 0; D < Order; ++D)
    Spec[D] = static_cast<char>('w' + D);
  return Format(std::vector<ModeKind>(Order, ModeKind::Dense),
                TensorDistribution::parse(Order == 0 ? "->*" : Spec + "->*"));
}

Region makeRegion(const std::string &Name, const std::vector<Coord> &Shape,
                  uint64_t Seed) {
  TensorVar T(Name, Shape);
  Region R(T, denseFormat(static_cast<int>(Shape.size())), Machine::grid({1}));
  R.fillRandom(Seed);
  return R;
}

/// A random (possibly empty, possibly full) sub-rectangle of \p Shape.
Rect randomRect(Rng &G, const std::vector<Coord> &Shape) {
  std::vector<Coord> Lo(Shape.size()), Hi(Shape.size());
  for (size_t D = 0; D < Shape.size(); ++D) {
    Lo[D] = G.range(0, Shape[D]);
    Hi[D] = G.range(0, Shape[D]);
    if (G.next() % 4 != 0 && Hi[D] < Lo[D])
      std::swap(Lo[D], Hi[D]); // Mostly non-empty, sometimes empty.
    if (G.next() % 5 == 0) {   // Sometimes span the full dimension.
      Lo[D] = 0;
      Hi[D] = Shape[D];
    }
  }
  return Rect(Point(Lo), Point(Hi));
}

void expectRegionsEqual(const Region &A, const Region &B) {
  Rect::forExtents(A.shape()).forEachPoint([&](const Point &P) {
    ASSERT_EQ(A.at(P), B.at(P)) << "at " << P.str();
  });
}

void checkShape(const std::vector<Coord> &Shape, uint64_t Seed, int Iters) {
  Rng G(Seed);
  for (int It = 0; It < Iters; ++It) {
    Region Src = makeRegion("S", Shape, Seed + It);
    Rect R = randomRect(G, Shape);

    // gather: fast == per-point.
    Instance Fast = Src.gather(R);
    Instance Ref = seed::gatherPointwise(Src, R);
    EXPECT_EQ(Fast.rect(), Ref.rect());
    R.forEachPoint(
        [&](const Point &P) { ASSERT_EQ(Fast.at(P), Ref.at(P)); });

    // Perturb the instance so write/reduce move non-trivial data.
    R.forEachPoint([&](const Point &P) { Fast.at(P) = Ref.at(P) * 1.5 + 1; });
    R.forEachPoint([&](const Point &P) { Ref.at(P) = Ref.at(P) * 1.5 + 1; });

    Region FastBack = makeRegion("F", Shape, Seed + 1000 + It);
    Region RefBack = makeRegion("R", Shape, Seed + 1000 + It);

    FastBack.reduceBack(Fast);
    seed::reduceBackPointwise(RefBack, Ref);
    expectRegionsEqual(FastBack, RefBack);

    FastBack.writeBack(Fast);
    seed::writeBackPointwise(RefBack, Ref);
    expectRegionsEqual(FastBack, RefBack);

    // reduceBackRows partitioned over arbitrary stripes must equal one
    // whole reduceBack.
    if (!Shape.empty()) {
      Region Striped = makeRegion("T", Shape, Seed + 2000 + It);
      Region Whole = makeRegion("W", Shape, Seed + 2000 + It);
      Coord Rows = Shape[0];
      Coord Cut1 = G.range(0, Rows), Cut2 = G.range(0, Rows);
      if (Cut2 < Cut1)
        std::swap(Cut1, Cut2);
      Striped.reduceBackRows(Fast, 0, Cut1);
      Striped.reduceBackRows(Fast, Cut1, Cut2);
      Striped.reduceBackRows(Fast, Cut2, Rows);
      Whole.reduceBack(Ref);
      expectRegionsEqual(Striped, Whole);
    }
  }
}

} // namespace

TEST(RegionFastPath, OneDim) { checkShape({17}, 101, 50); }

TEST(RegionFastPath, TwoDim) { checkShape({9, 13}, 202, 50); }

TEST(RegionFastPath, ThreeDim) { checkShape({5, 7, 6}, 303, 50); }

TEST(RegionFastPath, FourDim) { checkShape({3, 4, 5, 4}, 404, 25); }

TEST(RegionFastPath, SingleElementDims) { checkShape({1, 8, 1}, 505, 25); }

TEST(RegionFastPath, ZeroDimScalar) {
  // A 0-order tensor: gather/reduce/write of the single scalar element.
  Region Src = makeRegion("s", {}, 7);
  Rect Scalar{Point(), Point()};
  Instance Fast = Src.gather(Scalar);
  Instance Ref = seed::gatherPointwise(Src, Scalar);
  EXPECT_EQ(Fast.at(Point()), Ref.at(Point()));

  Fast.at(Point()) = 2.25;
  Region A = makeRegion("a", {}, 8), B = makeRegion("b", {}, 8);
  A.reduceBack(Fast);
  seed::reduceBackPointwise(B, Fast);
  EXPECT_EQ(A.at(Point()), B.at(Point()));
  A.writeBack(Fast);
  seed::writeBackPointwise(B, Fast);
  EXPECT_EQ(A.at(Point()), B.at(Point()));

  // Scalars belong to the stripe containing row 0.
  Region S1 = makeRegion("c", {}, 9), S2 = makeRegion("d", {}, 9);
  S1.reduceBackRows(Fast, 0, 4);
  S2.reduceBack(Fast);
  EXPECT_EQ(S1.at(Point()), S2.at(Point()));
  S1.reduceBackRows(Fast, 4, 8); // Row 0 not in stripe: no-op.
  EXPECT_EQ(S1.at(Point()), S2.at(Point()));
}

TEST(RegionFastPath, EmptyRect) {
  Region Src = makeRegion("e", {6, 6}, 11);
  Rect Empty(Point({3, 5}), Point({3, 2}));
  Instance I = Src.gather(Empty);
  EXPECT_TRUE(I.rect().isEmpty());
  Region A = makeRegion("f", {6, 6}, 12), B = makeRegion("g", {6, 6}, 12);
  A.reduceBack(I);
  A.writeBack(I);
  expectRegionsEqual(A, B); // Untouched.
}
