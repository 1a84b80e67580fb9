//===- tests/ApiTest.cpp - Fig. 2-style public API tests -------*- C++ -*-===//

#include "api/Tensor.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

#include "TestSupport.h"

using namespace distal;

namespace {

Format tiles() {
  return Format({ModeKind::Dense, ModeKind::Dense},
                TensorDistribution::parse("xy->xy"));
}

} // namespace

TEST(Api, Fig2SummaEndToEnd) {
  Machine M = Machine::grid({2, 2});
  Tensor A("A", {16, 16}, tiles()), B("B", {16, 16}, tiles()),
      C("C", {16, 16}, tiles());
  B.fill([](const Point &P) { return P[0] == P[1] ? 2.0 : 0.0; }); // 2*I.
  C.fillRandom(9);

  IndexVar I("i"), J("j"), K("k");
  A(I, J) = B(I, K) * C(K, J);
  IndexVar Io("io"), Ii("ii"), Jo("jo"), Ji("ji"), Ko("ko"), Ki("ki");
  A.schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, M)
      .split(K, Ko, Ki, 8)
      .reorder({Io, Jo, Ko, Ii, Ji, Ki})
      .communicate(A, Jo)
      .communicate({B, C}, Ko)
      .substitute({Ii, Ji, Ki}, LeafKernel::GeMM);
  Trace T = A.evaluateWithTrace(M);
  EXPECT_GT(T.totalFlops(), 0);
  // A = 2*C.
  Rect::forExtents({16, 16}).forEachPoint([&](const Point &P) {
    EXPECT_NEAR(A.at(P), 2.0 * C.region()->at(P), 1e-12);
  });
}

TEST(Api, ExpressionsCompose) {
  Machine M = Machine::grid({2});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  Tensor A("A", {8}, V), B("B", {8}, V), C("C", {8}, V);
  B.fill([](const Point &P) { return static_cast<double>(P[0]); });
  C.fill([](const Point &) { return 1.0; });
  IndexVar I("i"), Io("io"), Ii("ii");
  // a = b + 3*c, element-wise.
  A(I) = B(I) + Expr(3.0) * C(I);
  A.schedule().distribute({I}, {Io}, {Ii}, M);
  A.evaluate(M);
  for (Coord X = 0; X < 8; ++X)
    EXPECT_DOUBLE_EQ(A.at(Point({X})), static_cast<double>(X) + 3.0);
}

TEST(Api, SimulateWithoutData) {
  Machine M = Machine::grid({2, 2});
  Tensor A("A", {64, 64}, tiles()), B("B", {64, 64}, tiles()),
      C("C", {64, 64}, tiles());
  IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji");
  A(I, J) = B(I, K) * C(K, J);
  A.schedule().distribute({I, J}, {Io, Jo}, {Ii, Ji}, M);
  Trace T = A.simulateOn(M);
  EXPECT_DOUBLE_EQ(T.totalFlops(), 2.0 * 64 * 64 * 64);
  EXPECT_EQ(A.region(), nullptr); // No data was materialised.
}

TEST(Api, CompileExposesPlan) {
  Machine M = Machine::grid({4});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  Tensor A("A", {16}, V), B("B", {16}, V);
  IndexVar I("i"), Io("io"), Ii("ii");
  A(I) = Expr(B(I)) * Expr(2.0);
  A.schedule().distribute({I}, {Io}, {Ii}, M);
  Plan P = A.lower(M);
  EXPECT_EQ(P.NumDist, 1);
  EXPECT_EQ(P.launchDomain().volume(), 4);
  // compile() returns the persistent artifact over an equivalent plan.
  std::shared_ptr<CompiledPlan> CP = A.compile(M);
  EXPECT_EQ(CP->plan().NumDist, 1);
  EXPECT_EQ(CP->plan().fingerprint(), P.fingerprint());
}

// Rotating a leaf loop makes the leaf offsets non-affine in the leaf
// variables. Every leaf is bound when the plan compiles, so compilation
// reports it, before any execution.
TEST(ApiError, NonAffineLeafFailsCompilation) {
  Machine M = Machine::grid({2, 2});
  Tensor A("A", {8, 8}, tiles()), B("B", {8, 8}, tiles()),
      C("C", {8, 8}, tiles());
  IndexVar I("i"), J("j"), K("k"), Io("io"), Ii("ii"), Jo("jo"), Ji("ji"),
      Iis("iis");
  A(I, J) = B(I, K) * C(K, J);
  A.schedule()
      .distribute({I, J}, {Io, Jo}, {Ii, Ji}, M)
      .rotate(Ii, {Io, Jo}, Iis);
  StatusOr<std::shared_ptr<CompiledPlan>> CP = A.tryCompile(M);
  ASSERT_FALSE(CP.ok());
  EXPECT_EQ(CP.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(CP.status().message().find("leaf loops are not affine"),
            std::string::npos)
      << CP.status().str();
}

TEST(ApiError, ScheduleBeforeComputationThrows) {
  Tensor A("A", {4, 4}, tiles());
  EXPECT_DISTAL_ERROR(A.schedule(), "no computation");
}

TEST(ApiError, AtBeforeEvaluateThrows) {
  Tensor A("A", {4, 4}, tiles());
  EXPECT_DISTAL_ERROR(A.at(Point({0, 0})), "no data");
}

TEST(ApiError, EvaluateRequiresLiveOperands) {
  Machine M = Machine::grid({2});
  Format V({ModeKind::Dense}, TensorDistribution::parse("x->x"));
  auto A = std::make_unique<Tensor>("A", std::vector<Coord>{8}, V);
  IndexVar I("i"), Io("io"), Ii("ii");
  {
    Tensor B("B", {8}, V);
    (*A)(I) = Expr(B(I));
    A->schedule().distribute({I}, {Io}, {Ii}, M);
    // B is destroyed here.
  }
  EXPECT_DISTAL_ERROR(A->evaluate(M), "not backed by a live");
  // The non-throwing boundary reports the same failure as a Status.
  Status S = A->tryEvaluate(M);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(S.message().find("not backed by a live"), std::string::npos);
}
