//===- tests/runtime_test.cpp - Run-time library unit tests ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the run-time library pieces in isolation: arrays,
/// block decomposition, the §5.1 halo fill (boundaries, corner
/// poisoning), strip mining, and the reference evaluator.
///
//===----------------------------------------------------------------------===//

#include "runtime/DistributedArray.h"
#include "runtime/Reference.h"
#include "runtime/StripMiner.h"
#include "stencil/PatternLibrary.h"
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

using namespace cmcc;

//===----------------------------------------------------------------------===//
// Array2D
//===----------------------------------------------------------------------===//

TEST(Array2DTest, BasicAccess) {
  Array2D A(3, 4, 1.5f);
  EXPECT_EQ(A.rows(), 3);
  EXPECT_EQ(A.cols(), 4);
  EXPECT_EQ(A.at(2, 3), 1.5f);
  A.at(1, 2) = -2.0f;
  EXPECT_EQ(A.at(1, 2), -2.0f);
}

TEST(Array2DTest, WrappedAccess) {
  Array2D A(3, 3);
  A.at(0, 0) = 1.0f;
  A.at(2, 2) = 9.0f;
  EXPECT_EQ(A.atWrapped(-1, -1), 9.0f);
  EXPECT_EQ(A.atWrapped(3, 3), 1.0f);
  EXPECT_EQ(A.atWrapped(-3, 0), 1.0f);
}

TEST(Array2DTest, FillRandomDeterministic) {
  Array2D A(8, 8), B(8, 8);
  A.fillRandom(5);
  B.fillRandom(5);
  EXPECT_EQ(Array2D::maxAbsDifference(A, B), 0.0f);
  B.fillRandom(6);
  EXPECT_GT(Array2D::maxAbsDifference(A, B), 0.0f);
}

TEST(Array2DTest, MaxAbsDifferenceEdgeCases) {
  Array2D A(2, 2), B(3, 2);
  EXPECT_TRUE(std::isinf(Array2D::maxAbsDifference(A, B)));
  Array2D C(2, 2), D(2, 2);
  D.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isinf(Array2D::maxAbsDifference(C, D)));
}

//===----------------------------------------------------------------------===//
// DistributedArray
//===----------------------------------------------------------------------===//

TEST(DistributedArrayTest, ScatterGatherRoundTrip) {
  NodeGrid Grid(2, 4);
  DistributedArray A(Grid, 5, 3);
  Array2D Global(10, 12);
  Global.fillRandom(11);
  A.scatter(Global);
  EXPECT_EQ(Array2D::maxAbsDifference(A.gather(), Global), 0.0f);
}

TEST(DistributedArrayTest, BuiltFromUnalignedBytesEqualsScatter) {
  // A grid inside a received frame sits at any byte offset. Build from
  // those bytes on a non-square node grid and compare bit patterns (a
  // signed zero and a NaN with a payload included) with scatter().
  NodeGrid Grid(2, 4);
  constexpr int SubRows = 5, SubCols = 7;
  Array2D Global(2 * SubRows, 4 * SubCols);
  Global.fillRandom(29);
  Global.at(0, 0) = -0.0f;
  const uint32_t PayloadNan = 0x7FA00001u;
  std::memcpy(&Global.at(SubRows, 2 * SubCols + 1), &PayloadNan, 4);
  const size_t Bytes =
      static_cast<size_t>(Global.rows()) * Global.cols() * sizeof(float);
  for (size_t Offset : {1, 2, 3, 5}) {
    SCOPED_TRACE("byte offset " + std::to_string(Offset));
    std::vector<uint8_t> Frame(Offset + Bytes + 1, 0xA5);
    std::memcpy(Frame.data() + Offset, Global.data(), Bytes);
    const DistributedArray FromBytes(Grid, SubRows, SubCols,
                                     Frame.data() + Offset);
    DistributedArray Scattered(Grid, SubRows, SubCols);
    Scattered.scatter(Global);
    for (int NR = 0; NR != Grid.rows(); ++NR)
      for (int NC = 0; NC != Grid.cols(); ++NC)
        for (int R = 0; R != SubRows; ++R)
          EXPECT_EQ(std::memcmp(FromBytes.subgrid({NR, NC}).row(R),
                                Scattered.subgrid({NR, NC}).row(R),
                                SubCols * sizeof(float)),
                    0)
              << "node (" << NR << ", " << NC << ") row " << R;
    // And back out to the same kind of offset.
    std::vector<uint8_t> Out(Offset + Bytes);
    FromBytes.gather(Out.data() + Offset);
    EXPECT_EQ(std::memcmp(Out.data() + Offset, Global.data(), Bytes), 0);
  }
}

TEST(DistributedArrayTest, GlobalAccessMatchesSubgrids) {
  NodeGrid Grid(2, 2);
  DistributedArray A(Grid, 4, 4);
  Array2D Global(8, 8);
  Global.fillRandom(3);
  A.scatter(Global);
  for (int R = 0; R != 8; ++R)
    for (int C = 0; C != 8; ++C)
      EXPECT_EQ(A.atGlobal(R, C), Global.at(R, C));
  EXPECT_EQ(A.subgrid({1, 1}).at(0, 0), Global.at(4, 4));
}

TEST(DistributedArrayTest, DecompositionMatchesFigure1) {
  NodeGrid Grid(4, 4);
  DistributedArray A(Grid, 64, 64);
  std::string Map = A.describeDecomposition("A");
  EXPECT_NE(Map.find("A(1:64,1:64)"), std::string::npos);
  EXPECT_NE(Map.find("A(65:128,129:192)"), std::string::npos);
  EXPECT_NE(Map.find("A(193:256,193:256)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Halo building (§5.1)
//===----------------------------------------------------------------------===//

namespace {

DistributedArray makeCounting(const NodeGrid &Grid, int Sub) {
  DistributedArray A(Grid, Sub, Sub);
  Array2D Global(A.globalRows(), A.globalCols());
  for (int R = 0; R != Global.rows(); ++R)
    for (int C = 0; C != Global.cols(); ++C)
      Global.at(R, C) = static_cast<float>(R * 1000 + C);
  A.scatter(Global);
  return A;
}

} // namespace

TEST(HaloTest, InteriorNodeGetsNeighborData) {
  NodeGrid Grid(4, 4);
  DistributedArray A = makeCounting(Grid, 8);
  Array2D P = buildPaddedSubgrid(A, {1, 1}, 2, BoundaryKind::Circular,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(P.rows(), 12);
  // Center of node (1,1) covers global rows 8..15, cols 8..15.
  EXPECT_EQ(P.at(2, 2), 8 * 1000 + 8);
  // One row above the subgrid: global row 7 (from the north neighbor).
  EXPECT_EQ(P.at(1, 2), 7 * 1000 + 8);
  // Corner: global (6, 6) from the diagonal neighbor.
  EXPECT_EQ(P.at(0, 0), 6 * 1000 + 6);
  // East pad: global col 16.
  EXPECT_EQ(P.at(2, 10), 8 * 1000 + 16);
}

TEST(HaloTest, CircularWrapAtGlobalEdges) {
  NodeGrid Grid(2, 2);
  DistributedArray A = makeCounting(Grid, 4);
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 1, BoundaryKind::Circular,
                                 BoundaryKind::Circular, true);
  // Above global row 0 wraps to global row 7.
  EXPECT_EQ(P.at(0, 1), 7 * 1000 + 0);
  // Left of global col 0 wraps to col 7.
  EXPECT_EQ(P.at(1, 0), 0 * 1000 + 7);
  // Corner wraps both.
  EXPECT_EQ(P.at(0, 0), 7 * 1000 + 7);
}

TEST(HaloTest, ZeroBoundaryPerDimension) {
  NodeGrid Grid(2, 2);
  DistributedArray A = makeCounting(Grid, 4);
  // Dim 1 zero, dim 2 circular.
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 1, BoundaryKind::Zero,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(P.at(0, 1), 0.0f);          // Above the global top: zero.
  EXPECT_EQ(P.at(1, 0), 0 * 1000 + 7);  // Left: circular wrap.
  EXPECT_EQ(P.at(0, 0), 0.0f);          // Corner: row side is outside.
  // The interior node's halo is neighbor data regardless of boundary.
  Array2D Q = buildPaddedSubgrid(A, {1, 0}, 1, BoundaryKind::Zero,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(Q.at(0, 1), 3 * 1000 + 0); // Global row 3 from node (0,0).
}

TEST(HaloTest, SkippedCornersArePoisoned) {
  NodeGrid Grid(2, 2);
  DistributedArray A = makeCounting(Grid, 4);
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 2, BoundaryKind::Circular,
                                 BoundaryKind::Circular,
                                 /*FetchCorners=*/false);
  EXPECT_TRUE(std::isnan(P.at(0, 0)));
  EXPECT_TRUE(std::isnan(P.at(1, 1)));
  EXPECT_TRUE(std::isnan(P.at(0, 7)));
  EXPECT_TRUE(std::isnan(P.at(7, 0)));
  EXPECT_TRUE(std::isnan(P.at(7, 7)));
  // Edges are still fetched.
  EXPECT_FALSE(std::isnan(P.at(0, 3)));
  EXPECT_FALSE(std::isnan(P.at(3, 0)));
}

TEST(HaloTest, SingleNodeMachineWrapsOntoItself) {
  NodeGrid Grid(1, 1);
  DistributedArray A = makeCounting(Grid, 4);
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 1, BoundaryKind::Circular,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(P.at(0, 1), 3 * 1000 + 0); // Row above row 0 is row 3.
}

//===----------------------------------------------------------------------===//
// StripMiner (§5.2–5.3)
//===----------------------------------------------------------------------===//

TEST(StripMinerTest, PaperLength21Example) {
  // "a subgrid one of whose axes is of length 21 might be processed as
  // two strips of width 8, one strip of width 4, and one strip of
  // width 1".
  auto Strips = planStrips(21, {8, 4, 2, 1});
  ASSERT_EQ(Strips.size(), 4u);
  EXPECT_EQ(Strips[0].Width, 8);
  EXPECT_EQ(Strips[1].Width, 8);
  EXPECT_EQ(Strips[2].Width, 4);
  EXPECT_EQ(Strips[3].Width, 1);
  EXPECT_EQ(Strips[3].LeftCol, 20);
}

TEST(StripMinerTest, MissingWidth8FallsBack) {
  // "the run-time library routine would process the subgrid as five
  // strips of width 4 and a strip of width 1" (length 21, widths 4..1).
  auto Strips = planStrips(21, {4, 2, 1});
  ASSERT_EQ(Strips.size(), 6u);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Strips[I].Width, 4);
  EXPECT_EQ(Strips[5].Width, 1);
}

TEST(StripMinerTest, CoverageIsExactAndOrdered) {
  for (int Cols = 1; Cols <= 64; ++Cols) {
    auto Strips = planStrips(Cols, {8, 4, 2, 1});
    int Covered = 0;
    for (const Strip &S : Strips) {
      EXPECT_EQ(S.LeftCol, Covered);
      Covered += S.Width;
    }
    EXPECT_EQ(Covered, Cols);
  }
}

TEST(StripMinerTest, UncoverableReturnsEmpty) {
  EXPECT_TRUE(planStrips(7, {4, 2}).empty());
  EXPECT_FALSE(planStrips(6, {4, 2}).empty());
}

TEST(StripMinerTest, HalfStripsSplitRows) {
  auto Half = planHalfStrips({{0, 8}}, 21, true);
  ASSERT_EQ(Half.size(), 2u);
  EXPECT_EQ(Half[0].RowBegin, 0);
  EXPECT_EQ(Half[0].RowEnd, 10);
  EXPECT_EQ(Half[1].RowBegin, 10);
  EXPECT_EQ(Half[1].RowEnd, 21);
  EXPECT_EQ(Half[0].lines() + Half[1].lines(), 21);
}

TEST(StripMinerTest, FullStripsWhenDisabled) {
  auto Full = planHalfStrips({{0, 8}, {8, 4}}, 16, false);
  ASSERT_EQ(Full.size(), 2u);
  EXPECT_EQ(Full[0].lines(), 16);
}

TEST(StripMinerTest, SingleRowSubgridNotSplit) {
  auto Half = planHalfStrips({{0, 4}}, 1, true);
  ASSERT_EQ(Half.size(), 1u);
  EXPECT_EQ(Half[0].lines(), 1);
}

//===----------------------------------------------------------------------===//
// Reference evaluator
//===----------------------------------------------------------------------===//

TEST(ReferenceTest, IdentityStencil) {
  StencilSpec Spec = makeSpecFromOffsets({{0, 0}});
  Array2D X(4, 4);
  X.fillRandom(9);
  ReferenceBindings B;
  B.Source = &X;
  Array2D R = evaluateReference(Spec, B, 4, 4);
  EXPECT_EQ(Array2D::maxAbsDifference(R, X), 0.0f);
}

TEST(ReferenceTest, ShiftWrapsCircularly) {
  StencilSpec Spec = makeSpecFromOffsets({{-1, 0}});
  Array2D X(3, 1);
  X.at(0, 0) = 1;
  X.at(1, 0) = 2;
  X.at(2, 0) = 3;
  ReferenceBindings B;
  B.Source = &X;
  Array2D R = evaluateReference(Spec, B, 3, 1);
  EXPECT_EQ(R.at(0, 0), 3.0f); // Row -1 wraps to row 2.
  EXPECT_EQ(R.at(1, 0), 1.0f);
}

TEST(ReferenceTest, ZeroBoundary) {
  StencilSpec Spec = makeSpecFromOffsets({{-1, 0}});
  Spec.BoundaryDim1 = BoundaryKind::Zero;
  Array2D X(3, 1, 5.0f);
  ReferenceBindings B;
  B.Source = &X;
  Array2D R = evaluateReference(Spec, B, 3, 1);
  EXPECT_EQ(R.at(0, 0), 0.0f);
  EXPECT_EQ(R.at(1, 0), 5.0f);
}

TEST(ReferenceTest, SignsAndBareTerms) {
  // R = 2*X - C1  (C1 bare, subtracted).
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  Tap D;
  D.At = {0, 0};
  D.Coeff = Coefficient::scalar(2.0);
  Spec.Taps.push_back(D);
  Tap Bare;
  Bare.HasData = false;
  Bare.Coeff = Coefficient::array("C1");
  Bare.Sign = -1.0;
  Spec.Taps.push_back(Bare);

  Array2D X(2, 2, 3.0f), C1(2, 2, 1.0f);
  ReferenceBindings B;
  B.Source = &X;
  B.Coefficients["C1"] = &C1;
  Array2D R = evaluateReference(Spec, B, 2, 2);
  EXPECT_EQ(R.at(0, 0), 5.0f);
}
