//===- tests/haloexchange_test.cpp - §5.1 protocol tests ------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the three-step exchange protocol (edges to four neighbors,
/// then corners relayed through two hops): for every machine shape,
/// boundary kind, border width, and corner flag, the protocol result
/// must be cell-for-cell identical (NaN poisoning included) to the
/// direct global-torus construction — through the copying form, and in
/// place in an array's resident margin, across margin growth, corner
/// re-poisoning and shard blocks. The exchange's byte count is pinned.
///
//===----------------------------------------------------------------------===//

#include "runtime/HaloExchange.h"
#include "obs/Metrics.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include <cmath>
#include <gtest/gtest.h>
#include <memory>
#include <thread>

using namespace cmcc;

namespace {

/// Equality where NaN == NaN (poisoned corners must match exactly).
bool sameCells(ConstSubgridRef A, ConstSubgridRef B, std::string *Where) {
  if (A.rows() != B.rows() || A.cols() != B.cols()) {
    *Where = "shape mismatch";
    return false;
  }
  for (int R = 0; R != A.rows(); ++R)
    for (int C = 0; C != A.cols(); ++C) {
      float X = A.at(R, C), Y = B.at(R, C);
      bool Equal = (std::isnan(X) && std::isnan(Y)) || X == Y;
      if (!Equal) {
        *Where = "(" + std::to_string(R) + "," + std::to_string(C) +
                 "): " + std::to_string(X) + " vs " + std::to_string(Y);
        return false;
      }
    }
  return true;
}

/// One exchange's settings, for the in-place checks below.
struct Exchange {
  int Border;
  BoundaryKind B1, B2;
  bool Corners;
};

/// Checks that every node of \p Local (the block \p D of \p Whole)
/// holds, in place, exactly the padded subgrid the direct construction
/// gives for \p X, and NaN in its margin beyond the border.
void expectResident(const DistributedArray &Whole,
                    const DistributedArray &Local, const PartitionDomain &D,
                    const Exchange &X, const std::string &What) {
  const int M = Local.margin();
  ASSERT_GE(M, X.Border) << What;
  for (int LR = 0; LR != D.LocalRows; ++LR)
    for (int LC = 0; LC != D.LocalCols; ++LC) {
      Array2D Direct = buildPaddedSubgrid(
          Whole, {D.globalRow(LR), D.globalCol(LC)}, X.Border, X.B1, X.B2,
          X.Corners);
      std::string Where;
      EXPECT_TRUE(sameCells(Local.halo({LR, LC}, X.Border), Direct, &Where))
          << What << ": local node (" << LR << "," << LC << ") at " << Where;
      const ConstSubgridRef Full = Local.halo({LR, LC}, M);
      const int D0 = M - X.Border;
      for (int R = 0; R != Full.rows(); ++R)
        for (int C = 0; C != Full.cols(); ++C)
          if (R < D0 || R >= Full.rows() - D0 || C < D0 ||
              C >= Full.cols() - D0) {
            ASSERT_TRUE(std::isnan(Full.at(R, C)))
                << What << ": margin cell (" << R << "," << C
                << ") beyond the border is not poisoned";
          }
    }
}

/// Runs \p X in place on the \p Shards block decomposition of \p Whole
/// through a LocalTransport, one thread per shard, then checks each
/// block. Every block keeps its array across \p Sequence, so later
/// exchanges run on the margins earlier ones left behind.
void expectPartitionedResident(const DistributedArray &Whole, int ShardRows,
                               int ShardCols,
                               const std::vector<Exchange> &Sequence) {
  const NodeGrid &Grid = Whole.grid();
  Expected<ShardGrid> SG =
      makeShardGrid(Grid.rows(), Grid.cols(), ShardRows, ShardCols);
  ASSERT_TRUE(SG);
  LocalTransport LT(*SG);
  const int N = SG->count();
  std::vector<PartitionDomain> Domains;
  std::vector<std::unique_ptr<DistributedArray>> Locals;
  std::vector<std::unique_ptr<HaloTransport>> Endpoints;
  for (int S = 0; S != N; ++S) {
    PartitionDomain D = shardDomain(*SG, S, Grid.rows(), Grid.cols());
    Locals.push_back(std::make_unique<DistributedArray>(
        NodeGrid(D.LocalRows, D.LocalCols), Whole.subRows(),
        Whole.subCols()));
    for (int LR = 0; LR != D.LocalRows; ++LR)
      for (int LC = 0; LC != D.LocalCols; ++LC)
        for (int R = 0; R != Whole.subRows(); ++R)
          std::copy_n(
              Whole.subgrid({D.globalRow(LR), D.globalCol(LC)}).row(R),
              Whole.subCols(), Locals.back()->subgrid({LR, LC}).row(R));
    Domains.push_back(D);
    Endpoints.push_back(LT.endpoint(S));
  }
  for (const Exchange &X : Sequence) {
    std::vector<std::string> Failures(N);
    std::vector<std::thread> Threads;
    for (int S = 0; S != N; ++S)
      Threads.emplace_back([&, S] {
        if (Error E = exchangeHalosPartitioned(
                *Locals[S], Domains[S], Endpoints[S].get(),
                /*SourceIndex=*/0, X.Border, X.B1, X.B2, X.Corners))
          Failures[S] = E.message();
      });
    for (std::thread &T : Threads)
      T.join();
    for (int S = 0; S != N; ++S) {
      ASSERT_EQ(Failures[S], "");
      expectResident(Whole, *Locals[S], Domains[S], X,
                     "shards " + std::to_string(ShardRows) + "x" +
                         std::to_string(ShardCols) + " shard " +
                         std::to_string(S) + " border " +
                         std::to_string(X.Border));
    }
  }
}

} // namespace

struct HaloCase {
  int NodeRows, NodeCols, SubRows, SubCols, Border;
  BoundaryKind B1, B2;
  bool Corners;
};

class HaloProtocolTest : public ::testing::TestWithParam<int> {};

TEST_P(HaloProtocolTest, MatchesDirectConstruction) {
  SplitMix64 Rng(0x4a10 + GetParam());
  const int Shapes[][2] = {{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 4}, {4, 4}};
  auto [NR, NC] = std::pair{Shapes[GetParam() % 6][0],
                            Shapes[GetParam() % 6][1]};
  int SubRows = 2 + static_cast<int>(Rng.nextBelow(6));
  int SubCols = 2 + static_cast<int>(Rng.nextBelow(6));
  int Border = static_cast<int>(
      Rng.nextBelow(std::min(SubRows, SubCols) + 1));
  BoundaryKind B1 =
      Rng.nextBelow(2) ? BoundaryKind::Circular : BoundaryKind::Zero;
  BoundaryKind B2 =
      Rng.nextBelow(2) ? BoundaryKind::Circular : BoundaryKind::Zero;
  bool Corners = Rng.nextBelow(2) != 0;

  NodeGrid Grid(NR, NC);
  DistributedArray A(Grid, SubRows, SubCols);
  Array2D Global(A.globalRows(), A.globalCols());
  Global.fillRandom(GetParam() * 97 + 5);
  A.scatter(Global);

  const std::string Shape = "[grid " + std::to_string(NR) + "x" +
                            std::to_string(NC) + " sub " +
                            std::to_string(SubRows) + "x" +
                            std::to_string(SubCols) + " b1=" +
                            (B1 == BoundaryKind::Zero ? "zero" : "circ") +
                            " b2=" +
                            (B2 == BoundaryKind::Zero ? "zero" : "circ") + "]";

  // The copying form: fresh padded subgrids, A untouched.
  std::vector<Array2D> Protocol = exchangeHalos(A, Border, B1, B2, Corners);
  ASSERT_EQ(Protocol.size(), static_cast<size_t>(Grid.nodeCount()));
  EXPECT_EQ(A.margin(), 0);
  for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
    Array2D Direct = buildPaddedSubgrid(A, Grid.coordOf(Id), Border, B1,
                                        B2, Corners);
    std::string Where;
    EXPECT_TRUE(sameCells(Protocol[Id], Direct, &Where))
        << "node " << Id << " at " << Where << "  " << Shape << " border "
        << Border << " corners=" << Corners;
  }

  // In place, on one array whose margin grows and never shrinks: border
  // 2, then 1, then 3 (clipped to the subgrid), each time checked
  // against the direct construction with the wider ring poisoned; then
  // a corner-fetching exchange followed by a cornerless one, whose
  // corners must read NaN again.
  const int Fit = std::min(SubRows, SubCols);
  const PartitionDomain Whole = PartitionDomain::whole(NR, NC);
  std::vector<Exchange> Sequence;
  for (int B : {2, 1, 3})
    Sequence.push_back({std::min(B, Fit), B1, B2, Corners});
  Sequence.push_back({std::min(2, Fit), B1, B2, /*Corners=*/true});
  Sequence.push_back({std::min(2, Fit), B1, B2, /*Corners=*/false});
  DistributedArray Resident(Grid, SubRows, SubCols);
  Resident.scatter(Global);
  for (const Exchange &X : Sequence) {
    ASSERT_FALSE(exchangeHalosPartitioned(Resident, Whole, nullptr, 0,
                                          X.Border, X.B1, X.B2, X.Corners));
    expectResident(A, Resident, Whole, X,
                   "in place " + Shape + " border " +
                       std::to_string(X.Border) +
                       " corners=" + std::to_string(X.Corners));
  }
  EXPECT_EQ(Resident.margin(), std::min(3, Fit));
  EXPECT_EQ(Array2D::maxAbsDifference(Resident.gather(), Global), 0.0f)
      << "an exchange changed the array's value";

  // The same sequence over 1x2 and 2x2 shard blocks, where block-edge
  // bands cross a LocalTransport.
  if (NC % 2 == 0)
    expectPartitionedResident(A, 1, 2, Sequence);
  if (NR % 2 == 0 && NC % 2 == 0)
    expectPartitionedResident(A, 2, 2, Sequence);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HaloProtocolTest, ::testing::Range(0, 36));

TEST(HaloProtocolTest, CornerDataTravelsTwoHops) {
  // The defining property of the relay: the NE corner pad equals the
  // diagonal neighbor's data even though only N/S/W/E exchanges happen.
  NodeGrid Grid(4, 4);
  DistributedArray A(Grid, 4, 4);
  Array2D Global(16, 16);
  for (int R = 0; R != 16; ++R)
    for (int C = 0; C != 16; ++C)
      Global.at(R, C) = static_cast<float>(R * 100 + C);
  A.scatter(Global);
  std::vector<Array2D> Halos =
      exchangeHalos(A, 2, BoundaryKind::Circular, BoundaryKind::Circular,
                    /*FetchCorners=*/true);
  // Node (1,1) covers rows 4..7, cols 4..7. Its NW corner pad cell
  // (0,0) is global (2,2) — owned by diagonal node (0,0).
  const Array2D &P = Halos[Grid.nodeId({1, 1})];
  EXPECT_EQ(P.at(0, 0), 2 * 100 + 2);
  EXPECT_EQ(P.at(7, 7), 9 * 100 + 9); // SE corner interior edge.
}

TEST(HaloProtocolTest, ZeroBorderIsJustTheSubgrid) {
  NodeGrid Grid(2, 2);
  DistributedArray A(Grid, 3, 3);
  Array2D Global(6, 6);
  Global.fillRandom(1);
  A.scatter(Global);
  std::vector<Array2D> Halos = exchangeHalos(
      A, 0, BoundaryKind::Circular, BoundaryKind::Circular, true);
  for (int Id = 0; Id != 4; ++Id)
    EXPECT_EQ(Array2D::maxAbsDifference(Halos[Id],
                                        A.subgrid(Grid.coordOf(Id))),
              0.0f);
}

TEST(HaloProtocolTest, BytesCountedWhereWritten) {
  // The seismic shape: 4x4 nodes of 128 x 128, border 2, cornerless.
  NodeGrid Grid(4, 4);
  DistributedArray A(Grid, 128, 128);
  Array2D Global(A.globalRows(), A.globalCols());
  Global.fillRandom(9);
  A.scatter(Global);
  obs::Registry &Reg = obs::Registry::process();
  obs::Counter &Bytes = Reg.counter("halo.bytes");
  obs::Counter &Loops = Reg.counter("threadpool.loops_total");
  ThreadPool Pool(2);
  const PartitionDomain Whole = PartitionDomain::whole(4, 4);
  auto BytesOf = [&](auto Exchange) {
    const long Before = Bytes.value();
    Exchange();
    return Bytes.value() - Before;
  };
  auto InPlace = [&] {
    EXPECT_FALSE(exchangeHalosPartitioned(A, Whole, nullptr, 0, 2,
                                          BoundaryKind::Zero,
                                          BoundaryKind::Zero, false));
  };
  // The bands are 16 nodes x 4 sides x 2 x 128 floats: 65,536 B. The
  // first exchange also moves every core (1,048,576 B) into its
  // margin, ...
  EXPECT_EQ(BytesOf(InPlace), 1114112);
  // ... every later one writes the bands only, on the calling thread.
  const long LoopsBefore = Loops.value();
  EXPECT_EQ(BytesOf(InPlace), 65536);
  EXPECT_EQ(Loops.value(), LoopsBefore);
  // The copying form copies the core every time.
  EXPECT_EQ(BytesOf([&] {
              exchangeHalos(A, 2, BoundaryKind::Zero, BoundaryKind::Zero,
                            false, &Pool);
            }),
            1114112);
}
