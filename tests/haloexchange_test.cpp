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
/// re-poisoning and shard blocks, in any node order. A transport that
/// fails leaves the cores untouched and the retry exact. The exchange's
/// byte count is pinned.
///
//===----------------------------------------------------------------------===//

#include "HaloCheck.h"
#include "obs/Metrics.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include <gtest/gtest.h>

using namespace cmcc;
using namespace cmcc::halocheck;

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
  // corners must read NaN again; then border 0. In process, and over
  // 1x2, 2x1 and 2x2 shard blocks, where block-edge bands cross a
  // LocalTransport.
  const int Fit = std::min(SubRows, SubCols);
  std::vector<Exchange> Sequence;
  for (int B : {2, 1, 3})
    Sequence.push_back({std::min(B, Fit), B1, B2, Corners});
  Sequence.push_back({std::min(2, Fit), B1, B2, /*Corners=*/true});
  Sequence.push_back({std::min(2, Fit), B1, B2, /*Corners=*/false});
  Sequence.push_back({0, B1, B2, Corners});
  expectPartitionedResident(A, 1, 1, Sequence);
  if (NC % 2 == 0)
    expectPartitionedResident(A, 1, 2, Sequence);
  if (NR % 2 == 0)
    expectPartitionedResident(A, 2, 1, Sequence);
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
    Expected<HaloFill> F = beginHaloFill(A, Whole, nullptr, 0, 2,
                                         BoundaryKind::Zero,
                                         BoundaryKind::Zero, false);
    ASSERT_TRUE(F);
    for (int Id = 0; Id != Grid.nodeCount(); ++Id)
      F->fillNode(Id);
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

namespace {

/// Passes WestEast calls through to \p Inner and fails every NorthSouth
/// call, as a link lost between the two steps would.
class FailingNorthSouth : public HaloTransport {
public:
  explicit FailingNorthSouth(std::unique_ptr<HaloTransport> Inner)
      : Inner(std::move(Inner)) {}

  Expected<HaloBlocks> exchange(int SourceIndex, HaloStep Step,
                                const HaloBlocks &Out) override {
    if (Step == HaloStep::NorthSouth)
      return Error::transient("north/south link lost");
    return Inner->exchange(SourceIndex, Step, Out);
  }

private:
  std::unique_ptr<HaloTransport> Inner;
};

} // namespace

TEST(HaloProtocolTest, FailedNorthSouthLeavesCoresAndRetriesExactly) {
  // 2x2 shards of a 4x4 grid, corners fetched: every WestEast call goes
  // through, every NorthSouth call fails.
  NodeGrid Grid(4, 4);
  DistributedArray Whole(Grid, 5, 6);
  Array2D Global(Whole.globalRows(), Whole.globalCols());
  Global.fillRandom(0x5e17);
  Whole.scatter(Global);
  Expected<ShardGrid> SG = makeShardGrid(4, 4, 2, 2);
  ASSERT_TRUE(SG);
  const Exchange X{2, BoundaryKind::Circular, BoundaryKind::Zero, true};
  std::vector<PartitionDomain> Domains;
  std::vector<std::unique_ptr<DistributedArray>> Locals;
  LocalTransport Broken(*SG), Working(*SG);
  std::vector<std::unique_ptr<HaloTransport>> Failing, Retry;
  for (int S = 0; S != SG->count(); ++S) {
    Domains.push_back(shardDomain(*SG, S, 4, 4));
    Locals.push_back(localBlock(Whole, Domains.back()));
    Failing.push_back(
        std::make_unique<FailingNorthSouth>(Broken.endpoint(S)));
    Retry.push_back(Working.endpoint(S));
  }

  auto Failed = beginOnEveryShard(Locals, Domains, Failing, X);
  for (int S = 0; S != SG->count(); ++S) {
    EXPECT_EQ(Failed[S].first, nullptr) << "shard " << S;
    EXPECT_TRUE(Failed[S].second.isTransient()) << "shard " << S;
    EXPECT_EQ(Failed[S].second.message(), "north/south link lost");
    expectCores(Whole, *Locals[S], Domains[S],
                "after the failure, shard " + std::to_string(S));
  }

  auto Retried = beginOnEveryShard(Locals, Domains, Retry, X);
  for (int S = 0; S != SG->count(); ++S) {
    ASSERT_NE(Retried[S].first, nullptr) << Retried[S].second.message();
    for (int Id = 0; Id != Domains[S].localNodeCount(); ++Id)
      Retried[S].first->fillNode(Id);
    expectResident(Whole, *Locals[S], Domains[S], X,
                   "retry, shard " + std::to_string(S));
  }
}
