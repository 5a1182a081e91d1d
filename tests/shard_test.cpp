//===- tests/shard_test.cpp - Sharded execution tests ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharding contract (DESIGN.md §5j), bottom to top:
///
///   * Partition algebra: shard grids must be power-of-two
///     factorizations that tile the node grid exactly, with block-level
///     torus neighbors mirroring the node-level torus.
///   * The partitioned §5.1 fill over LocalTransport must be
///     cell-for-cell identical — NaN-poisoned corners included — to the
///     direct construction, for every split axis, boundary kind, and
///     corner flag. This is the bitwise seam everything above rides on.
///   * ShardedBackend (real worker *processes*, socketpair control +
///     shared-memory rings) must gather results bitwise identical to
///     the unsharded backend for every shard count, including
///     non-square decompositions, multi-source specs, and cornerless
///     stencils whose skipped corner pads never cross the wire, and
///     across runs that reuse a worker's resident arrays.
///   * The fleet degrades transiently: a SIGKILLed worker, an injected
///     exchange abort, or a failed spawn fails only the in-flight run,
///     and the next run (the serving layer's retry) respawns and
///     succeeds with the identical result.
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "core/Compiler.h"
#include "obs/Metrics.h"
#include "runtime/HaloExchange.h"
#include "runtime/HaloTransport.h"
#include "runtime/Partition.h"
#include "shard/ShardedBackend.h"
#include "shard/ShmRing.h"
#include "support/FaultInjection.h"
#include "support/Random.h"
#include <chrono>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

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

/// Identically seeded argument set (same construction as the backend
/// equivalence suite): each run gets its own arrays built from the same
/// seeds, so inputs are bit-identical across sharded and unsharded runs.
struct BoundArrays {
  BoundArrays(const MachineConfig &Config, const StencilSpec &Spec,
              int SubRows, int SubCols, uint64_t Seed)
      : Grid(Config), R(Grid, SubRows, SubCols) {
    Args.Result = &R;
    auto MakeArray = [&](uint64_t S) {
      auto A = std::make_unique<DistributedArray>(Grid, SubRows, SubCols);
      Array2D G(R.globalRows(), R.globalCols());
      G.fillRandom(S);
      A->scatter(G);
      Owned.push_back(std::move(A));
      return Owned.back().get();
    };
    Args.Source = MakeArray(Seed);
    for (size_t I = 0; I != Spec.ExtraSources.size(); ++I)
      Args.ExtraSources[Spec.ExtraSources[I]] = MakeArray(Seed + 31 * (I + 1));
    std::vector<std::string> CoeffNames = Spec.coefficientArrayNames();
    for (size_t I = 0; I != CoeffNames.size(); ++I)
      Args.Coefficients[CoeffNames[I]] = MakeArray(Seed + 5000 + I);
  }

  NodeGrid Grid;
  DistributedArray R;
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  StencilArguments Args;
};

/// Five-point cross with array coefficients: no diagonal taps, so the
/// compiler skips corner fetches and the corner pads stay NaN-poisoned.
StencilSpec crossSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  const int Offsets[][2] = {{0, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}};
  for (int I = 0; I != 5; ++I) {
    Tap T;
    T.At.Dy = Offsets[I][0];
    T.At.Dx = Offsets[I][1];
    std::string Name = "C";
    Name += std::to_string(I);
    T.Coeff = Coefficient::array(Name);
    Spec.Taps.push_back(std::move(T));
  }
  return Spec;
}

/// Diagonal taps force the full corner relay (two hops, including
/// across the process boundary).
StencilSpec corneredSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  const int Offsets[][2] = {{0, 0}, {1, 1}, {-1, -1}, {1, -1}, {-2, 0}};
  for (int I = 0; I != 5; ++I) {
    Tap T;
    T.At.Dy = Offsets[I][0];
    T.At.Dx = Offsets[I][1];
    T.Sign = I % 2 ? -1.0 : 1.0;
    std::string Name = "C";
    Name += std::to_string(I);
    T.Coeff = Coefficient::array(Name);
    Spec.Taps.push_back(std::move(T));
  }
  return Spec;
}

/// Two sources, mixed scalar/array coefficients, and a bare tap: every
/// slot kind the coordinator ships (sources, taps, none) in one spec.
StencilSpec multiSourceSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X0";
  Spec.ExtraSources.push_back("X1");
  const struct {
    int Dy, Dx, Src;
    bool ArrayCoeff;
  } Taps[] = {{0, 0, 0, true},   {0, 1, 1, true},  {1, 0, 0, false},
              {-1, 0, 1, true},  {0, -1, 0, true}};
  int I = 0;
  for (const auto &D : Taps) {
    Tap T;
    T.At.Dy = D.Dy;
    T.At.Dx = D.Dx;
    T.SourceIndex = D.Src;
    T.Sign = I % 2 ? -1.0 : 1.0;
    std::string Name = "C";
    Name += std::to_string(I);
    T.Coeff = D.ArrayCoeff ? Coefficient::array(Name)
                           : Coefficient::scalar(0.25f);
    Spec.Taps.push_back(std::move(T));
    ++I;
  }
  Tap Bare;
  Bare.HasData = false;
  Bare.Coeff = Coefficient::array("CBARE");
  Spec.Taps.push_back(std::move(Bare));
  return Spec;
}

CompiledStencil compileSpec(const MachineConfig &Config,
                            const StencilSpec &Spec) {
  ConvolutionCompiler CC(Config);
  CC.setAllowMultipleSources(true);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  EXPECT_TRUE(Compiled) << (Compiled ? "" : Compiled.error().message());
  return *Compiled;
}

} // namespace

//===----------------------------------------------------------------------===//
// Ring waits and peer death
//===----------------------------------------------------------------------===//

namespace {

/// A child process that exits at once. It is left unreaped, as a
/// SIGKILLed worker is until its coordinator reaps it.
pid_t exitedChild() {
  const pid_t Pid = ::fork();
  if (Pid == 0)
    ::_exit(0);
  siginfo_t Info{};
  while (Info.si_pid != Pid) {
    Info = siginfo_t{};
    ::waitid(P_PID, static_cast<id_t>(Pid), &Info, WEXITED | WNOWAIT);
  }
  return Pid;
}

} // namespace

TEST(ShmRingTest, WaitOnAnExitedPeerEndsWithoutTheDeadline) {
  // A ring wait on a peer that is gone fails transiently at its next
  // sleep step, far inside a 60 s deadline, and leaves the peer for its
  // owner to reap.
  for (shard::RingDir Dir :
       {shard::RingDir::ToCoordinator, shard::RingDir::ToWorker}) {
    Expected<shard::ShmRing> Ring = shard::ShmRing::create(64, 60000);
    ASSERT_TRUE(Ring) << Ring.error().message();
    const pid_t Peer = exitedChild();
    Ring->setPeer(Peer);
    std::vector<uint8_t> Buf(128);
    const auto Start = std::chrono::steady_clock::now();
    // The read finds no data; the write fills the 64-byte ring and
    // then finds no room.
    Error E = Dir == shard::RingDir::ToCoordinator
                  ? Ring->read(Dir, Buf.data(), Buf.size())
                  : Ring->write(Dir, Buf.data(), Buf.size());
    const double Seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - Start)
                               .count();
    ASSERT_TRUE(E);
    EXPECT_TRUE(E.isTransient()) << E.message();
    EXPECT_NE(E.message().find("peer process exited"), std::string::npos)
        << E.message();
    EXPECT_LT(Seconds, 5.0);
    EXPECT_EQ(::waitpid(Peer, nullptr, 0), Peer);
  }
}

TEST(ShmRingTest, WaitOnALivePeerStillEndsAtTheDeadline) {
  Expected<shard::ShmRing> Ring = shard::ShmRing::create(64, 200);
  ASSERT_TRUE(Ring) << Ring.error().message();
  Ring->setPeer(::getpid());
  uint8_t Byte = 0;
  Error E = Ring->read(shard::RingDir::ToCoordinator, &Byte, 1);
  ASSERT_TRUE(E);
  EXPECT_TRUE(E.isTransient());
  EXPECT_NE(E.message().find("timed out"), std::string::npos)
      << E.message();
}

TEST(ShmRingTest, BytesWrittenBeforeThePeerExitedAreStillRead) {
  // The peer writes and exits before the reader looks: the reader gets
  // every byte, and only a wait for more after that fails.
  Expected<shard::ShmRing> Ring = shard::ShmRing::create(64, 60000);
  ASSERT_TRUE(Ring) << Ring.error().message();
  const uint8_t Sent[32] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const pid_t Peer = ::fork();
  if (Peer == 0)
    ::_exit(Ring->write(shard::RingDir::ToCoordinator, Sent, sizeof(Sent))
                ? 1
                : 0);
  siginfo_t Info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(Peer), &Info,
                     WEXITED | WNOWAIT),
            0);
  ASSERT_EQ(Info.si_status, 0);
  Ring->setPeer(Peer);
  uint8_t Got[sizeof(Sent)] = {};
  Error E = Ring->read(shard::RingDir::ToCoordinator, Got, sizeof(Got));
  ASSERT_FALSE(E) << E.message();
  EXPECT_EQ(std::memcmp(Got, Sent, sizeof(Sent)), 0);
  E = Ring->read(shard::RingDir::ToCoordinator, Got, 1);
  ASSERT_TRUE(E);
  EXPECT_NE(E.message().find("peer process exited"), std::string::npos)
      << E.message();
  EXPECT_EQ(::waitpid(Peer, nullptr, 0), Peer);
}

TEST(ShmRingTest, AttachedWorkerStopsWaitingOnceItsCoordinatorExits) {
  // The worker side: attach() names the parent as the peer. Here an
  // intermediate process plays the coordinator, spawns the worker,
  // waits until it has attached and exits; the worker's ring wait then
  // ends far inside its 60 s deadline and reports why over a pipe.
  Expected<shard::ShmRing> Ring = shard::ShmRing::create(64, 60000);
  ASSERT_TRUE(Ring) << Ring.error().message();
  int Attached[2], Outcome[2];
  ASSERT_EQ(::pipe(Attached), 0);
  ASSERT_EQ(::pipe(Outcome), 0);
  const pid_t Coordinator = ::fork();
  ASSERT_GE(Coordinator, 0);
  if (Coordinator == 0) {
    if (::fork() == 0) {
      Expected<shard::ShmRing> Mine = shard::ShmRing::attach(Ring->fd(), 60000);
      char Ready = 1;
      if (!Mine || ::write(Attached[1], &Ready, 1) != 1)
        ::_exit(1);
      const auto Start = std::chrono::steady_clock::now();
      uint8_t Byte = 0;
      Error E = Mine->read(shard::RingDir::ToWorker, &Byte, 1);
      const bool Early = std::chrono::steady_clock::now() - Start <
                         std::chrono::seconds(5);
      char Verdict = E && E.isTransient() && Early &&
                             E.message().find("peer process exited") !=
                                 std::string::npos
                         ? 'y'
                         : 'n';
      ::_exit(::write(Outcome[1], &Verdict, 1) == 1 ? 0 : 1);
    }
    ::close(Attached[1]);
    char Ready = 0;
    ::_exit(::read(Attached[0], &Ready, 1) == 1 ? 0 : 1);
  }
  ::close(Attached[1]);
  ::close(Outcome[1]);
  int Status = 0;
  ASSERT_EQ(::waitpid(Coordinator, &Status, 0), Coordinator);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  char Verdict = 0;
  EXPECT_EQ(::read(Outcome[0], &Verdict, 1), 1);
  EXPECT_EQ(Verdict, 'y');
  ::close(Attached[0]);
  ::close(Outcome[0]);
}

//===----------------------------------------------------------------------===//
// Partition algebra
//===----------------------------------------------------------------------===//

TEST(PartitionTest, MakeShardGridValidatesDimensions) {
  Expected<ShardGrid> Ok = makeShardGrid(4, 4, 2, 2);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Ok->Rows, 2);
  EXPECT_EQ(Ok->Cols, 2);
  EXPECT_EQ(Ok->count(), 4);
  EXPECT_TRUE(makeShardGrid(4, 4, 1, 1));
  EXPECT_TRUE(makeShardGrid(2, 4, 1, 4));
  EXPECT_TRUE(makeShardGrid(4, 4, 4, 4));

  // Non-power-of-two dimensions are rejected before divisibility.
  Expected<ShardGrid> Bad = makeShardGrid(4, 4, 3, 1);
  ASSERT_FALSE(Bad);
  EXPECT_NE(Bad.error().message().find("power-of-two"), std::string::npos);
  // Power of two but larger than the grid.
  EXPECT_FALSE(makeShardGrid(4, 4, 8, 1));
  EXPECT_FALSE(makeShardGrid(4, 4, 1, 8));
  EXPECT_FALSE(makeShardGrid(4, 4, 0, 2));
}

TEST(PartitionTest, ChooseShardGridKeepsBlocksNearSquare) {
  // Splits the axis with the larger per-shard extent first.
  Expected<ShardGrid> G = chooseShardGrid(4, 4, 4);
  ASSERT_TRUE(G);
  EXPECT_EQ(G->Rows, 2);
  EXPECT_EQ(G->Cols, 2);

  G = chooseShardGrid(2, 8, 4);
  ASSERT_TRUE(G);
  EXPECT_EQ(G->Rows, 1);
  EXPECT_EQ(G->Cols, 4);

  G = chooseShardGrid(4, 4, 1);
  ASSERT_TRUE(G);
  EXPECT_EQ(G->count(), 1);

  // 16 shards on a 4x4 grid: one node per shard, no further.
  ASSERT_TRUE(chooseShardGrid(4, 4, 16));
  EXPECT_FALSE(chooseShardGrid(4, 4, 32));
  EXPECT_FALSE(chooseShardGrid(4, 4, 3));
}

TEST(PartitionTest, ShardDomainsTileTheNodeGrid) {
  const int NR = 4, NC = 8;
  Expected<ShardGrid> SG = makeShardGrid(NR, NC, 2, 4);
  ASSERT_TRUE(SG);
  std::vector<int> Owner(NR * NC, -1);
  for (int S = 0; S != SG->count(); ++S) {
    PartitionDomain D = shardDomain(*SG, S, NR, NC);
    EXPECT_EQ(D.LocalRows, NR / SG->Rows);
    EXPECT_EQ(D.LocalCols, NC / SG->Cols);
    EXPECT_EQ(D.GlobalRows, NR);
    EXPECT_EQ(D.GlobalCols, NC);
    EXPECT_EQ(D.localNodeCount(), D.LocalRows * D.LocalCols);
    EXPECT_FALSE(D.wholeGrid());
    for (int R = 0; R != D.LocalRows; ++R)
      for (int C = 0; C != D.LocalCols; ++C) {
        int At = D.globalRow(R) * NC + D.globalCol(C);
        ASSERT_GE(At, 0);
        ASSERT_LT(At, NR * NC);
        EXPECT_EQ(Owner[At], -1) << "node covered twice";
        Owner[At] = S;
      }
  }
  for (int At = 0; At != NR * NC; ++At)
    EXPECT_NE(Owner[At], -1) << "node " << At << " uncovered";

  // The single-shard domain is the whole grid: both axes wrap locally
  // and the transport is never consulted.
  Expected<ShardGrid> One = makeShardGrid(NR, NC, 1, 1);
  ASSERT_TRUE(One);
  EXPECT_TRUE(shardDomain(*One, 0, NR, NC).wholeGrid());
  EXPECT_EQ(shardDomain(*One, 0, NR, NC), PartitionDomain::whole(NR, NC));
}

TEST(PartitionTest, ShardTorusNeighborsWrap) {
  ShardGrid SG{2, 4};
  // Shard 0 is (0,0); east walks the row, wrapping at the end.
  EXPECT_EQ(SG.eastOf(0), 1);
  EXPECT_EQ(SG.eastOf(3), 0);
  EXPECT_EQ(SG.westOf(0), 3);
  // North/south wrap between the two rows.
  EXPECT_EQ(SG.southOf(0), 4);
  EXPECT_EQ(SG.southOf(4), 0);
  EXPECT_EQ(SG.northOf(0), 4);
  // Row-major ids round-trip.
  for (int S = 0; S != SG.count(); ++S)
    EXPECT_EQ(SG.shardId(SG.rowOf(S), SG.colOf(S)), S);
  // Degenerate single-shard torus: every neighbor is itself.
  ShardGrid One{1, 1};
  EXPECT_EQ(One.westOf(0), 0);
  EXPECT_EQ(One.northOf(0), 0);
}

TEST(PartitionTest, ShardMachineConfigNarrowsOnlyTheGrid) {
  MachineConfig Global = MachineConfig::withNodeGrid(4, 4);
  PartitionDomain D = shardDomain(ShardGrid{2, 2}, 3, 4, 4);
  MachineConfig Local = shardMachineConfig(Global, D);
  EXPECT_EQ(Local.NodeRows, 2);
  EXPECT_EQ(Local.NodeCols, 2);
  // Every timing constant must be copied verbatim: a worker's per-node
  // cycle accounting must match the unsharded machine's.
  EXPECT_EQ(Local.ClockMHz, Global.ClockMHz);
  EXPECT_EQ(Local.NumRegisters, Global.NumRegisters);
  EXPECT_EQ(Local.CommStartupCycles, Global.CommStartupCycles);
  EXPECT_EQ(Local.CommCyclesPerElement, Global.CommCyclesPerElement);
  EXPECT_EQ(Local.CornerStartupCycles, Global.CornerStartupCycles);
  EXPECT_EQ(Local.SequencerCyclesPerOp, Global.SequencerCyclesPerOp);
  EXPECT_EQ(Local.ScratchMemoryParts, Global.ScratchMemoryParts);
}

//===----------------------------------------------------------------------===//
// The partitioned exchange over LocalTransport is bitwise the
// whole-grid protocol
//===----------------------------------------------------------------------===//

struct TransportCase {
  int NodeRows, NodeCols, ShardRows, ShardCols, SubRows, SubCols, Border;
  BoundaryKind B1, B2;
  bool Corners;
};

static const TransportCase TransportCases[] = {
    // Both axes split, corners relayed across two process hops.
    {4, 4, 2, 2, 4, 5, 2, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Column axis split only; cornerless (pads must stay NaN).
    {4, 4, 1, 2, 3, 4, 1, BoundaryKind::Circular, BoundaryKind::Circular,
     false},
    // Row axis split only; cornerless.
    {4, 4, 4, 1, 4, 3, 2, BoundaryKind::Circular, BoundaryKind::Circular,
     false},
    // Zero boundaries cross shard edges at the global grid border.
    {4, 4, 2, 2, 4, 4, 1, BoundaryKind::Zero, BoundaryKind::Circular, true},
    {4, 4, 2, 2, 4, 4, 2, BoundaryKind::Zero, BoundaryKind::Zero, false},
    // One node per shard: every neighbor is remote.
    {2, 4, 2, 4, 5, 4, 2, BoundaryKind::Circular, BoundaryKind::Zero, true},
    // Single node row; the split axis wraps through the transport.
    {1, 4, 1, 4, 3, 6, 2, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Single shard: degenerates to the in-process exchange.
    {4, 4, 1, 1, 4, 4, 1, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Zero border: no exchange at all, any decomposition.
    {4, 4, 2, 2, 3, 3, 0, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Border equal to the subgrid dimension (the widest legal halo).
    {4, 4, 2, 2, 3, 3, 3, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
};

class LocalTransportTest : public ::testing::TestWithParam<int> {};

TEST_P(LocalTransportTest, PartitionedExchangeMatchesWholeGrid) {
  const TransportCase &TC = TransportCases[GetParam()];
  SCOPED_TRACE("shards " + std::to_string(TC.ShardRows) + "x" +
               std::to_string(TC.ShardCols) + " border " +
               std::to_string(TC.Border) +
               (TC.Corners ? " corners" : " cornerless"));

  NodeGrid Grid(TC.NodeRows, TC.NodeCols);
  DistributedArray A(Grid, TC.SubRows, TC.SubCols);
  Array2D Global(A.globalRows(), A.globalCols());
  Global.fillRandom(0x5a4d + GetParam());
  A.scatter(Global);

  Expected<ShardGrid> SG =
      makeShardGrid(TC.NodeRows, TC.NodeCols, TC.ShardRows, TC.ShardCols);
  ASSERT_TRUE(SG);
  LocalTransport LT(*SG);

  // Each shard runs the partitioned protocol over its own block in its
  // own thread (endpoint exchanges are all-shard rendezvous).
  const int N = SG->count();
  std::vector<std::unique_ptr<DistributedArray>> Locals(N);
  std::vector<std::string> Failures(N);
  std::vector<std::unique_ptr<HaloTransport>> Endpoints;
  for (int S = 0; S != N; ++S)
    Endpoints.push_back(LT.endpoint(S));
  {
    std::vector<std::thread> Threads;
    for (int S = 0; S != N; ++S)
      Threads.emplace_back([&, S] {
        PartitionDomain D =
            shardDomain(*SG, S, TC.NodeRows, TC.NodeCols);
        NodeGrid LG(D.LocalRows, D.LocalCols);
        Locals[S] = std::make_unique<DistributedArray>(LG, TC.SubRows,
                                                       TC.SubCols);
        DistributedArray &Local = *Locals[S];
        Array2D Slice(D.LocalRows * TC.SubRows, D.LocalCols * TC.SubCols);
        for (int R = 0; R != Slice.rows(); ++R)
          for (int C = 0; C != Slice.cols(); ++C)
            Slice.at(R, C) =
                Global.at(D.NodeRowBegin * TC.SubRows + R,
                          D.NodeColBegin * TC.SubCols + C);
        Local.scatter(Slice);
        Expected<HaloFill> F =
            beginHaloFill(Local, D, Endpoints[S].get(), /*SourceIndex=*/0,
                          TC.Border, TC.B1, TC.B2, TC.Corners);
        if (!F) {
          Failures[S] = F.error().message();
          return;
        }
        for (int Id = 0; Id != D.localNodeCount(); ++Id)
          F->fillNode(Id);
      });
    for (std::thread &T : Threads)
      T.join();
  }

  for (int S = 0; S != N; ++S)
    ASSERT_EQ(Failures[S], "") << "shard " << S;

  for (int S = 0; S != N; ++S) {
    PartitionDomain D = shardDomain(*SG, S, TC.NodeRows, TC.NodeCols);
    ASSERT_EQ(Locals[S]->grid().nodeCount(), D.localNodeCount());
    for (int LR = 0; LR != D.LocalRows; ++LR)
      for (int LC = 0; LC != D.LocalCols; ++LC) {
        const ConstSubgridRef P = Locals[S]->halo({LR, LC}, TC.Border);
        Array2D Direct = buildPaddedSubgrid(
            A, {D.globalRow(LR), D.globalCol(LC)}, TC.Border, TC.B1, TC.B2,
            TC.Corners);
        std::string Where;
        EXPECT_TRUE(sameCells(P, Direct, &Where))
            << "shard " << S << " local node (" << LR << "," << LC
            << ") at " << Where;
        // The NaN poison of skipped corners survives the transport: a
        // cornerless exchange never ships the corner pads at all.
        if (!TC.Corners && TC.Border > 0) {
          EXPECT_TRUE(std::isnan(P.at(0, 0)));
          EXPECT_TRUE(std::isnan(P.at(P.rows() - 1, P.cols() - 1)));
        }
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalTransportTest,
    ::testing::Range(0, static_cast<int>(std::size(TransportCases))));

//===----------------------------------------------------------------------===//
// Worker processes: sharded runs are bitwise the unsharded run
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Compiled unsharded on \p Inner and under every requested
/// decomposition, asserting the gathered results are bitwise identical.
void expectShardedMatchesUnsharded(
    const MachineConfig &Config, const StencilSpec &Spec,
    const CompiledStencil &Compiled, const char *Inner,
    const std::vector<std::pair<int, int>> &ShardShapes, int SubRows,
    int SubCols, int Iterations, uint64_t Seed) {
  BoundArrays Plain(Config, Spec, SubRows, SubCols, Seed);
  std::unique_ptr<ExecutionBackend> Unsharded = createBackend(Inner, Config);
  ASSERT_NE(Unsharded, nullptr);
  Expected<TimingReport> Base =
      Unsharded->run(Compiled, Plain.Args, Iterations);
  ASSERT_TRUE(Base) << Base.error().message();
  Array2D Want = Plain.R.gather();

  for (auto [SR, SC] : ShardShapes) {
    SCOPED_TRACE(std::string(Inner) + " shards " + std::to_string(SR) + "x" +
                 std::to_string(SC));
    shard::ShardedBackend::Options O;
    O.ShardRows = SR;
    O.ShardCols = SC;
    O.Shards = SR * SC;
    O.InnerBackend = Inner;
    shard::ShardedBackend B(Config, std::move(O));
    ASSERT_TRUE(B.valid());
    EXPECT_EQ(B.shardGrid().Rows, SR);
    EXPECT_EQ(B.shardGrid().Cols, SC);

    BoundArrays Side(Config, Spec, SubRows, SubCols, Seed);
    Expected<TimingReport> Got = B.run(Compiled, Side.Args, Iterations);
    ASSERT_TRUE(Got) << Got.error().message();
    Array2D Result = Side.R.gather();
    ASSERT_EQ(Result.rows(), Want.rows());
    ASSERT_EQ(Result.cols(), Want.cols());
    EXPECT_EQ(std::memcmp(Want.data(), Result.data(),
                          sizeof(float) * Want.rows() * Want.cols()),
              0)
        << "sharded result diverged; max |diff| "
        << Array2D::maxAbsDifference(Want, Result);
    // The merged report spans the whole machine, not one block.
    EXPECT_EQ(Got->Nodes, Config.NodeRows * Config.NodeCols);

    // The unsharded run left Plain's sources inside halo margins, so
    // this run scatters pitched rows; it must compute the same bits.
    ASSERT_TRUE(B.run(Compiled, Plain.Args, Iterations));
    const Array2D Again = Plain.R.gather();
    EXPECT_EQ(std::memcmp(Want.data(), Again.data(),
                          sizeof(float) * Want.rows() * Want.cols()),
              0)
        << "sharded run over margin-carrying sources diverged";
  }
}

} // namespace

class ShardProcessTest : public ::testing::Test {
protected:
  void SetUp() override {
    fault::Registry::process().reset();
    fault::Registry::process().setSeed(0);
  }
  void TearDown() override { fault::Registry::process().reset(); }
};

TEST_F(ShardProcessTest, Cm2BitwiseAcrossShardCounts) {
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  expectShardedMatchesUnsharded(Config, Spec, Compiled, "cm2",
                                {{1, 1}, {1, 2}, {2, 2}, {4, 1}},
                                /*SubRows=*/6, /*SubCols=*/7,
                                /*Iterations=*/2, /*Seed=*/0x51a9d);
}

TEST_F(ShardProcessTest, NativeBitwiseAcrossShardCounts) {
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  expectShardedMatchesUnsharded(Config, Spec, Compiled, "native",
                                {{1, 2}, {2, 2}, {4, 1}},
                                /*SubRows=*/6, /*SubCols=*/7,
                                /*Iterations=*/2, /*Seed=*/0x9a71e);
}

TEST_F(ShardProcessTest, NjitBitwiseAcrossShardCounts) {
  if (!isBackendAvailable("njit"))
    GTEST_SKIP() << "no host toolchain for njit";
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  expectShardedMatchesUnsharded(Config, Spec, Compiled, "njit",
                                {{1, 2}, {2, 2}, {4, 1}},
                                /*SubRows=*/6, /*SubCols=*/7,
                                /*Iterations=*/2, /*Seed=*/0x71e5a);
}

TEST_F(ShardProcessTest, CornerlessStencilMatchesUnshardedOnBothBackends) {
  // No diagonal taps: the skipped corner pads never cross the wire, and
  // the run still agrees bitwise (a leaked NaN would poison the sums).
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = crossSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  expectShardedMatchesUnsharded(Config, Spec, Compiled, "cm2", {{2, 2}},
                                /*SubRows=*/5, /*SubCols=*/6,
                                /*Iterations=*/2, /*Seed=*/0xc0f3);
  expectShardedMatchesUnsharded(Config, Spec, Compiled, "native", {{2, 2}},
                                /*SubRows=*/5, /*SubCols=*/6,
                                /*Iterations=*/2, /*Seed=*/0xc0f4);
}

TEST_F(ShardProcessTest, MultiSourceCoefficientArraysAcrossTheWire) {
  // Two sources, array and scalar coefficients, and a bare tap: every
  // slot the coordinator ships, deduplicated by array identity.
  MachineConfig Config = MachineConfig::withNodeGrid(2, 4);
  StencilSpec Spec = multiSourceSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  expectShardedMatchesUnsharded(Config, Spec, Compiled, "cm2",
                                {{1, 2}, {2, 2}},
                                /*SubRows=*/4, /*SubCols=*/5,
                                /*Iterations=*/1, /*Seed=*/0xab1e);
}

TEST_F(ShardProcessTest, ResidentSlotsFollowNewDataAndShapes) {
  // A worker keeps each slot's array while the subgrid shape holds. One
  // fleet runs job A, A on new data, another subgrid shape, then A again;
  // every run must be bitwise the unsharded run.
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  const struct {
    int SubRows, SubCols;
    uint64_t Seed;
  } Jobs[] = {{6, 7, 0x51a7}, {6, 7, 0x9e3}, {5, 5, 0x51a7}, {6, 7, 0x51a7}};
  for (const char *Inner : {"cm2", "native"}) {
    std::unique_ptr<ExecutionBackend> Unsharded =
        createBackend(Inner, Config);
    ASSERT_NE(Unsharded, nullptr);
    shard::ShardedBackend::Options O;
    O.ShardRows = O.ShardCols = 2;
    O.Shards = 4;
    O.InnerBackend = Inner;
    shard::ShardedBackend B(Config, std::move(O));
    ASSERT_TRUE(B.valid());
    for (const auto &J : Jobs) {
      SCOPED_TRACE(std::string(Inner) + " subgrid " +
                   std::to_string(J.SubRows) + "x" +
                   std::to_string(J.SubCols) + " seed " +
                   std::to_string(J.Seed));
      BoundArrays Plain(Config, Spec, J.SubRows, J.SubCols, J.Seed);
      ASSERT_TRUE(Unsharded->run(Compiled, Plain.Args, 1));
      BoundArrays Side(Config, Spec, J.SubRows, J.SubCols, J.Seed);
      Expected<TimingReport> Got = B.run(Compiled, Side.Args, 1);
      ASSERT_TRUE(Got) << Got.error().message();
      const Array2D Want = Plain.R.gather(), Result = Side.R.gather();
      EXPECT_EQ(std::memcmp(Want.data(), Result.data(),
                            sizeof(float) * Want.rows() * Want.cols()),
                0)
          << "max |diff| " << Array2D::maxAbsDifference(Want, Result);
    }
  }
}

TEST_F(ShardProcessTest, NameAndClockFollowInnerBackend) {
  // Plan fingerprints must not fork on process topology: the sharded
  // backend reports the inner backend's identity.
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  shard::ShardedBackend::Options Cm2Opts;
  Cm2Opts.ShardRows = Cm2Opts.ShardCols = 2;
  shard::ShardedBackend Cm2(Config, Cm2Opts);
  EXPECT_STREQ(Cm2.name(), "cm2");
  EXPECT_FALSE(Cm2.reportsWallClock());

  shard::ShardedBackend::Options NativeOpts;
  NativeOpts.ShardRows = NativeOpts.ShardCols = 2;
  NativeOpts.InnerBackend = "native";
  shard::ShardedBackend Native(Config, NativeOpts);
  EXPECT_STREQ(Native.name(), "native");
  EXPECT_TRUE(Native.reportsWallClock());
}

TEST_F(ShardProcessTest, InvalidDecompositionFailsEveryRunWithExplanation) {
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  shard::ShardedBackend::Options O;
  O.ShardRows = 3; // Not a power of two.
  O.ShardCols = 1;
  shard::ShardedBackend B(Config, O);
  EXPECT_FALSE(B.valid());
  StencilSpec Spec = crossSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  BoundArrays Side(Config, Spec, 4, 4, 1);
  Expected<TimingReport> R = B.run(Compiled, Side.Args, 1);
  ASSERT_FALSE(R);
  // A bad decomposition is a configuration error, not a transient one:
  // retrying cannot help.
  EXPECT_FALSE(R.error().isTransient());
  EXPECT_NE(R.error().message().find("power-of-two"), std::string::npos)
      << R.error().message();
}

TEST_F(ShardProcessTest, WorkerDeathIsTransientAndRespawns) {
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  shard::ShardedBackend::Options O;
  O.ShardRows = O.ShardCols = 2;
  shard::ShardedBackend B(Config, O);

  // Baseline run: spawns the fleet and records the expected result.
  BoundArrays First(Config, Spec, 5, 5, 0xdead);
  ASSERT_TRUE(B.run(Compiled, First.Args, 2));
  Array2D Want = First.R.gather();

  obs::Registry &Reg = obs::Registry::process();
  const long DeathsBefore = Reg.counter("shard.deaths").value();
  const long RespawnsBefore = Reg.counter("shard.respawns").value();

  // One relay round SIGKILLs a worker. The in-flight run must fail
  // transiently (the retry ladder's signal to re-run), never hang.
  fault::Rule Kill;
  Kill.Site = "shard.worker_death";
  Kill.MaxFires = 1;
  fault::Registry::process().arm(Kill);
  BoundArrays Killed(Config, Spec, 5, 5, 0xdead);
  Expected<TimingReport> R = B.run(Compiled, Killed.Args, 2);
  ASSERT_FALSE(R) << "run survived a SIGKILLed worker";
  EXPECT_TRUE(R.error().isTransient()) << R.error().message();
  EXPECT_GT(Reg.counter("shard.deaths").value(), DeathsBefore);

  // The retry: the dead slot is respawned, plans and data re-sent, and
  // the result is bitwise what the first run produced.
  fault::Registry::process().reset();
  BoundArrays Retry(Config, Spec, 5, 5, 0xdead);
  Expected<TimingReport> Again = B.run(Compiled, Retry.Args, 2);
  ASSERT_TRUE(Again) << Again.error().message();
  EXPECT_GT(Reg.counter("shard.respawns").value(), RespawnsBefore);
  Array2D Got = Retry.R.gather();
  EXPECT_EQ(std::memcmp(Want.data(), Got.data(),
                        sizeof(float) * Want.rows() * Want.cols()),
            0);
}

TEST_F(ShardProcessTest, ExchangeFaultAbortsWithoutLosingWorkers) {
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  shard::ShardedBackend::Options O;
  O.ShardRows = 1;
  O.ShardCols = 2;
  shard::ShardedBackend B(Config, O);

  BoundArrays First(Config, Spec, 5, 5, 7);
  ASSERT_TRUE(B.run(Compiled, First.Args, 1));
  Array2D Want = First.R.gather();

  obs::Registry &Reg = obs::Registry::process();
  const long DeathsBefore = Reg.counter("shard.deaths").value();

  fault::Rule Abort;
  Abort.Site = "shard.exchange";
  Abort.MaxFires = 1;
  fault::Registry::process().arm(Abort);
  BoundArrays Injected(Config, Spec, 5, 5, 7);
  Expected<TimingReport> R = B.run(Compiled, Injected.Args, 1);
  ASSERT_FALSE(R);
  EXPECT_TRUE(R.error().isTransient());
  // The abort path quiesces workers instead of killing them: no deaths,
  // and the immediate retry succeeds against the same fleet.
  EXPECT_EQ(Reg.counter("shard.deaths").value(), DeathsBefore);

  fault::Registry::process().reset();
  BoundArrays Retry(Config, Spec, 5, 5, 7);
  ASSERT_TRUE(B.run(Compiled, Retry.Args, 1));
  Array2D Got = Retry.R.gather();
  EXPECT_EQ(std::memcmp(Want.data(), Got.data(),
                        sizeof(float) * Want.rows() * Want.cols()),
            0);
}

TEST_F(ShardProcessTest, SpawnFaultIsTransient) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = crossSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  shard::ShardedBackend::Options O;
  O.ShardRows = O.ShardCols = 2;
  shard::ShardedBackend B(Config, O);

  fault::Rule Spawn;
  Spawn.Site = "shard.spawn";
  Spawn.MaxFires = 1;
  fault::Registry::process().arm(Spawn);
  BoundArrays Side(Config, Spec, 4, 4, 3);
  Expected<TimingReport> R = B.run(Compiled, Side.Args, 1);
  ASSERT_FALSE(R);
  EXPECT_TRUE(R.error().isTransient());

  fault::Registry::process().reset();
  BoundArrays Retry(Config, Spec, 4, 4, 3);
  EXPECT_TRUE(B.run(Compiled, Retry.Args, 1));
}

TEST_F(ShardProcessTest, RunMetricsCoverEveryShard) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = crossSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  shard::ShardedBackend::Options O;
  O.ShardRows = O.ShardCols = 2;
  shard::ShardedBackend B(Config, O);

  obs::Registry &Reg = obs::Registry::process();
  const long RunsBefore = Reg.counter("shard.runs").value();
  std::vector<long> PerShardBefore;
  for (int S = 0; S != 4; ++S)
    PerShardBefore.push_back(
        Reg.counter("shard." + std::to_string(S) + ".runs").value());

  BoundArrays Side(Config, Spec, 4, 4, 11);
  ASSERT_TRUE(B.run(Compiled, Side.Args, 2));

  EXPECT_EQ(Reg.counter("shard.runs").value(), RunsBefore + 1);
  for (int S = 0; S != 4; ++S)
    EXPECT_EQ(Reg.counter("shard." + std::to_string(S) + ".runs").value(),
              PerShardBefore[static_cast<size_t>(S)] + 1)
        << "shard " << S;
  // With both axes split and border > 0, every iteration pays halo
  // rounds; the exchange histogram must have seen them.
  EXPECT_GT(Reg.histogram("shard.exchange_ns").count(), 0);
}

TEST_F(ShardProcessTest, TimeOnlyReportsWallClockForNativeInner) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = crossSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  shard::ShardedBackend::Options O;
  O.ShardRows = O.ShardCols = 2;
  O.InnerBackend = "native";
  shard::ShardedBackend B(Config, O);
  Expected<TimingReport> Report = B.timeOnly(Compiled, 16, 16, 2);
  ASSERT_TRUE(Report) << Report.error().message();
  EXPECT_GT(Report->secondsPerIteration(), 0.0);
}
