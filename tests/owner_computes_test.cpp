//===- tests/owner_computes_test.cpp - Owner-computes host runs -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the owner-computes host run: the pool's fixed index ->
/// thread map, the per-node in-place halo fill (cell for cell equal to
/// the direct global-torus construction, NaN poisoning included, in any
/// node order), native and njit runs that are bitwise equal at every
/// thread count — including counts that do not divide the node count
/// and counts above it — and the exchange counters a seismic-shaped run
/// adds.
///
//===----------------------------------------------------------------------===//

#include "HaloCheck.h"
#include "backends/Registry.h"
#include "core/Compiler.h"
#include "obs/Metrics.h"
#include "runtime/HaloExchange.h"
#include "runtime/Executor.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <mutex>
#include <thread>

using namespace cmcc;
using namespace cmcc::halocheck;

namespace {

//===----------------------------------------------------------------------===//
// The fixed chunk map
//===----------------------------------------------------------------------===//

/// The OS thread that ran each index of one parallelFor over [0, N).
std::vector<std::thread::id> threadsOf(ThreadPool &Pool, int N) {
  std::vector<std::thread::id> Ids(static_cast<size_t>(N));
  Pool.parallelFor(N, [&](int I) {
    Ids[static_cast<size_t>(I)] = std::this_thread::get_id();
  });
  return Ids;
}

TEST(ThreadPoolTest, EveryIndexStaysOnItsChunksThread) {
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  for (int N : {16, 10, 5, 3}) {
    SCOPED_TRACE("N = " + std::to_string(N));
    const std::vector<std::thread::id> First = threadsOf(Pool, N);
    // The same map on the next loop: index i never changes thread.
    EXPECT_EQ(threadsOf(Pool, N), First);
    // Participant t runs exactly [t*N/T, (t+1)*N/T); the caller is 0.
    const int T = Pool.threadCount();
    std::vector<std::thread::id> Owner(static_cast<size_t>(T));
    for (int P = 0; P != T; ++P)
      for (int I = P * N / T; I != (P + 1) * N / T; ++I) {
        if (Owner[static_cast<size_t>(P)] == std::thread::id())
          Owner[static_cast<size_t>(P)] = First[static_cast<size_t>(I)];
        EXPECT_EQ(First[static_cast<size_t>(I)],
                  Owner[static_cast<size_t>(P)])
            << "index " << I << " left participant " << P << "'s thread";
      }
    for (int I = 0; I != N / T; ++I)
      EXPECT_EQ(First[static_cast<size_t>(I)], Caller) << "index " << I;
    for (int P = 0; P != T; ++P)
      for (int Q = P + 1; Q != T; ++Q) {
        if (Owner[static_cast<size_t>(P)] != std::thread::id()) {
          EXPECT_NE(Owner[static_cast<size_t>(P)],
                    Owner[static_cast<size_t>(Q)]);
        }
      }
  }
}

TEST(ThreadPoolTest, ChunksCoverTheRangeOncePerParticipant) {
  ThreadPool Pool(3);
  std::mutex M;
  std::vector<std::pair<int, int>> Chunks;
  Pool.parallelChunks(8, [&](int Begin, int End) {
    std::lock_guard<std::mutex> Lock(M);
    Chunks.push_back({Begin, End});
  });
  std::sort(Chunks.begin(), Chunks.end());
  EXPECT_EQ(Chunks,
            (std::vector<std::pair<int, int>>{{0, 2}, {2, 5}, {5, 8}}));
  // A one-thread pool runs the whole range as one inline chunk.
  ThreadPool Serial(1);
  Chunks.clear();
  Serial.parallelChunks(8, [&](int Begin, int End) {
    Chunks.push_back({Begin, End});
  });
  EXPECT_EQ(Chunks, (std::vector<std::pair<int, int>>{{0, 8}}));
}

//===----------------------------------------------------------------------===//
// The per-node fill
//===----------------------------------------------------------------------===//

class OwnerFillTest : public ::testing::TestWithParam<int> {};

TEST_P(OwnerFillTest, MatchesDirectConstruction) {
  const int Shapes[][2] = {{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 4}, {4, 4}};
  const int NR = Shapes[GetParam()][0], NC = Shapes[GetParam()][1];
  const BoundaryKind Kinds[] = {BoundaryKind::Circular, BoundaryKind::Zero};
  for (BoundaryKind B1 : Kinds)
    for (BoundaryKind B2 : Kinds)
      for (bool Corners : {false, true}) {
        NodeGrid Grid(NR, NC);
        DistributedArray A(Grid, 5, 4);
        Array2D Global(A.globalRows(), A.globalCols());
        Global.fillRandom(17 + GetParam());
        A.scatter(Global);
        SCOPED_TRACE("[grid " + std::to_string(NR) + "x" +
                     std::to_string(NC) +
                     " b1=" + (B1 == BoundaryKind::Zero ? "zero" : "circ") +
                     " b2=" + (B2 == BoundaryKind::Zero ? "zero" : "circ") +
                     " corners=" + std::to_string(Corners) + "]");
        // Borders 1-3 on a margin that grows and never shrinks, so the
        // narrower fills run inside a wider margin; then a cornered fill
        // followed by a cornerless one whose corners must read NaN again;
        // then border 0. In process, and over every shard grid up to 2x2
        // that divides the node grid.
        std::vector<Exchange> Sequence;
        for (auto [Border, C] : {std::pair{2, Corners}, std::pair{1, Corners},
                                 std::pair{3, Corners}, std::pair{2, true},
                                 std::pair{2, false}, std::pair{0, Corners}})
          Sequence.push_back({Border, B1, B2, C});
        for (auto [SR, SC] : {std::pair{1, 1}, std::pair{1, 2},
                              std::pair{2, 1}, std::pair{2, 2}})
          if (NR % SR == 0 && NC % SC == 0)
            expectPartitionedResident(A, SR, SC, Sequence);
      }
}

INSTANTIATE_TEST_SUITE_P(Shapes, OwnerFillTest, ::testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// Runs at every thread count
//===----------------------------------------------------------------------===//

/// A radius-2 stencil with all four diagonal corners, array coefficients.
StencilSpec cornerSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  Spec.BoundaryDim2 = BoundaryKind::Zero;
  const int Offsets[][2] = {{0, 0}, {1, 1}, {-1, -1}, {1, -1}, {-2, 2}};
  for (int I = 0; I != 5; ++I) {
    Tap T;
    T.At = {Offsets[I][0], Offsets[I][1]};
    T.Sign = I % 2 ? -1.0 : 1.0;
    T.Coeff = Coefficient::array("C" + std::to_string(I));
    Spec.Taps.push_back(std::move(T));
  }
  return Spec;
}

/// Two sources, scalar and array coefficients and a bare term.
StencilSpec multiSourceSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X0";
  Spec.ExtraSources.push_back("X1");
  Spec.BoundaryDim1 = BoundaryKind::Zero;
  const struct {
    int Dy, Dx, Src;
    bool Array;
  } Taps[] = {{0, 0, 0, true}, {0, 1, 1, false}, {1, 0, 0, false},
              {-1, 1, 1, true}, {0, -2, 0, true}};
  int I = 0;
  for (const auto &D : Taps) {
    Tap T;
    T.At = {D.Dy, D.Dx};
    T.SourceIndex = D.Src;
    T.Sign = I % 2 ? -1.0 : 1.0;
    T.Coeff = D.Array ? Coefficient::array("C" + std::to_string(I))
                      : Coefficient::scalar(0.375f);
    Spec.Taps.push_back(std::move(T));
    ++I;
  }
  Tap Bare;
  Bare.HasData = false;
  Bare.Coeff = Coefficient::array("CBARE");
  Spec.Taps.push_back(std::move(Bare));
  return Spec;
}

/// A cross whose centre tap's coefficient array is bound to the source.
StencilSpec sourceAsCoefficientSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  const int Offsets[][2] = {{0, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}};
  for (int I = 0; I != 5; ++I) {
    Tap T;
    T.At = {Offsets[I][0], Offsets[I][1]};
    T.Coeff = I == 0 ? Coefficient::array("XC") : Coefficient::scalar(0.25f);
    Spec.Taps.push_back(std::move(T));
  }
  return Spec;
}

/// Every array \p Spec names, seeded; "XC" is bound to the source.
struct Bound {
  Bound(const NodeGrid &Grid, const StencilSpec &Spec, int Sub)
      : R(Grid, Sub, Sub) {
    auto Make = [&](uint64_t Seed) {
      Owned.push_back(std::make_unique<DistributedArray>(Grid, Sub, Sub));
      Array2D G(R.globalRows(), R.globalCols());
      G.fillRandom(Seed);
      Owned.back()->scatter(G);
      return Owned.back().get();
    };
    Args.Result = &R;
    Args.Source = Make(1);
    for (size_t I = 0; I != Spec.ExtraSources.size(); ++I)
      Args.ExtraSources[Spec.ExtraSources[I]] = Make(10 + I);
    const std::vector<std::string> Names = Spec.coefficientArrayNames();
    for (size_t I = 0; I != Names.size(); ++I)
      Args.Coefficients[Names[I]] =
          Names[I] == "XC" ? Args.Source : Make(100 + I);
  }
  DistributedArray R;
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  StencilArguments Args;
};

/// Same shape and the same bits in every cell.
bool bitwiseEqual(const Array2D &A, const Array2D &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     sizeof(float) * A.rows() * A.cols()) == 0;
}

/// Two consecutive runs (the second on margins the first grew) of
/// \p Spec on \p Backend with \p Threads threads; the gathered result.
Array2D runTwice(const char *Backend, const MachineConfig &M,
                 const CompiledStencil &Compiled, int Threads) {
  Executor::Options Opts;
  Opts.ThreadCount = Threads;
  std::unique_ptr<ExecutionBackend> B = createBackend(Backend, M, Opts);
  EXPECT_NE(B, nullptr);
  NodeGrid Grid(M);
  Bound Arrays(Grid, Compiled.Spec, 12);
  for (int Run = 0; Run != 2; ++Run) {
    Expected<TimingReport> R = B->run(Compiled, Arrays.Args, 1);
    EXPECT_TRUE(R) << (R ? "" : R.error().message());
  }
  return Arrays.R.gather();
}

TEST(OwnerComputesTest, EveryThreadCountIsBitwiseEqual) {
  const bool Njit = isBackendAvailable("njit");
  const struct {
    const char *Name;
    StencilSpec Spec;
  } Cases[] = {{"corners", cornerSpec()},
               {"multi-source", multiSourceSpec()},
               {"source as coefficient", sourceAsCoefficientSpec()}};
  for (const MachineConfig &M : {MachineConfig::withNodeGrid(4, 4),
                                 MachineConfig::withNodeGrid(2, 2)})
    for (const auto &C : Cases) {
      ConvolutionCompiler CC(M);
      CC.setAllowMultipleSources(true);
      Expected<CompiledStencil> Compiled = CC.compile(C.Spec);
      ASSERT_TRUE(Compiled) << Compiled.error().message();
      const Array2D Serial = runTwice("native", M, *Compiled, 1);
      for (const char *Backend : {"native", "njit"}) {
        if (std::string(Backend) == "njit" && !Njit)
          continue;
        for (int Threads : {1, 2, 3, 5}) {
          const Array2D Got = runTwice(Backend, M, *Compiled, Threads);
          EXPECT_TRUE(bitwiseEqual(Got, Serial))
              << C.Name << " on " << Backend << " at " << Threads
              << " threads, " << M.nodeCount() << " nodes";
        }
      }
    }
}

TEST(OwnerComputesTest, SeismicShapeCountsOneExchange) {
  // The seismic update's shape: 4x4 nodes of 128 x 128, a radius-2
  // EOSHIFT cross (Zero boundaries, cornerless) plus a bare array term.
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "U";
  Spec.BoundaryDim1 = Spec.BoundaryDim2 = BoundaryKind::Zero;
  const int Offsets[][2] = {{0, 0},  {1, 0}, {-1, 0}, {0, 1}, {0, -1},
                            {2, 0}, {-2, 0}, {0, 2},  {0, -2}};
  for (const auto &O : Offsets) {
    Tap T;
    T.At = {O[0], O[1]};
    T.Coeff = Coefficient::scalar(0.125f);
    Spec.Taps.push_back(std::move(T));
  }
  Tap Prev;
  Prev.HasData = false;
  Prev.Sign = -1.0;
  Prev.Coeff = Coefficient::array("UPREV");
  Spec.Taps.push_back(std::move(Prev));
  const MachineConfig M = MachineConfig::withNodeGrid(4, 4);
  ConvolutionCompiler CC(M);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  ASSERT_TRUE(Compiled) << Compiled.error().message();

  Executor::Options Opts;
  Opts.ThreadCount = 2;
  std::unique_ptr<ExecutionBackend> Native = createBackend("native", M, Opts);
  NodeGrid Grid(M);
  Bound Arrays(Grid, Spec, 128);
  obs::Registry &Reg = obs::Registry::process();
  obs::Counter &Exchanges = Reg.counter("halo.exchanges");
  obs::Counter &Bytes = Reg.counter("halo.bytes");
  auto Run = [&] {
    const long E = Exchanges.value(), B = Bytes.value();
    EXPECT_TRUE(Native->run(*Compiled, Arrays.Args, 1));
    return std::pair{Exchanges.value() - E, Bytes.value() - B};
  };
  // The first run also moves every core (1,048,576 B) into its margin;
  // every later one writes the bands only: 16 nodes x 4 sides x 2 x 128
  // floats.
  EXPECT_EQ(Run(), (std::pair{1L, 1114112L}));
  EXPECT_EQ(Run(), (std::pair{1L, 65536L}));
}

} // namespace
