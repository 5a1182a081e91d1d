//===- tests/parallel_executor_test.cpp - Host engine tests ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the host execution engine: the thread pool itself, the
/// invariant that the functional fan-out is bitwise deterministic for
/// any thread count (and matches the golden scalar evaluator), and the
/// invariant that the devirtualized fast-path binding performs exactly
/// the operations of the virtual FpuMemoryInterface reference binding —
/// same result bits, same op counts, same cycle count.
///
/// The whole binary is additionally registered with ctest under
/// CMCC_THREADS=1 and CMCC_THREADS=8 (see tests/CMakeLists.txt), so the
/// shared-pool legs run both serial and oversubscribed.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "runtime/Executor.h"
#include "runtime/FpuBinding.h"
#include "runtime/HaloExchange.h"
#include "runtime/Reference.h"
#include "stencil/PatternLibrary.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>

using namespace cmcc;

namespace {

bool bitwiseEqual(const Array2D &A, const Array2D &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.rows()) * A.cols() *
                         sizeof(float)) == 0;
}

/// Arrays for one run (mirrors executor_test's World).
struct World {
  World(const MachineConfig &Config, const StencilSpec &Spec, int SubRows,
        int SubCols, uint64_t Seed)
      : Grid(Config), Result(Grid, SubRows, SubCols),
        Source(Grid, SubRows, SubCols) {
    Array2D GlobalSource(Result.globalRows(), Result.globalCols());
    GlobalSource.fillRandom(Seed);
    Source.scatter(GlobalSource);
    Args.Result = &Result;
    Args.Source = &Source;
    int Index = 0;
    for (const std::string &Name : Spec.coefficientArrayNames()) {
      auto Coeff = std::make_unique<DistributedArray>(Grid, SubRows, SubCols);
      Array2D Global(Result.globalRows(), Result.globalCols());
      Global.fillRandom(Seed + 1000 + Index++);
      Coeff->scatter(Global);
      Args.Coefficients[Name] = Coeff.get();
      Coefficients.push_back(std::move(Coeff));
    }
  }

  Array2D reference(const StencilSpec &Spec) const {
    ReferenceBindings Bindings;
    Array2D GlobalSource = Source.gather();
    Bindings.Source = &GlobalSource;
    std::vector<Array2D> Globals;
    Globals.reserve(Coefficients.size());
    for (const auto &[Name, DA] : Args.Coefficients)
      Globals.push_back(DA->gather());
    size_t I = 0;
    for (const auto &[Name, DA] : Args.Coefficients)
      Bindings.Coefficients[Name] = &Globals[I++];
    return evaluateReference(Spec, Bindings, Source.globalRows(),
                             Source.globalCols());
  }

  NodeGrid Grid;
  DistributedArray Result;
  DistributedArray Source;
  std::vector<std::unique_ptr<DistributedArray>> Coefficients;
  StencilArguments Args;
};

/// Runs \p Compiled under \p Opts on fresh arrays and returns the
/// gathered global result.
Array2D runGathered(const MachineConfig &Config,
                    const CompiledStencil &Compiled, int SubRows, int SubCols,
                    uint64_t Seed, Executor::Options Opts) {
  World W(Config, Compiled.Spec, SubRows, SubCols, Seed);
  Executor Exec(Config, Opts);
  Expected<TimingReport> Report = Exec.run(Compiled, W.Args, 1);
  EXPECT_TRUE(Report) << (Report ? "" : Report.error().message());
  return W.Result.gather();
}

} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4);
  std::vector<int> Hits(997, 0);
  // Each index is dispensed to exactly one thread, so the increments
  // are disjoint writes.
  Pool.parallelFor(static_cast<int>(Hits.size()), [&](int I) { ++Hits[I]; });
  EXPECT_EQ(std::accumulate(Hits.begin(), Hits.end(), 0), 997);
  EXPECT_TRUE(std::all_of(Hits.begin(), Hits.end(),
                          [](int H) { return H == 1; }));
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool Pool(3);
  for (int Round = 0; Round != 50; ++Round) {
    std::vector<int> Hits(Round + 1, 0);
    Pool.parallelFor(Round + 1, [&](int I) { ++Hits[I]; });
    EXPECT_EQ(std::accumulate(Hits.begin(), Hits.end(), 0), Round + 1);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool Pool(4);
  std::vector<int> Hits(8 * 8, 0);
  Pool.parallelFor(8, [&](int I) {
    Pool.parallelFor(8, [&](int J) { ++Hits[I * 8 + J]; });
  });
  EXPECT_EQ(std::accumulate(Hits.begin(), Hits.end(), 0), 64);
}

TEST(ThreadPoolTest, SerialPoolAndEmptyLoop) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.threadCount(), 1);
  int Calls = 0;
  Pool.parallelFor(0, [&](int) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  Pool.parallelFor(5, [&](int) { ++Calls; });
  EXPECT_EQ(Calls, 5);
}

TEST(ThreadPoolTest, SharedThreadCountHonorsEnvironment) {
  const char *Old = std::getenv("CMCC_THREADS");
  std::string Saved = Old ? Old : "";
  setenv("CMCC_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::sharedThreadCount(), 3);
  setenv("CMCC_THREADS", "0", 1); // Invalid: falls back to hardware.
  EXPECT_GE(ThreadPool::sharedThreadCount(), 1);
  if (Old)
    setenv("CMCC_THREADS", Saved.c_str(), 1);
  else
    unsetenv("CMCC_THREADS");
}

//===----------------------------------------------------------------------===//
// Determinism: thread count never changes a bit of the result
//===----------------------------------------------------------------------===//

TEST(ParallelExecutorTest, MultithreadedBitsMatchSerialAndGolden) {
  MachineConfig Config = MachineConfig::testMachine16();
  // square9 needs corner halos, cross5 skips them (NaN-poisoned corner
  // pads must survive the parallel exchange untouched).
  for (PatternId Id : {PatternId::Square9, PatternId::Cross5}) {
    ConvolutionCompiler CC(Config);
    Expected<CompiledStencil> Compiled = CC.compile(makePattern(Id));
    ASSERT_TRUE(Compiled) << Compiled.error().message();

    Executor::Options Serial;
    Serial.ThreadCount = 1;
    Executor::Options Threaded;
    Threaded.ThreadCount = 8;
    Executor::Options SharedPool; // ThreadCount = 0: CMCC_THREADS/hardware.

    const uint64_t Seed = 0xC0FFEE + static_cast<int>(Id);
    Array2D R1 = runGathered(Config, *Compiled, 12, 21, Seed, Serial);
    Array2D R8 = runGathered(Config, *Compiled, 12, 21, Seed, Threaded);
    Array2D R0 = runGathered(Config, *Compiled, 12, 21, Seed, SharedPool);

    EXPECT_TRUE(bitwiseEqual(R1, R8)) << patternName(Id);
    EXPECT_TRUE(bitwiseEqual(R1, R0)) << patternName(Id);

    World W(Config, Compiled->Spec, 12, 21, Seed);
    EXPECT_LT(Array2D::maxAbsDifference(R1, W.reference(Compiled->Spec)),
              2e-4f)
        << patternName(Id);
  }
}

TEST(ParallelExecutorTest, ThreadCountNeverChangesSimulatedTiming) {
  MachineConfig Config = MachineConfig::testMachine16();
  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Compiled =
      CC.compile(makePattern(PatternId::Diamond13));
  ASSERT_TRUE(Compiled);
  long Totals[2];
  int I = 0;
  for (int Threads : {1, 8}) {
    Executor::Options Opts;
    Opts.ThreadCount = Threads;
    World W(Config, Compiled->Spec, 16, 16, 99);
    Executor Exec(Config, Opts);
    auto Report = Exec.run(*Compiled, W.Args, 10);
    ASSERT_TRUE(Report);
    Totals[I++] = Report->Cycles.total();
  }
  // Simulated machine time is the figure of merit; host parallelism
  // must not move it by a single cycle.
  EXPECT_EQ(Totals[0], Totals[1]);
}

//===----------------------------------------------------------------------===//
// Fast path vs. virtual reference binding
//===----------------------------------------------------------------------===//

TEST(ParallelExecutorTest, FastPathBitsMatchVirtualBinding) {
  MachineConfig Config = MachineConfig::testMachine16();
  for (PatternId Id : allPatterns()) {
    ConvolutionCompiler CC(Config);
    Expected<CompiledStencil> Compiled = CC.compile(makePattern(Id));
    ASSERT_TRUE(Compiled) << Compiled.error().message();

    Executor::Options Fast;
    Fast.UseFastPath = true;
    Executor::Options Virtual;
    Virtual.UseFastPath = false;

    const uint64_t Seed = 4242 + static_cast<int>(Id);
    Array2D RFast = runGathered(Config, *Compiled, 12, 13, Seed, Fast);
    Array2D RVirt = runGathered(Config, *Compiled, 12, 13, Seed, Virtual);
    EXPECT_TRUE(bitwiseEqual(RFast, RVirt)) << patternName(Id);
  }
}

TEST(FpuBindingTest, FastAndVirtualBindingsAgreeOpForOp) {
  // Mixed scalar and array coefficients so both immediate folding and
  // coefficient-stream resolution are exercised.
  MachineConfig Config = MachineConfig::withNodeGrid(1, 1);
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  {
    Tap T;
    T.At = {0, -1};
    T.Coeff = Coefficient::array("C1");
    Spec.Taps.push_back(T);
    T.At = {0, 0};
    T.Coeff = Coefficient::scalar(0.375);
    T.Sign = -1.0;
    Spec.Taps.push_back(T);
    T.At = {-1, 1};
    T.Coeff = Coefficient::array("C2");
    T.Sign = 1.0;
    Spec.Taps.push_back(T);
  }
  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  ASSERT_TRUE(Compiled) << Compiled.error().message();
  const WidthSchedule &W = Compiled->Widths.front();

  const int SubRows = 9, SubCols = W.Width;
  const int Border = Spec.borderWidths().maximum();
  Array2D Padded(SubRows + 2 * Border, SubCols + 2 * Border);
  Padded.fillRandom(7);
  Array2D C1(SubRows, SubCols), C2(SubRows, SubCols);
  C1.fillRandom(8);
  C2.fillRandom(9);

  std::vector<ConstSubgridRef> Sources{Padded};
  std::vector<ConstSubgridRef> TapCoefficients{C1, {}, C2};

  auto RunOneHalfStrip = [&](auto &Mem, FloatingPointUnit &Fpu) {
    Fpu.reset();
    if (W.Regs.hasUnitRegister())
      Fpu.pokeRegister(W.Regs.unitRegister(), 1.0f);
    Mem.setLine(SubRows - 1);
    Fpu.executeSequence(W.Prologue, Mem);
    const int U = static_cast<int>(W.Phases.size());
    for (int T = 0; T != SubRows; ++T) {
      Mem.setLine(SubRows - 1 - T);
      Fpu.executeSequence(W.Phases[T % U], Mem);
    }
    Fpu.drainPipeline();
  };

  Array2D RFast(SubRows, SubCols), RVirt(SubRows, SubCols);
  HalfStripOperands Operands;
  Operands.PaddedSources = &Sources;
  Operands.Border = Border;
  Operands.Spec = &Spec;
  Operands.TapCoefficients = &TapCoefficients;
  Operands.LeftCol = 0;

  FloatingPointUnit FpuFast(Config);
  Operands.Result = RFast.view();
  FastNodeBinding Fast(Operands);
  RunOneHalfStrip(Fast, FpuFast);

  FloatingPointUnit FpuVirt(Config);
  Operands.Result = RVirt.view();
  VirtualNodeBinding Virt(Operands);
  RunOneHalfStrip(Virt, FpuVirt);

  EXPECT_TRUE(bitwiseEqual(RFast, RVirt));
  EXPECT_EQ(FpuFast.loadsExecuted(), FpuVirt.loadsExecuted());
  EXPECT_EQ(FpuFast.maddsExecuted(), FpuVirt.maddsExecuted());
  EXPECT_EQ(FpuFast.storesExecuted(), FpuVirt.storesExecuted());
  EXPECT_EQ(FpuFast.fillersExecuted(), FpuVirt.fillersExecuted());
  EXPECT_EQ(FpuFast.cyclesExecuted(), FpuVirt.cyclesExecuted());
}

//===----------------------------------------------------------------------===//
// Parallel halo exchange
//===----------------------------------------------------------------------===//

TEST(ParallelExecutorTest, ParallelHaloExchangeMatchesSerial) {
  MachineConfig Config = MachineConfig::testMachine16();
  NodeGrid Grid(Config);
  DistributedArray A(Grid, 10, 14);
  Array2D Global(A.globalRows(), A.globalCols());
  Global.fillRandom(31337);
  A.scatter(Global);

  ThreadPool Pool(6);
  for (bool Corners : {true, false}) {
    std::vector<Array2D> Serial =
        exchangeHalos(A, 2, BoundaryKind::Circular, BoundaryKind::Zero,
                      Corners, nullptr);
    std::vector<Array2D> Parallel =
        exchangeHalos(A, 2, BoundaryKind::Circular, BoundaryKind::Zero,
                      Corners, &Pool);
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t Id = 0; Id != Serial.size(); ++Id) {
      if (Corners) {
        EXPECT_TRUE(bitwiseEqual(Serial[Id], Parallel[Id])) << Id;
      } else {
        // Corner pads are NaN-poisoned in both; compare the non-NaN
        // cells bitwise and require the NaN sets to coincide.
        ASSERT_EQ(Serial[Id].rows(), Parallel[Id].rows());
        ASSERT_EQ(Serial[Id].cols(), Parallel[Id].cols());
        for (int R = 0; R != Serial[Id].rows(); ++R)
          for (int C = 0; C != Serial[Id].cols(); ++C) {
            float S = Serial[Id].at(R, C), P = Parallel[Id].at(R, C);
            EXPECT_EQ(std::isnan(S), std::isnan(P));
            if (!std::isnan(S))
              EXPECT_EQ(S, P);
          }
      }
    }
  }
}
