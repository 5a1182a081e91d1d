//===- tests/timetile_test.cpp - Time-tiled differential suite -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of time-tiled execution, a cm2 cost-model extension: a
/// run with TimeTile = k is functionally k *chained* timesteps of the
/// stencil — step s's result feeds step s+1 — behind a single wide halo
/// exchange, and the result must be BITWISE identical to the
/// step-by-step program (k separate run() calls copying result back
/// into the source between steps). cm2 replays owner regions so each
/// intermediate pad cell runs the exact strip schedule its owner node
/// runs — same FPU chains, same rounding, bit for bit.
///
/// Host backends (native, njit, sharded native) run one step per
/// exchange: they refuse k > 1 non-transiently, and the service never
/// tiles or tunes them.
///
/// The differential harness sweeps depth k in {1, 2, 3, 8} on cm2 and
/// on shard grids 1x1 / 1x2 / 2x2 of cm2, Circular and Zero boundaries,
/// and armed halo.exchange / shard.* faults on every backend (a failed
/// run must be transient and leave the inputs untouched, so the retry
/// reproduces the baseline bitwise).
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "backends/cm2/Cm2Backend.h"
#include "backends/native/NativeBackend.h"
#include "core/Compiler.h"
#include "obs/Metrics.h"
#include "runtime/TimeTile.h"
#include "service/Autotuner.h"
#include "service/StencilService.h"
#include "shard/ShardedBackend.h"
#include "stencil/PatternLibrary.h"
#include "support/FaultInjection.h"
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace cmcc;

namespace {

/// Identically seeded argument set (same construction as the backend
/// equivalence suite): each side gets its own arrays built from the
/// same seeds, so inputs are bit-identical across runs and backends.
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

CompiledStencil compileSpec(const MachineConfig &Config,
                            const StencilSpec &Spec) {
  ConvolutionCompiler CC(Config);
  CC.setAllowMultipleSources(true);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  EXPECT_TRUE(Compiled) << (Compiled ? "" : Compiled.error().message());
  return *Compiled;
}

/// The ground truth: K explicit timesteps, each a plain TimeTile = 1
/// run, with the result copied back into the source between steps —
/// the program a user would write without tiling.
Array2D stepwiseBaseline(ExecutionBackend &Backend,
                         const CompiledStencil &Compiled,
                         const MachineConfig &Config, int SubRows,
                         int SubCols, int K, uint64_t Seed) {
  BoundArrays Side(Config, Compiled.Spec, SubRows, SubCols, Seed);
  for (int S = 0; S != K; ++S) {
    if (S > 0)
      Side.Owned[0]->scatter(Side.R.gather()); // Owned[0] is Source
    Expected<TimingReport> R = Backend.run(Compiled, Side.Args, 1);
    EXPECT_TRUE(R) << "baseline step " << S
                   << " failed: " << (R ? "" : R.error().message());
    if (!R)
      break;
  }
  return Side.R.gather();
}

/// One tiled run at depth K over bit-identical inputs.
Array2D tiledRun(ExecutionBackend &Backend, const CompiledStencil &Compiled,
                 const MachineConfig &Config, int SubRows, int SubCols, int K,
                 uint64_t Seed, int Iterations = 1) {
  BoundArrays Side(Config, Compiled.Spec, SubRows, SubCols, Seed);
  RunOptions RO;
  RO.Iterations = Iterations;
  RO.TimeTile = K;
  Expected<TimingReport> R = Backend.run(Compiled, Side.Args, RO);
  EXPECT_TRUE(R) << "tiled run (k=" << K
                 << ") failed: " << (R ? "" : R.error().message());
  return Side.R.gather();
}

void expectBitwise(const Array2D &Want, const Array2D &Got,
                   const std::string &What) {
  ASSERT_EQ(Want.rows(), Got.rows()) << What;
  ASSERT_EQ(Want.cols(), Got.cols()) << What;
  EXPECT_EQ(std::memcmp(Want.data(), Got.data(),
                        sizeof(float) * Want.rows() * Want.cols()),
            0)
      << What << " diverged from the step-by-step baseline; max |diff| "
      << Array2D::maxAbsDifference(Want, Got);
}

/// Radius-2 cornered pattern with mixed signs and array coefficients —
/// exercises wide pads, corner regions, and the coefficient exchange.
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
    T.Coeff = Coefficient::array("C" + std::to_string(I));
    Spec.Taps.push_back(std::move(T));
  }
  return Spec;
}

/// Scalar-coefficient cross (no coefficient arrays → no coefficient
/// exchange; the tiled source exchange alone must carry the run).
StencilSpec scalarCrossSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  const int Offsets[][2] = {{0, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}};
  const float Coeffs[] = {0.5f, 0.125f, 0.125f, 0.125f, 0.125f};
  for (int I = 0; I != 5; ++I) {
    Tap T;
    T.At.Dy = Offsets[I][0];
    T.At.Dx = Offsets[I][1];
    T.Coeff = Coefficient::scalar(Coeffs[I]);
    Spec.Taps.push_back(std::move(T));
  }
  return Spec;
}

/// A single self tap: radius 0 — the degenerate tile where the wide
/// border is zero and every chained step is a pointwise pass.
StencilSpec pointwiseSpec() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  Tap T;
  T.At = {0, 0};
  T.Coeff = Coefficient::scalar(0.75f);
  Spec.Taps.push_back(std::move(T));
  return Spec;
}

struct DifferentialCase {
  const char *Label;
  StencilSpec Spec;
  int SubRows, SubCols;
  std::vector<int> Depths;
};

/// The shared sweep matrix: patterns x boundaries x depths. Subgrids
/// are sized so the deepest tile's border k*r still fits (border <=
/// min(SubRows, SubCols) is the exchange protocol's own limit).
std::vector<DifferentialCase> differentialCases() {
  std::vector<DifferentialCase> Cases;
  StencilSpec Cross = makePattern(PatternId::Cross5);
  Cases.push_back({"cross5/circular", Cross, 10, 12, {1, 2, 3, 8}});
  StencilSpec CrossZero = Cross;
  CrossZero.BoundaryDim1 = BoundaryKind::Zero;
  CrossZero.BoundaryDim2 = BoundaryKind::Zero;
  Cases.push_back({"cross5/zero", CrossZero, 10, 12, {1, 2, 3, 8}});
  StencilSpec Square = makePattern(PatternId::Square9);
  StencilSpec SquareMixed = Square;
  SquareMixed.BoundaryDim1 = BoundaryKind::Zero;
  Cases.push_back({"square9/zero-rows", SquareMixed, 9, 11, {1, 2, 3, 8}});
  Cases.push_back({"cornered-r2/circular", corneredSpec(), 16, 17, {1, 2, 3, 8}});
  StencilSpec CorneredZero = corneredSpec();
  CorneredZero.BoundaryDim2 = BoundaryKind::Zero;
  Cases.push_back({"cornered-r2/zero-cols", CorneredZero, 16, 17, {1, 2, 3}});
  Cases.push_back({"scalar-cross/circular", scalarCrossSpec(), 8, 9, {2, 8}});
  Cases.push_back({"pointwise/r0", pointwiseSpec(), 4, 5, {1, 2, 8}});
  return Cases;
}

class TimeTileTest : public ::testing::Test {
protected:
  void SetUp() override {
    fault::Registry::process().reset();
    fault::Registry::process().setSeed(0);
  }
  void TearDown() override { fault::Registry::process().reset(); }
};

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST_F(TimeTileTest, ValidationRejectsBadDepths) {
  StencilSpec Spec = makePattern(PatternId::Cross5);
  EXPECT_TRUE(static_cast<bool>(timetile::validateTimeTile(Spec, 0, 8, 8)));
  EXPECT_TRUE(static_cast<bool>(timetile::validateTimeTile(Spec, -3, 8, 8)));
  EXPECT_TRUE(!timetile::validateTimeTile(Spec, 1, 8, 8));
  EXPECT_TRUE(!timetile::validateTimeTile(Spec, 8, 8, 8));
  // Depth 9 at radius 1 needs a 9-wide border: over the 8-row subgrid.
  Error TooDeep = timetile::validateTimeTile(Spec, 9, 8, 8);
  ASSERT_TRUE(TooDeep);
  EXPECT_NE(TooDeep.message().find("border"), std::string::npos)
      << TooDeep.message();

  // Chained steps feed Result back into Source; a second source array
  // has no step-to-step successor, so k > 1 is rejected.
  StencilSpec Multi = Spec;
  Multi.ExtraSources.push_back("Y");
  Tap T;
  T.At = {0, 1};
  T.SourceIndex = 1;
  T.Coeff = Coefficient::scalar(0.5f);
  Multi.Taps.push_back(std::move(T));
  EXPECT_TRUE(!timetile::validateTimeTile(Multi, 1, 8, 8));
  Error MultiErr = timetile::validateTimeTile(Multi, 2, 8, 8);
  ASSERT_TRUE(MultiErr);
  EXPECT_NE(MultiErr.message().find("source"), std::string::npos)
      << MultiErr.message();
}

TEST_F(TimeTileTest, ClampFindsTheDeepestLegalTile) {
  StencilSpec Cross = makePattern(PatternId::Cross5); // radius 1
  EXPECT_EQ(timetile::clampTimeTile(Cross, 8, 8, 8), 8);
  EXPECT_EQ(timetile::clampTimeTile(Cross, 64, 8, 8), 8);
  StencilSpec Cornered = corneredSpec(); // radius 2
  EXPECT_EQ(timetile::clampTimeTile(Cornered, 8, 8, 8), 4);
  EXPECT_EQ(timetile::clampTimeTile(Cornered, 3, 8, 8), 3);
  StencilSpec Multi = Cross;
  Multi.ExtraSources.push_back("Y");
  EXPECT_EQ(timetile::clampTimeTile(Multi, 8, 8, 8), 1);
  EXPECT_EQ(timetile::clampTimeTile(Cross, 0, 8, 8), 1);
}

/// Expects \p B to refuse depth \p K non-transiently on both run() and
/// timeOnly(), then to serve a depth-1 run.
void expectRefusesDepth(const ExecutionBackend &B, const MachineConfig &Config,
                        const StencilSpec &Spec,
                        const CompiledStencil &Compiled, int Sub, int K) {
  BoundArrays Side(Config, Spec, Sub, Sub, 1);
  RunOptions RO;
  RO.TimeTile = K;
  Expected<TimingReport> R = B.run(Compiled, Side.Args, RO);
  ASSERT_FALSE(R);
  EXPECT_FALSE(R.error().isTransient()) << R.error().message();
  Expected<TimingReport> T = B.timeOnly(Compiled, Sub, Sub, RO);
  ASSERT_FALSE(T);
  EXPECT_FALSE(T.error().isTransient()) << T.error().message();
  Expected<TimingReport> One = B.run(Compiled, Side.Args, 1);
  EXPECT_TRUE(One) << One.error().message();
}

TEST_F(TimeTileTest, BackendsRejectInvalidDepthsUpFront) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  {
    // cm2 tiles, but not past the subgrid: border 8 > 6-wide subgrid.
    SCOPED_TRACE("cm2");
    Cm2Backend Cm2(Config);
    expectRefusesDepth(Cm2, Config, Spec, Compiled, 6, 4);
  }

  // Host backends run one step per exchange and refuse any deeper tile,
  // even one the subgrid would admit.
  for (const char *Name : {"native", "njit"}) {
    if (std::string_view(Name) == "njit" && !isBackendAvailable("njit"))
      continue;
    SCOPED_TRACE(Name);
    std::unique_ptr<ExecutionBackend> B = createBackend(Name, Config);
    ASSERT_NE(B, nullptr);
    expectRefusesDepth(*B, Config, Spec, Compiled, 8, 2);
  }

  // A sharded host fleet forwards its workers' refusal as
  // non-transient, and the fleet still serves depth 1 afterwards.
  SCOPED_TRACE("sharded native 1x2");
  shard::ShardedBackend::Options O;
  O.ShardRows = 1;
  O.ShardCols = 2;
  O.InnerBackend = "native";
  shard::ShardedBackend Fleet(Config, std::move(O));
  ASSERT_TRUE(Fleet.valid());
  expectRefusesDepth(Fleet, Config, Spec, Compiled, 8, 2);
}

//===----------------------------------------------------------------------===//
// The differential sweep: tiled == stepwise, bitwise
//===----------------------------------------------------------------------===//

void sweepBackend(const char *Name) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  std::unique_ptr<ExecutionBackend> Backend = createBackend(Name, Config);
  ASSERT_NE(Backend, nullptr);
  uint64_t Seed = 0x7113d;
  for (const DifferentialCase &DC : differentialCases()) {
    CompiledStencil Compiled = compileSpec(Config, DC.Spec);
    for (int K : DC.Depths) {
      SCOPED_TRACE(std::string(DC.Label) + " k=" + std::to_string(K));
      Array2D Want = stepwiseBaseline(*Backend, Compiled, Config, DC.SubRows,
                                      DC.SubCols, K, Seed);
      Array2D Got = tiledRun(*Backend, Compiled, Config, DC.SubRows,
                             DC.SubCols, K, Seed);
      expectBitwise(Want, Got, std::string(Name) + " " + DC.Label);
      ++Seed;
    }
  }
}

TEST_F(TimeTileTest, Cm2TiledBitwiseEqualsStepwise) { sweepBackend("cm2"); }

TEST_F(TimeTileTest, IterationsMultiplyTimingNotResults) {
  // Iterations stays the timing multiplier of the fused k-step unit:
  // the functional pass runs once, so results match Iterations = 1.
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = makePattern(PatternId::Cross5);
  CompiledStencil Compiled = compileSpec(Config, Spec);
  Cm2Backend Cm2(Config);
  Array2D Once = tiledRun(Cm2, Compiled, Config, 10, 10, 3, 0xabc, 1);
  Array2D Thrice = tiledRun(Cm2, Compiled, Config, 10, 10, 3, 0xabc, 3);
  expectBitwise(Once, Thrice, "iterations=3");
}

TEST_F(TimeTileTest, DepthOneIsExactlyTheUntiledRun) {
  // TimeTile = 1 must take the classic path: same result AND same
  // simulated cycle count as the int-Iterations overload.
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);
  Cm2Backend Cm2(Config);

  BoundArrays Classic(Config, Spec, 8, 9, 0x11);
  Expected<TimingReport> R1 = Cm2.run(Compiled, Classic.Args, 1);
  ASSERT_TRUE(R1) << R1.error().message();

  BoundArrays Tiled(Config, Spec, 8, 9, 0x11);
  RunOptions RO;
  RO.TimeTile = 1;
  Expected<TimingReport> R2 = Cm2.run(Compiled, Tiled.Args, RO);
  ASSERT_TRUE(R2) << R2.error().message();

  expectBitwise(Classic.R.gather(), Tiled.R.gather(), "k=1");
  EXPECT_EQ(R1->Cycles.total(), R2->Cycles.total());
}

//===----------------------------------------------------------------------===//
// Exchange traffic: one wide exchange replaces k narrow ones
//===----------------------------------------------------------------------===//

TEST_F(TimeTileTest, TiledRunDoesOneExchangePerArray) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = scalarCrossSpec(); // no coefficient arrays
  CompiledStencil Compiled = compileSpec(Config, Spec);
  Cm2Backend Cm2(Config);
  obs::Counter &Exchanges = obs::Registry::process().counter("halo.exchanges");

  const int K = 8;
  long Before = Exchanges.value();
  stepwiseBaseline(Cm2, Compiled, Config, 8, 8, K, 0x99);
  long Stepwise = Exchanges.value() - Before;
  EXPECT_EQ(Stepwise, K);

  Before = Exchanges.value();
  tiledRun(Cm2, Compiled, Config, 8, 8, K, 0x99);
  long Tiled = Exchanges.value() - Before;
  EXPECT_EQ(Tiled, 1) << "depth-" << K
                      << " tile should do one wide exchange, not " << Tiled;
}

//===----------------------------------------------------------------------===//
// Shard grids: tiled sharded == stepwise unsharded, bitwise
//===----------------------------------------------------------------------===//

void sweepSharded(const char *Inner) {
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Specs[] = {makePattern(PatternId::Cross5), corneredSpec()};
  Specs[0].BoundaryDim1 = BoundaryKind::Zero;
  uint64_t Seed = 0x5a1d;
  for (const StencilSpec &Spec : Specs) {
    CompiledStencil Compiled = compileSpec(Config, Spec);
    const int Radius = Spec.borderWidths().maximum();
    const int Sub = Radius > 1 ? 13 : 9;
    for (int K : {2, 3}) {
      // Unsharded stepwise ground truth on the inner backend.
      std::unique_ptr<ExecutionBackend> Plain = createBackend(Inner, Config);
      ASSERT_NE(Plain, nullptr);
      Array2D Want =
          stepwiseBaseline(*Plain, Compiled, Config, Sub, Sub, K, Seed);
      for (auto [SR, SC] :
           std::vector<std::pair<int, int>>{{1, 1}, {1, 2}, {2, 2}}) {
        SCOPED_TRACE(std::string(Inner) + " shards " + std::to_string(SR) +
                     "x" + std::to_string(SC) + " k=" + std::to_string(K) +
                     " radius " + std::to_string(Radius));
        shard::ShardedBackend::Options O;
        O.ShardRows = SR;
        O.ShardCols = SC;
        O.Shards = SR * SC;
        O.InnerBackend = Inner;
        shard::ShardedBackend B(Config, std::move(O));
        ASSERT_TRUE(B.valid());
        Array2D Got = tiledRun(B, Compiled, Config, Sub, Sub, K, Seed);
        expectBitwise(Want, Got, "sharded tile");
      }
      ++Seed;
    }
  }
}

TEST_F(TimeTileTest, ShardedCm2TiledBitwiseAcrossGrids) { sweepSharded("cm2"); }

//===----------------------------------------------------------------------===//
// Faults: a lost exchange fails transiently; the retry is bitwise
//===----------------------------------------------------------------------===//

TEST_F(TimeTileTest, ExchangeFaultRetryPreservesBitwiseEquality) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = corneredSpec();
  CompiledStencil Compiled = compileSpec(Config, Spec);

  for (const char *Name : {"cm2", "native", "njit"}) {
    if (std::string_view(Name) == "njit" && !isBackendAvailable("njit"))
      continue;
    SCOPED_TRACE(Name);
    std::unique_ptr<ExecutionBackend> B = createBackend(Name, Config);
    ASSERT_NE(B, nullptr);
    // cm2 tiles three steps; host backends run one step per exchange.
    const int K = std::string_view(Name) == "cm2" ? 3 : 1;
    Array2D Want = stepwiseBaseline(*B, Compiled, Config, 12, 12, K, 0xfa11);

    // Arm the exchange site: the run's source exchange (or one of its
    // coefficient exchanges) is lost. The run must fail transient and
    // leave the sources untouched for the retry.
    fault::Registry::process().reset();
    fault::Rule Lost;
    Lost.Site = "halo.exchange";
    Lost.MaxFires = 1;
    fault::Registry::process().arm(Lost);

    BoundArrays Side(Config, Spec, 12, 12, 0xfa11);
    RunOptions RO;
    RO.TimeTile = K;
    Expected<TimingReport> Failed = B->run(Compiled, Side.Args, RO);
    ASSERT_FALSE(Failed) << "run survived a lost exchange";
    EXPECT_TRUE(Failed.error().isTransient()) << Failed.error().message();

    // Same arrays, same rule registry (now exhausted): the retry runs
    // clean and lands bitwise on the baseline — the failed attempt
    // wrote nothing into Source.
    Expected<TimingReport> Retry = B->run(Compiled, Side.Args, RO);
    ASSERT_TRUE(Retry) << Retry.error().message();
    expectBitwise(Want, Side.R.gather(), "post-fault retry");
  }
}

TEST_F(TimeTileTest, ShardFaultRetryPreservesBitwiseEquality) {
  MachineConfig Config = MachineConfig::withNodeGrid(4, 4);
  StencilSpec Spec = makePattern(PatternId::Cross5);
  CompiledStencil Compiled = compileSpec(Config, Spec);

  const int K = 2;
  Cm2Backend Plain(Config);
  Array2D Want = stepwiseBaseline(Plain, Compiled, Config, 8, 8, K, 0x5afe);

  shard::ShardedBackend::Options O;
  O.ShardRows = 1;
  O.ShardCols = 2;
  O.InnerBackend = "cm2";
  shard::ShardedBackend B(Config, std::move(O));
  ASSERT_TRUE(B.valid());

  // Prime the fleet so the armed fault hits the tiled relay itself.
  BoundArrays Prime(Config, Spec, 8, 8, 0x5afe);
  RunOptions RO;
  RO.TimeTile = K;
  ASSERT_TRUE(B.run(Compiled, Prime.Args, RO));
  expectBitwise(Want, Prime.R.gather(), "primed sharded tile");

  fault::Rule Abort;
  Abort.Site = "shard.exchange";
  Abort.MaxFires = 1;
  fault::Registry::process().arm(Abort);
  BoundArrays Side(Config, Spec, 8, 8, 0x5afe);
  Expected<TimingReport> Failed = B.run(Compiled, Side.Args, RO);
  ASSERT_FALSE(Failed);
  EXPECT_TRUE(Failed.error().isTransient()) << Failed.error().message();

  fault::Registry::process().reset();
  BoundArrays Retry(Config, Spec, 8, 8, 0x5afe);
  Expected<TimingReport> Again = B.run(Compiled, Retry.Args, RO);
  ASSERT_TRUE(Again) << Again.error().message();
  expectBitwise(Want, Retry.R.gather(), "post-fault sharded retry");
}

//===----------------------------------------------------------------------===//
// Autotuner: sweep once, serve warm, reject damaged disk records
//===----------------------------------------------------------------------===//

/// A scratch directory wiped at construction and destruction.
struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const char *Name)
      : Path(std::filesystem::temp_directory_path() /
             (std::string("cmcc_timetile_test_") + Name)) {
    std::filesystem::remove_all(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << Content;
}

/// The record with the line starting with \p Key swapped for \p Repl
/// (empty Repl deletes the line). Lines are the tune format's unit of
/// damage: every mutation below corrupts exactly one of them.
std::string withLine(const std::string &Text, const std::string &Key,
                     const std::string &Repl) {
  size_t Pos = Text.find(Key);
  EXPECT_NE(Pos, std::string::npos) << "no '" << Key << "' line to damage";
  if (Pos == std::string::npos)
    return Text;
  size_t End = Text.find('\n', Pos);
  End = End == std::string::npos ? Text.size() : End + 1;
  return Text.substr(0, Pos) + (Repl.empty() ? "" : Repl + "\n") +
         Text.substr(End);
}

TEST_F(TimeTileTest, AutotunerSweepsOnceThenServesWarm) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  CompiledStencil Compiled =
      compileSpec(Config, makePattern(PatternId::Cross5));
  std::unique_ptr<ExecutionBackend> B = createBackend("cm2", Config);
  ASSERT_NE(B, nullptr);
  ScratchDir Dir("warm");
  const uint64_t Fp = 0xfeedface12345678ull;
  Autotuner::Options AO;
  AO.Dir = Dir.Path;

  Autotuner Tuner(Config, AO);
  EXPECT_FALSE(Tuner.lookup(Fp, *B, 16, 16).has_value());

  // Cold key: one counted miss, one counted sweep, a legal depth out.
  Autotuner::TunedParams P = Tuner.resolve(Fp, *B, Compiled, 16, 16);
  EXPECT_GE(P.TimeTile, 1);
  EXPECT_FALSE(timetile::validateTimeTile(Compiled.Spec, P.TimeTile, 16, 16));
  Autotuner::Counters C = Tuner.counters();
  EXPECT_EQ(C.Misses, 1);
  EXPECT_EQ(C.Sweeps, 1);

  // Warm keys never re-sweep: the choice is stable and served from
  // memory.
  for (int I = 0; I != 3; ++I) {
    Autotuner::TunedParams Again = Tuner.resolve(Fp, *B, Compiled, 16, 16);
    EXPECT_EQ(Again.TimeTile, P.TimeTile);
  }
  C = Tuner.counters();
  EXPECT_EQ(C.Sweeps, 1);
  EXPECT_EQ(C.Misses, 1);
  EXPECT_EQ(C.Hits, 3);

  // The winner persisted; a fresh tuner (cold memory) loads it from
  // disk without sweeping and promotes it — the second lookup is a
  // memory hit.
  ASSERT_TRUE(
      std::filesystem::exists(Autotuner::recordPath(Dir.Path, Fp, 16, 16)));
  Autotuner Fresh(Config, AO);
  std::optional<Autotuner::TunedParams> FromDisk =
      Fresh.lookup(Fp, *B, 16, 16);
  ASSERT_TRUE(FromDisk.has_value());
  EXPECT_EQ(FromDisk->TimeTile, P.TimeTile);
  EXPECT_TRUE(Fresh.lookup(Fp, *B, 16, 16).has_value());
  Autotuner::Counters FC = Fresh.counters();
  EXPECT_EQ(FC.DiskHits, 1);
  EXPECT_EQ(FC.Hits, 1);
  EXPECT_EQ(FC.Sweeps, 0);
  EXPECT_EQ(FC.DiskRejects, 0);
}

TEST_F(TimeTileTest, AutotunerRejectsDamagedRecordsAndResweeps) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  CompiledStencil Compiled =
      compileSpec(Config, makePattern(PatternId::Cross5));
  std::unique_ptr<ExecutionBackend> B = createBackend("cm2", Config);
  ASSERT_NE(B, nullptr);
  ScratchDir Dir("damage");
  const uint64_t Fp = 0x0123456789abcdefull;
  Autotuner::Options AO;
  AO.Dir = Dir.Path;
  const std::string Path = Autotuner::recordPath(Dir.Path, Fp, 16, 16);

  // Seed one genuine record, then damage copies of it.
  {
    Autotuner Seeder(Config, AO);
    Seeder.tune(Fp, *B, Compiled, 16, 16);
  }
  const std::string Good = readFile(Path);
  ASSERT_NE(Good.find("cmcc-tune v3"), std::string::npos);
  ASSERT_NE(Good.find("time_tile"), std::string::npos);

  struct Damage {
    const char *Label;
    std::string Content;
  };
  const Damage Cases[] = {
      {"stale version", withLine(Good, "cmcc-tune", "cmcc-tune v9")},
      {"truncated", Good.substr(0, Good.find("time_tile"))},
      {"foreign machine", withLine(Good, "machine", "machine 9x9@7")},
      {"foreign backend", withLine(Good, "backend", "backend native")},
      {"garbage value", withLine(Good, "time_tile", "time_tile banana")},
      {"future key", Good + "voodoo 9\n"},
      {"wrong fingerprint",
       withLine(Good, "fingerprint", "fingerprint 00000000deadbeef")},
      {"v1 record", withLine(withLine(Good, "cmcc-tune", "cmcc-tune v1"),
                             "subgrid", "") +
                        "threads 0\nrows_per_tile 32\n"},
      {"v2 record", withLine(withLine(Good, "cmcc-tune", "cmcc-tune v2"),
                             "subgrid", "")},
      {"foreign subgrid", withLine(Good, "subgrid", "subgrid 8x8")},
  };

  for (const Damage &D : Cases) {
    SCOPED_TRACE(D.Label);
    writeFile(Path, D.Content);

    // Damage never half-applies: the record is a counted reject, the
    // cold resolve sweeps afresh...
    Autotuner Tuner(Config, AO);
    EXPECT_FALSE(Tuner.lookup(Fp, *B, 16, 16).has_value());
    Autotuner::Counters C = Tuner.counters();
    EXPECT_EQ(C.DiskRejects, 1);
    EXPECT_EQ(C.DiskHits, 0);
    EXPECT_EQ(C.Sweeps, 0);
    Autotuner::TunedParams P = Tuner.resolve(Fp, *B, Compiled, 16, 16);
    EXPECT_GE(P.TimeTile, 1);
    EXPECT_EQ(Tuner.counters().Sweeps, 1);

    // ...and the sweep heals the disk: a third tuner trusts it again.
    Autotuner Healed(Config, AO);
    EXPECT_TRUE(Healed.lookup(Fp, *B, 16, 16).has_value());
    EXPECT_EQ(Healed.counters().DiskHits, 1);
    EXPECT_EQ(Healed.counters().DiskRejects, 0);
  }

  // A missing record is a plain miss, not a reject.
  std::filesystem::remove(Path);
  Autotuner Tuner(Config, AO);
  EXPECT_FALSE(Tuner.lookup(Fp, *B, 16, 16).has_value());
  EXPECT_EQ(Tuner.counters().DiskRejects, 0);
}

TEST_F(TimeTileTest, AutotunerReplacesRecordsAtomically) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  CompiledStencil Compiled =
      compileSpec(Config, makePattern(PatternId::Cross5));
  std::unique_ptr<ExecutionBackend> B = createBackend("cm2", Config);
  ASSERT_NE(B, nullptr);
  ScratchDir Dir("atomic");
  const uint64_t Fp = 0x00a70a1cfeed0001ull;
  Autotuner::Options AO;
  AO.Dir = Dir.Path;
  const std::string Path = Autotuner::recordPath(Dir.Path, Fp, 16, 16);

  Autotuner Tuner(Config, AO);
  Tuner.tune(Fp, *B, Compiled, 16, 16);
  struct stat Before;
  ASSERT_EQ(::stat(Path.c_str(), &Before), 0);

  // A re-store installs a new file by rename; rewriting in place would
  // keep the inode and let a concurrent reader see a torn record.
  Tuner.tune(Fp, *B, Compiled, 16, 16);
  struct stat After;
  ASSERT_EQ(::stat(Path.c_str(), &After), 0);
  EXPECT_NE(After.st_ino, Before.st_ino);
  EXPECT_NE(readFile(Path).find("cmcc-tune v3"), std::string::npos);

  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    EXPECT_EQ(E.path().filename().string().find(".tmp"), std::string::npos)
        << E.path();
}

/// A wall-clock backend whose timeOnly reports a fixed per-depth cost
/// (depth 1 cheapest per timestep) and records it into the process-wide
/// backend.native.run_host_us histogram the way a real run does. While
/// depth 1 is being probed it also records one large sample there, the
/// way a job another worker runs at that moment would.
class ScriptedWallClockBackend : public ExecutionBackend {
public:
  explicit ScriptedWallClockBackend(const MachineConfig &Config)
      : Config(Config) {}
  const char *name() const override { return "native"; }
  bool reportsWallClock() const override { return true; }
  const MachineConfig &machine() const override { return Config; }
  Expected<TimingReport> runResolved(const CompiledStencil &,
                                     const ResolvedStencilArguments &,
                                     const RunOptions &) const override {
    return makeError("scripted backend runs nothing");
  }
  Expected<TimingReport> timeOnly(const CompiledStencil &, int, int,
                                  const RunOptions &Opts) const override {
    obs::Histogram &RunHostUs =
        obs::Registry::process().histogram("backend.native.run_host_us");
    // 100 us per timestep at depth 1, 25 us more per step per extra
    // fused step.
    const int K = Opts.TimeTile;
    const double RunUs = 100.0 * K * (1.0 + 0.25 * (K - 1));
    RunHostUs.observe(RunUs);
    if (K == 1)
      RunHostUs.observe(1e6); // Someone else's job, finishing meanwhile.
    TimingReport Report;
    Report.HostSecondsPerIteration = RunUs * 1e-6;
    return Report;
  }

private:
  MachineConfig Config;
};

TEST_F(TimeTileTest, AutotunerScoresEachDepthFromItsOwnRun) {
  // Scores come from each probe's own report: a concurrent job landing
  // in the process-wide run histogram during the depth-1 probe must not
  // make depth 1 look slow.
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  CompiledStencil Compiled =
      compileSpec(Config, makePattern(PatternId::Cross5));
  ScriptedWallClockBackend B(Config);
  Autotuner Tuner(Config, Autotuner::Options{});
  Autotuner::TunedParams P = Tuner.tune(0x5c0e5c0e5c0e0001ull, B, Compiled,
                                        16, 16);
  EXPECT_EQ(P.TimeTile, 1);
  EXPECT_DOUBLE_EQ(P.ScoreUs, 100.0);
}

/// cm2, with every timeOnly probe held for a few milliseconds: long
/// enough that callers released together all arrive during a sweep.
class SlowProbeBackend : public Cm2Backend {
public:
  using Cm2Backend::Cm2Backend;
  Expected<TimingReport> timeOnly(const CompiledStencil &Compiled, int SubRows,
                                  int SubCols,
                                  const RunOptions &Opts) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Cm2Backend::timeOnly(Compiled, SubRows, SubCols, Opts);
  }
};

TEST_F(TimeTileTest, AutotunerCoalescesConcurrentColdResolves) {
  // Eight jobs of one cold key, released together: exactly one sweeps,
  // the rest wait for its winner (or, arriving after it, hit memory),
  // and every caller gets the same depth.
  MachineConfig Config = MachineConfig::testMachine16();
  CompiledStencil Compiled = compileSpec(Config, scalarCrossSpec());
  SlowProbeBackend Slow(Config);
  Autotuner Tuner(Config, Autotuner::Options{});
  const uint64_t Fp = 0xc0a1e5cec0a1e5ceull;
  constexpr int Callers = 8;
  std::barrier Start(Callers);
  std::vector<int> Depths(Callers, 0);
  std::vector<std::thread> Threads;
  for (int I = 0; I != Callers; ++I)
    Threads.emplace_back([&, I] {
      Start.arrive_and_wait();
      Depths[I] = Tuner.resolve(Fp, Slow, Compiled, 8, 8).TimeTile;
    });
  for (std::thread &T : Threads)
    T.join();
  const Autotuner::Counters C = Tuner.counters();
  EXPECT_EQ(C.Sweeps, 1);
  EXPECT_EQ(C.Misses, 1);
  EXPECT_EQ(C.Coalesced + C.Hits, Callers - 1);
  EXPECT_GE(C.Coalesced, 1);
  for (int D : Depths)
    EXPECT_EQ(D, 8);
}

TEST_F(TimeTileTest, AutotunerKeysBySubgridShape) {
  // The best depth moves with the subgrid: on the scalar cross a deep
  // tile wins at 8x8, where exchange startup dominates a step, and
  // loses at 128x128, where edge recompute does. One tuner asked for
  // both shapes sweeps each, and each shape keeps its own record.
  MachineConfig Config = MachineConfig::testMachine16();
  CompiledStencil Compiled = compileSpec(Config, scalarCrossSpec());
  Cm2Backend Cm2(Config);
  ScratchDir Dir("shape");
  Autotuner::Options AO;
  AO.Dir = Dir.Path;
  const uint64_t Fp = 0x5ba9e5ba9e000001ull;

  Autotuner Tuner(Config, AO);
  EXPECT_EQ(Tuner.resolve(Fp, Cm2, Compiled, 8, 8).TimeTile, 8);
  EXPECT_EQ(Tuner.resolve(Fp, Cm2, Compiled, 128, 128).TimeTile, 1);
  EXPECT_EQ(Tuner.counters().Sweeps, 2);

  Autotuner Fresh(Config, AO);
  std::optional<Autotuner::TunedParams> Small = Fresh.lookup(Fp, Cm2, 8, 8);
  std::optional<Autotuner::TunedParams> Large =
      Fresh.lookup(Fp, Cm2, 128, 128);
  ASSERT_TRUE(Small.has_value());
  ASSERT_TRUE(Large.has_value());
  EXPECT_EQ(Small->TimeTile, 8);
  EXPECT_EQ(Large->TimeTile, 1);
  EXPECT_EQ(Fresh.counters().DiskHits, 2);
}

TEST_F(TimeTileTest, ServiceAutotunesOncePerFingerprint) {
  // Options.TimeTile = 0 hands the choice to the autotuner: the first
  // job of a fingerprint sweeps (counted), every later job reuses the
  // recorded winner — TimeTileUsed is stable and legal, and the sweep
  // count stays pinned at one.
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  ScratchDir Dir("service");
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.TimeTile = 0;
  Opts.TuneDir = Dir.Path;
  StencilService Service(Config, Opts);

  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  Req.SubRows = 16;
  Req.SubCols = 16;

  uint64_t Fp = 0;
  std::vector<int> Used;
  for (int I = 0; I != 4; ++I) {
    StencilService::JobResult R = Service.wait(Service.submit(Req));
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_GE(R.TimeTileUsed, 1);
    Fp = R.Fingerprint;
    Used.push_back(R.TimeTileUsed);
  }
  for (int U : Used)
    EXPECT_EQ(U, Used[0]);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.TuneMisses, 1);
  EXPECT_EQ(S.TuneSweeps, 1);
  EXPECT_EQ(S.TuneHits, 3);
  EXPECT_EQ(S.TuneDiskRejects, 0);
  EXPECT_EQ(S.JobsFailed, 0);
  EXPECT_TRUE(
      std::filesystem::exists(Autotuner::recordPath(Dir.Path, Fp, 16, 16)));

  // A fixed service depth pins every job; a per-request depth overrides
  // it. Neither touches the tuner.
  StencilService::Options Fixed = Opts;
  Fixed.TimeTile = 3;
  StencilService Pinned(Config, Fixed);
  StencilService::JobResult R3 = Pinned.wait(Pinned.submit(Req));
  ASSERT_TRUE(R3.Ok) << R3.Message;
  EXPECT_EQ(R3.TimeTileUsed, 3);
  StencilService::JobRequest Override = Req;
  Override.TimeTile = 2;
  StencilService::JobResult R2 = Pinned.wait(Pinned.submit(Override));
  ASSERT_TRUE(R2.Ok) << R2.Message;
  EXPECT_EQ(R2.TimeTileUsed, 2);
  EXPECT_EQ(Pinned.stats().TuneSweeps, 0);
}

TEST_F(TimeTileTest, HostServiceNeverTilesOrTunes) {
  // Host backends run one step per exchange: an autotuned service
  // default and a per-request depth both run depth 1, the tuner never
  // sweeps, and no .tune record lands beside the plans.
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  ScratchDir Dir("host_service");
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.Backend = "native";
  Opts.TimeTile = 0;
  Opts.TuneDir = Dir.Path;
  StencilService Service(Config, Opts);

  StencilService::JobRequest Auto;
  Auto.Kind = StencilService::SourceKind::FortranAssignment;
  Auto.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  Auto.SubRows = 16;
  Auto.SubCols = 16;
  StencilService::JobRequest Deep = Auto;
  Deep.TimeTile = 3;

  for (const StencilService::JobRequest &Req : {Auto, Deep}) {
    SCOPED_TRACE(Req.TimeTile);
    const StencilService::JobId Id = Service.submit(Req);
    StencilService::JobResult R = Service.wait(Id);
    ASSERT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.TimeTileUsed, 1);
    std::optional<StencilService::JobTimeline> T = Service.timeline(Id);
    ASSERT_TRUE(T.has_value());
    for (const StencilService::TimelineEntry &E : T->Events)
      EXPECT_NE(E.Event, StencilService::JobEvent::Autotuned);
  }

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.TuneSweeps, 0);
  EXPECT_EQ(S.TuneMisses, 0);
  EXPECT_EQ(S.JobsFailed, 0);
  if (std::filesystem::exists(Dir.Path)) {
    for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
      EXPECT_NE(E.path().extension(), ".tune") << E.path();
  }
}

} // namespace
