//===- tests/backend_equivalence_test.cpp - cm2 vs native -----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract between the execution backends: running the same
/// CompiledStencil over bit-identical inputs through the simulated cm2
/// backend and each wall-clock backend (native, njit) must agree
///
///   * bitwise for single-term stencils (both sides compute the one
///     rounded product `Data * (Sign * Coeff)` added to 0.0f), and
///   * within 1 ulp per term otherwise — the only licensed difference
///     is accumulation order (the compiled schedule may permute taps;
///     native and njit add in spec order), and reordering N separately
///     rounded float terms perturbs the sum by at most ~N ulps of
///     sum |term|.
///
/// njit additionally must match native *bitwise for every stencil*: its
/// emitted kernel performs the identical sequence of rounded float
/// operations (Emitter.h), so there is no licensed difference at all.
/// njit legs are skipped when no host toolchain is available.
///
/// Exercised over every spec in examples/stencils/ (via every front-end
/// entry point: assignment, SUBROUTINE, defstencil) plus randomized
/// multi-source specs, subgrid shapes, and machine grids.
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "backends/cm2/Cm2Backend.h"
#include "backends/native/NativeBackend.h"
#include "backends/njit/Toolchain.h"
#include "core/Compiler.h"
#include "core/PlanFingerprint.h"
#include "runtime/Reference.h"
#include "stencil/PatternLibrary.h"
#include "support/Random.h"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

using namespace cmcc;

namespace {

/// Identically seeded argument set: each backend gets its own arrays
/// (a run writes Result), built from the same seeds so the inputs are
/// bit-identical across backends.
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
      Globals.push_back(std::move(G));
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

  /// Reference-evaluator view of the same globals (for tolerance
  /// scales).
  ReferenceBindings referenceBindings(const StencilSpec &Spec) const {
    ReferenceBindings B;
    B.Source = &Globals[0];
    for (size_t I = 0; I != Spec.ExtraSources.size(); ++I)
      B.ExtraSources[Spec.ExtraSources[I]] = &Globals[1 + I];
    std::vector<std::string> CoeffNames = Spec.coefficientArrayNames();
    for (size_t I = 0; I != CoeffNames.size(); ++I)
      B.Coefficients[CoeffNames[I]] = &Globals[1 + Spec.ExtraSources.size() + I];
    return B;
  }

  NodeGrid Grid;
  DistributedArray R;
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  std::vector<Array2D> Globals;
  StencilArguments Args;
};

/// One ulp of |X| (the gap to the next float up).
float ulpOf(float X) {
  float A = std::fabs(X);
  return std::nextafter(A, std::numeric_limits<float>::infinity()) - A;
}

/// Sum of |Sign * Coeff * Data| per point — the scale the reordering
/// tolerance is expressed in. Same boundary logic as the reference
/// evaluator.
Array2D absTermSums(const StencilSpec &Spec, const ReferenceBindings &B,
                    int Rows, int Cols) {
  Array2D Scale(Rows, Cols);
  auto SourceArray = [&](int Index) -> const Array2D * {
    if (Index == 0)
      return B.Source;
    return B.ExtraSources.at(Spec.sourceName(Index));
  };
  auto SourceAt = [&](int Index, int R, int C) -> float {
    bool RowOutside = R < 0 || R >= Rows;
    bool ColOutside = C < 0 || C >= Cols;
    if ((RowOutside && Spec.BoundaryDim1 == BoundaryKind::Zero) ||
        (ColOutside && Spec.BoundaryDim2 == BoundaryKind::Zero))
      return 0.0f;
    return SourceArray(Index)->atWrapped(R, C);
  };
  for (int R = 0; R != Rows; ++R)
    for (int C = 0; C != Cols; ++C) {
      double Sum = 0.0;
      for (const Tap &T : Spec.Taps) {
        float Coeff = T.Coeff.isArray()
                          ? B.Coefficients.at(T.Coeff.Name)->at(R, C)
                          : static_cast<float>(T.Coeff.Value);
        float Data =
            T.HasData ? SourceAt(T.SourceIndex, R + T.At.Dy, C + T.At.Dx)
                      : 1.0f;
        Sum += std::fabs(static_cast<double>(T.Sign) * Coeff * Data);
      }
      Scale.at(R, C) = static_cast<float>(Sum);
    }
  return Scale;
}

/// Runs \p Compiled through the cm2 backend and every wall-clock
/// backend over bit-identical inputs and asserts the equivalence
/// contract (njit legs skip silently when no host toolchain exists —
/// the seam test covers availability reporting).
void expectBackendsAgree(const MachineConfig &Config,
                         const CompiledStencil &Compiled, int SubRows,
                         int SubCols, uint64_t Seed,
                         const std::string &Label) {
  SCOPED_TRACE(Label);
  const StencilSpec &Spec = Compiled.Spec;
  BoundArrays Cm2Side(Config, Spec, SubRows, SubCols, Seed);

  Cm2Backend Cm2(Config);
  Expected<TimingReport> Sim = Cm2.run(Compiled, Cm2Side.Args, 1);
  ASSERT_TRUE(Sim) << "cm2 run failed: " << Sim.error().message();
  EXPECT_FALSE(Cm2.reportsWallClock());
  Array2D Want = Cm2Side.R.gather();

  auto CompareToCm2 = [&](const Array2D &Got, const char *Which) {
    ASSERT_EQ(Want.rows(), Got.rows());
    ASSERT_EQ(Want.cols(), Got.cols());
    if (Spec.Taps.size() == 1) {
      // One term: no reordering is possible, so the backends must
      // agree bit for bit.
      EXPECT_EQ(std::memcmp(Want.data(), Got.data(),
                            sizeof(float) * Want.rows() * Want.cols()),
                0)
          << "single-term stencil diverged; max |diff| "
          << Array2D::maxAbsDifference(Want, Got) << "\n"
          << Spec.str();
      return;
    }
    Array2D Scale = absTermSums(Spec, Cm2Side.referenceBindings(Spec),
                                Want.rows(), Want.cols());
    int BadPoints = 0;
    for (int R = 0; R != Want.rows(); ++R)
      for (int C = 0; C != Want.cols(); ++C) {
        float Tol =
            static_cast<float>(Spec.Taps.size()) * ulpOf(Scale.at(R, C));
        float Diff = std::fabs(Want.at(R, C) - Got.at(R, C));
        if (!(Diff <= Tol) && ++BadPoints <= 3)
          ADD_FAILURE() << "point (" << R << "," << C << "): cm2 "
                        << Want.at(R, C) << " " << Which << " "
                        << Got.at(R, C) << " diff " << Diff << " > tol "
                        << Tol << " (" << Spec.Taps.size()
                        << " terms, scale " << Scale.at(R, C) << ")\n"
                        << Spec.str();
      }
    EXPECT_EQ(BadPoints, 0) << Spec.str();
  };

  std::optional<Array2D> NativeGot, NjitGot;
  for (const char *Name : {"native", "njit"}) {
    if (std::string_view(Name) == "njit" && !isBackendAvailable("njit"))
      continue;
    SCOPED_TRACE(Name);
    std::unique_ptr<ExecutionBackend> Backend = createBackend(Name, Config);
    ASSERT_NE(Backend, nullptr);
    BoundArrays Side(Config, Spec, SubRows, SubCols, Seed);
    Expected<TimingReport> Wall = Backend->run(Compiled, Side.Args, 1);
    ASSERT_TRUE(Wall) << Name << " run failed: " << Wall.error().message();
    EXPECT_TRUE(Backend->reportsWallClock());
    Array2D Got = Side.R.gather();
    CompareToCm2(Got, Name);
    (std::string_view(Name) == "native" ? NativeGot : NjitGot) =
        std::move(Got);
  }

  // njit emits the same sequence of rounded float operations native
  // executes, so the two wall-clock backends have no licensed
  // difference at all: bitwise, every stencil.
  if (NativeGot && NjitGot) {
    EXPECT_EQ(std::memcmp(NativeGot->data(), NjitGot->data(),
                          sizeof(float) * NativeGot->rows() *
                              NativeGot->cols()),
              0)
        << "njit diverged from native; max |diff| "
        << Array2D::maxAbsDifference(*NativeGot, *NjitGot) << "\n"
        << Spec.str();
  }
}

/// Compile-then-compare convenience for spec-level cases.
void expectBackendsAgree(const MachineConfig &Config, const StencilSpec &Spec,
                         int SubRows, int SubCols, uint64_t Seed,
                         const std::string &Label) {
  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  ASSERT_TRUE(Compiled) << "compile failed: " << Compiled.error().message()
                        << "\nspec: " << Spec.str();
  expectBackendsAgree(Config, *Compiled, SubRows, SubCols, Seed, Label);
}

/// Same generator as property_test: random (possibly multi-source)
/// specs with mixed signs, scalar coefficients, bare terms, and zero
/// boundaries.
StencilSpec randomSpec(SplitMix64 &Rng, int MaxSources) {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X0";
  int Sources = 1 + static_cast<int>(Rng.nextBelow(MaxSources));
  for (int S = 1; S < Sources; ++S)
    Spec.ExtraSources.push_back("X" + std::to_string(S));

  int Taps = 1 + static_cast<int>(Rng.nextBelow(10));
  for (int I = 0; I != Taps; ++I) {
    Tap T;
    T.At = {static_cast<int>(Rng.nextInRange(-2, 2)),
            static_cast<int>(Rng.nextInRange(-2, 2))};
    T.SourceIndex = I == 0 ? 0 : static_cast<int>(Rng.nextBelow(Sources));
    T.Sign = Rng.nextBelow(2) ? 1.0 : -1.0;
    if (Rng.nextBelow(3) == 0)
      T.Coeff = Coefficient::scalar(Rng.nextFloatInRange(-2.0f, 2.0f));
    else
      T.Coeff = Coefficient::array("C" + std::to_string(I));
    Spec.Taps.push_back(std::move(T));
  }
  if (Rng.nextBelow(3) == 0) {
    Tap Bare;
    Bare.HasData = false;
    Bare.Coeff = Coefficient::array("CBARE");
    Bare.Sign = Rng.nextBelow(2) ? 1.0 : -1.0;
    Spec.Taps.push_back(std::move(Bare));
  }
  if (Rng.nextBelow(2) == 0)
    Spec.BoundaryDim1 = BoundaryKind::Zero;
  if (Rng.nextBelow(2) == 0)
    Spec.BoundaryDim2 = BoundaryKind::Zero;
  return Spec;
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// The examples/stencils corpus, through every front-end entry point
//===----------------------------------------------------------------------===//

TEST(ExamplesCorpusTest, EveryStencilSourceAgreesAcrossBackends) {
  namespace fs = std::filesystem;
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  ConvolutionCompiler CC(Config);
  CC.setAllowMultipleSources(true);

  int Compared = 0;
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(CMCC_EXAMPLES_DIR))
    Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());

  for (const fs::path &Path : Files) {
    std::string Ext = Path.extension().string();
    if (Ext != ".f90" && Ext != ".lisp")
      continue; // demo.jobs is a manifest, not a stencil source.
    SCOPED_TRACE(Path.string());
    std::string Source = readFile(Path);
    std::optional<CompiledStencil> Compiled;
    if (Ext == ".lisp") {
      DiagnosticEngine Diags;
      Compiled = CC.compileDefStencil(Source, Diags);
    } else {
      DiagnosticEngine SubDiags;
      Compiled = CC.compileSubroutine(Source, SubDiags);
      if (!Compiled) {
        // Bare-assignment examples (seismic_fused.f90) take the
        // version-3 entry point.
        DiagnosticEngine AsgDiags;
        Compiled = CC.compileAssignment(Source, AsgDiags);
      }
    }
    ASSERT_TRUE(Compiled) << "no front end compiled " << Path;
    expectBackendsAgree(Config, *Compiled, 12, 14,
                        0xc0de00 + static_cast<uint64_t>(Compared),
                        Path.filename().string());
    ++Compared;
  }
  // The corpus must actually cover the cross (Fortran + Lisp), the
  // diamond, and the fused multi-source example.
  EXPECT_GE(Compared, 4);
}

//===----------------------------------------------------------------------===//
// Randomized specs
//===----------------------------------------------------------------------===//

class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, NativeMatchesCm2) {
  SplitMix64 Rng(0xbac0de + GetParam());
  StencilSpec Spec = randomSpec(Rng, /*MaxSources=*/3);
  int SubRows = 4 + static_cast<int>(Rng.nextBelow(10));
  int SubCols = 4 + static_cast<int>(Rng.nextBelow(10));
  expectBackendsAgree(MachineConfig::withNodeGrid(2, 2), Spec, SubRows,
                      SubCols, 4400 + GetParam(),
                      "random spec " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomEquivalenceTest,
                         ::testing::Range(0, 24));

//===----------------------------------------------------------------------===//
// Single-term stencils are bitwise across machine shapes
//===----------------------------------------------------------------------===//

class SingleTermBitwiseTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SingleTermBitwiseTest, BitwiseOnEveryGrid) {
  auto [Rows, Cols] = GetParam();
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  Tap T;
  T.At = {1, -1};
  T.Coeff = Coefficient::array("C");
  T.Sign = -1.0;
  Spec.Taps.push_back(T);
  expectBackendsAgree(MachineConfig::withNodeGrid(Rows, Cols), Spec, 6, 7,
                      91 + Rows * 13 + Cols,
                      std::to_string(Rows) + "x" + std::to_string(Cols));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SingleTermBitwiseTest,
    ::testing::Values(std::pair{1, 1}, std::pair{1, 4}, std::pair{4, 1},
                      std::pair{2, 2}, std::pair{4, 4}));

//===----------------------------------------------------------------------===//
// Seam plumbing: registry, validation parity, fingerprint tags
//===----------------------------------------------------------------------===//

TEST(BackendSeamTest, RegistryListsAndBuildsEveryBackend) {
  MachineConfig Config = MachineConfig::testMachine16();
  std::vector<std::string> Names = availableBackendNames();
  ASSERT_EQ(Names.size(), 3u);
  EXPECT_EQ(Names[0], "cm2");
  EXPECT_EQ(Names[1], "native");
  EXPECT_EQ(Names[2], "njit");
  // Sorted = a stable --list-backends order as backends are added.
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end()));
  for (const std::string &Name : Names) {
    EXPECT_TRUE(isBackendName(Name));
    std::unique_ptr<ExecutionBackend> B = createBackend(Name, Config);
    ASSERT_NE(B, nullptr);
    EXPECT_EQ(B->name(), Name);
  }
  // Registered vs available: cm2 and native always run; njit tracks
  // the host toolchain probe. Unavailable backends still construct.
  EXPECT_TRUE(isBackendAvailable("cm2"));
  EXPECT_TRUE(isBackendAvailable("native"));
  EXPECT_EQ(isBackendAvailable("njit"), njit::toolchainAvailable());
  EXPECT_FALSE(isBackendName("vax"));
  EXPECT_FALSE(isBackendAvailable("vax"));
  EXPECT_EQ(createBackend("vax", Config), nullptr);
}

TEST(BackendSeamTest, UnknownBackendErrorListsEveryRegisteredName) {
  Error E = unknownBackendError("vax");
  ASSERT_TRUE(E);
  // The diagnostic names the offender and every registered backend in
  // the registry's stable (sorted) order — the tools print this
  // verbatim for a bad --backend= value.
  EXPECT_NE(E.message().find("'vax'"), std::string::npos) << E.message();
  EXPECT_NE(E.message().find("cm2, native, njit"), std::string::npos)
      << E.message();
  EXPECT_FALSE(E.isTransient());
}

TEST(BackendSeamTest, BothBackendsRejectUnboundArgumentsIdentically) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  ConvolutionCompiler CC(Config);
  StencilSpec Spec = makeSpecFromOffsets({{0, 0}, {0, 1}});
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  ASSERT_TRUE(Compiled);
  for (const std::string &Name : availableBackendNames()) {
    std::unique_ptr<ExecutionBackend> B = createBackend(Name, Config);
    StencilArguments Empty;
    Expected<TimingReport> Report = B->run(*Compiled, Empty, 1);
    ASSERT_FALSE(Report) << Name;
    EXPECT_EQ(Report.error().message(),
              "result and source arrays must be bound")
        << Name;
  }
}

TEST(BackendSeamTest, FingerprintTagsNonDefaultBackendsOnly) {
  MachineConfig Config = MachineConfig::testMachine16();
  StencilSpec Spec = makeSpecFromOffsets({{-1, 0}, {0, 0}, {1, 0}});
  ConvolutionCompiler CC(Config);
  ASSERT_TRUE(CC.compile(Spec));
  // The cm2 fingerprint is the pre-seam fingerprint (disk caches stay
  // valid); native gets its own namespace.
  EXPECT_EQ(planFingerprint(Spec, Config),
            planFingerprint(Spec, Config, "cm2"));
  EXPECT_EQ(planFingerprintText(Spec, Config),
            planFingerprintText(Spec, Config, "cm2"));
  EXPECT_NE(planFingerprint(Spec, Config, "native"),
            planFingerprint(Spec, Config, "cm2"));
  EXPECT_NE(planFingerprintText(Spec, Config, "native")
                .find("backend native"),
            std::string::npos);
  EXPECT_NE(planFingerprint(Spec, Config, "njit"),
            planFingerprint(Spec, Config, "cm2"));
  EXPECT_NE(planFingerprint(Spec, Config, "njit"),
            planFingerprint(Spec, Config, "native"));
  EXPECT_NE(planFingerprintText(Spec, Config, "njit").find("backend njit"),
            std::string::npos);
  // Fingerprints name the on-disk .cmccode/.tune files and the njit
  // artifacts, so a rewrite of the hash must not move them.
  const StencilSpec Cross5 = makePattern(PatternId::Cross5);
  EXPECT_EQ(planFingerprint(Cross5, Config), 0xb31a54ad02edb8b0ull);
  EXPECT_EQ(planFingerprint(Cross5, Config, "njit"), 0xc3ec7fbcd28f65ddull);
}

TEST(BackendSeamTest, NativeTimeOnlyReportsWallClock) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  ConvolutionCompiler CC(Config);
  StencilSpec Spec = makeSpecFromOffsets({{-1, 0}, {0, -1}, {0, 0}});
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  ASSERT_TRUE(Compiled);
  NativeBackend Native(Config);
  Expected<TimingReport> Report = Native.timeOnly(*Compiled, 32, 32, 3);
  ASSERT_TRUE(Report) << Report.error().message();
  EXPECT_GT(Report->secondsPerIteration(), 0.0);
  EXPECT_EQ(Report->Cycles.total(), 0);
  // And a border larger than the subgrid fails like a real run.
  StencilSpec Wide = makeSpecFromOffsets({{-2, 0}, {0, 0}});
  Expected<CompiledStencil> WideCompiled = CC.compile(Wide);
  ASSERT_TRUE(WideCompiled);
  Expected<TimingReport> Err = Native.timeOnly(*WideCompiled, 1, 4, 1);
  ASSERT_FALSE(Err);
  EXPECT_NE(Err.error().message().find("border"), std::string::npos);
}
