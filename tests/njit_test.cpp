//===- tests/njit_test.cpp - njit backend and artifact cache --*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The njit backend's own contract, beyond the cross-backend numerics
/// backend_equivalence_test covers:
///
///   * the emitter constant-folds scalar coefficients into exact
///     hex-float literals and stamps the plan fingerprint;
///   * the two-tier artifact cache: cold run compiles once, a second
///     run is a memory hit, a fresh backend over the same directory (a
///     warm restart) is a disk hit with ZERO toolchain invocations;
///   * a corrupt or truncated on-disk .so is a counted reject followed
///     by a clean recompile — never a crash, never a stale result;
///   * a missing/broken host toolchain (CMCC_NJIT_CC) makes the backend
///     unavailable and its runs transiently failing, so a
///     StencilService degrades to the cm2 fallback with a counted
///     service.fallbacks bump — likewise for the `njit.cc` fault site.
///
/// Tests that need to *run* kernels skip when no host toolchain exists.
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "backends/native/NativeBackend.h"
#include "backends/njit/Emitter.h"
#include "backends/njit/NjitBackend.h"
#include "backends/njit/Toolchain.h"
#include "core/Compiler.h"
#include "core/PlanFingerprint.h"
#include "service/StencilService.h"
#include "stencil/PatternLibrary.h"
#include "support/FaultInjection.h"
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>

using namespace cmcc;

namespace {

namespace fs = std::filesystem;

/// A fresh, empty artifact directory per test, removed afterwards, so
/// cache-counter assertions never see another test's (or a parallel
/// ctest process's) artifacts.
class NjitTest : public ::testing::Test {
protected:
  void SetUp() override {
    fault::Registry::process().reset();
    fault::Registry::process().setSeed(0);
    Dir = fs::temp_directory_path() /
          (std::string("cmcc_njit_test.") + std::to_string(::getpid()) + "." +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(Dir);
  }
  void TearDown() override {
    fault::Registry::process().reset();
    fs::remove_all(Dir);
  }

  NjitBackend::Options options() const {
    NjitBackend::Options Opts;
    Opts.CacheDir = Dir.string();
    return Opts;
  }

  fs::path Dir;
};

/// Restores (or clears) one environment variable on scope exit.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    ::setenv(Name, Value, 1);
  }
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name, Saved->c_str(), 1);
    else
      ::unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

CompiledStencil compileSpec(const MachineConfig &Config,
                            const StencilSpec &Spec) {
  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  EXPECT_TRUE(Compiled) << Compiled.error().message();
  return Compiled.takeValue();
}

/// Bound arrays for a functional run (same shape as service_test's).
struct BoundArrays {
  StencilArguments Args;
  std::unique_ptr<DistributedArray> Result, Source;
  std::vector<std::unique_ptr<DistributedArray>> Coefficients;

  BoundArrays(const MachineConfig &M, const StencilSpec &Spec, int Sub,
              uint64_t Seed)
      : Grid(M) {
    Result = std::make_unique<DistributedArray>(Grid, Sub, Sub);
    Source = std::make_unique<DistributedArray>(Grid, Sub, Sub);
    Array2D GlobalX(Result->globalRows(), Result->globalCols());
    GlobalX.fillRandom(Seed);
    Source->scatter(GlobalX);
    Args.Result = Result.get();
    Args.Source = Source.get();
    int Index = 0;
    for (const std::string &Name : Spec.coefficientArrayNames()) {
      auto C = std::make_unique<DistributedArray>(Grid, Sub, Sub);
      Array2D G(Result->globalRows(), Result->globalCols());
      G.fillRandom(Seed + 1000 + Index++);
      C->scatter(G);
      Args.Coefficients[Name] = C.get();
      Coefficients.push_back(std::move(C));
    }
  }

private:
  NodeGrid Grid;
};

} // namespace

//===----------------------------------------------------------------------===//
// Emitter
//===----------------------------------------------------------------------===//

TEST(NjitEmitterTest, FoldsScalarCoefficientsToExactHexFloats) {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  Tap Scaled;
  Scaled.At = {0, 1};
  Scaled.Coeff = Coefficient::scalar(0.25);
  Scaled.Sign = -1.0;
  Spec.Taps.push_back(Scaled);
  Tap Arr;
  Arr.At = {1, 0};
  Arr.Coeff = Coefficient::array("C");
  Arr.Sign = -1.0;
  Spec.Taps.push_back(Arr);

  std::string Source = njit::emitKernelSource(Spec, "00000000deadbeef");
  // The fingerprint stamp and ABI version are exported for post-dlopen
  // validation.
  EXPECT_NE(Source.find("cmcc_njit_fingerprint[] = \"00000000deadbeef\""),
            std::string::npos)
      << Source;
  EXPECT_NE(Source.find("cmcc_njit_abi"), std::string::npos);
  // -1 * 0.25 folds at emit time into the exact hex-float -0x1p-2.
  EXPECT_NE(Source.find("* -0x1p-2f"), std::string::npos) << Source;
  // The array-coefficient term folds its sign symbolically: a negation,
  // never a multiply by a runtime -1.0.
  EXPECT_NE(Source.find("(-Q1[J])"), std::string::npos) << Source;
  // One fused accumulation chain: exactly one "Acc +=" per tap.
  size_t Count = 0;
  for (size_t At = Source.find("Acc +="); At != std::string::npos;
       At = Source.find("Acc +=", At + 1))
    ++Count;
  EXPECT_EQ(Count, Spec.Taps.size());
}

//===----------------------------------------------------------------------===//
// Toolchain identity
//===----------------------------------------------------------------------===//

TEST(NjitToolchainTest, HostIsaStampIsPartOfTheIdentity) {
  // Artifacts target the host ISA: the same compiler on a CPU with a
  // different stamp must land in a different artifact namespace.
  const std::string Here = njit::hostIsaStamp();
  EXPECT_FALSE(Here.empty());
  EXPECT_EQ(njit::hostIsaStamp(), Here); // Stable within a process.
  njit::Toolchain Local, Same, Other;
  Local.IdentityHash = njit::toolchainIdentity("/usr/bin/c++", 1234, 5678, Here);
  Same.IdentityHash = njit::toolchainIdentity("/usr/bin/c++", 1234, 5678, Here);
  Other.IdentityHash =
      njit::toolchainIdentity("/usr/bin/c++", 1234, 5678, Here + "+avx");
  EXPECT_EQ(Local.identityHex(), Same.identityHex());
  EXPECT_NE(Local.identityHex(), Other.identityHex());
  // The identity names the cc-<identity> artifact directories. For fixed
  // inputs its value is pinned; bumping CompileFlags or EmitterVersion
  // moves it on purpose, and this value with it.
  EXPECT_EQ(njit::toolchainIdentity("/usr/bin/c++", 1234, 5678, "x86_64"),
            0xfcf6ce302fd015e6ull);
  EXPECT_NE(std::string(njit::CompileFlags).find("-march=native"),
            std::string::npos);

  // The detected toolchain is keyed by this host's stamp.
  Expected<njit::Toolchain> TC = njit::detectToolchain();
  if (!TC)
    GTEST_SKIP() << "no host C++ toolchain";
  struct stat St;
  ASSERT_EQ(::stat(TC->Compiler.c_str(), &St), 0);
  EXPECT_EQ(TC->IdentityHash,
            njit::toolchainIdentity(TC->Compiler, St.st_size, St.st_mtime,
                                    Here));
}

//===----------------------------------------------------------------------===//
// Artifact cache: cold / warm / restart / corruption
//===----------------------------------------------------------------------===//

TEST_F(NjitTest, ColdCompilesOnceThenMemoryThenDiskOnRestart) {
  if (!njit::toolchainAvailable())
    GTEST_SKIP() << "no host C++ toolchain";
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  CompiledStencil Compiled =
      compileSpec(Config, makeSpecFromOffsets({{0, 0}, {0, 1}, {1, 0}}));

  NjitBackend Cold(Config, options());
  ASSERT_TRUE(Cold.timeOnly(Compiled, 8, 8, 1));
  njit::ArtifactCache::Counters C = Cold.cache().counters();
  EXPECT_EQ(C.Misses, 1);
  EXPECT_EQ(C.Compiles, 1);
  EXPECT_EQ(C.MemHits, 0);
  EXPECT_EQ(C.DiskHits, 0);

  // Second run in the same process: the handle table answers.
  ASSERT_TRUE(Cold.timeOnly(Compiled, 8, 8, 1));
  C = Cold.cache().counters();
  EXPECT_EQ(C.MemHits, 1);
  EXPECT_EQ(C.Compiles, 1);

  // The artifact and its emitted source are inspectable on disk, and
  // the source carries the plan fingerprint stamp.
  uint64_t Fp = planFingerprint(Compiled.Spec, Config, "njit");
  std::string So = Cold.cache().artifactPath(Fp);
  ASSERT_FALSE(So.empty());
  EXPECT_TRUE(fs::exists(So));
  fs::path Cpp = fs::path(So).replace_extension(".cpp");
  ASSERT_TRUE(fs::exists(Cpp));
  std::ifstream In(Cpp);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find(fingerprintHex(Fp)), std::string::npos);

  // A fresh backend over the same directory models a warm service
  // restart: the disk tier answers and the toolchain is NEVER invoked.
  NjitBackend Warm(Config, options());
  ASSERT_TRUE(Warm.timeOnly(Compiled, 8, 8, 1));
  C = Warm.cache().counters();
  EXPECT_EQ(C.DiskHits, 1);
  EXPECT_EQ(C.Compiles, 0);
  EXPECT_EQ(C.Misses, 0);
  EXPECT_EQ(C.DiskRejects, 0);
}

TEST_F(NjitTest, CorruptOrTruncatedArtifactIsRejectedAndRecompiled) {
  if (!njit::toolchainAvailable())
    GTEST_SKIP() << "no host C++ toolchain";
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec Spec = makeSpecFromOffsets({{-1, 0}, {0, 0}, {0, -1}});
  CompiledStencil Compiled = compileSpec(Config, Spec);
  uint64_t Fp = planFingerprint(Spec, Config, "njit");

  // What the kernel should produce: the native backend is the bitwise
  // reference for njit.
  constexpr int Sub = 8;
  BoundArrays NativeSide(Config, Spec, Sub, 7);
  NativeBackend Native(Config);
  ASSERT_TRUE(Native.run(Compiled, NativeSide.Args, 1));
  Array2D Want = NativeSide.Result->gather();

  for (const char *Mode : {"garbage", "truncated"}) {
    SCOPED_TRACE(Mode);
    fs::remove_all(Dir);
    NjitBackend Seed(Config, options());
    ASSERT_TRUE(Seed.timeOnly(Compiled, Sub, Sub, 1));
    std::string So = Seed.cache().artifactPath(Fp);
    ASSERT_TRUE(fs::exists(So));

    // Vandalize the artifact the way real disks do: garbage contents,
    // or a partial write. Recreate the file under a fresh inode —
    // in-place rewrite of a still-mapped .so would clobber the seed
    // backend's live text pages (SIGBUS), which is not the scenario:
    // corruption is discovered on disk by a later process.
    std::string Prefix;
    if (std::string_view(Mode) == "truncated") {
      std::ifstream In(So, std::ios::binary);
      Prefix.resize(16);
      In.read(Prefix.data(), static_cast<std::streamsize>(Prefix.size()));
    } else {
      Prefix = "this is not an ELF shared object";
    }
    fs::remove(So);
    std::ofstream Out(So, std::ios::binary);
    Out << Prefix;
    Out.close();

    // A fresh backend must detect the damage, count it, recompile, and
    // still produce the right bits.
    NjitBackend Fresh(Config, options());
    BoundArrays NjitSide(Config, Spec, Sub, 7);
    ASSERT_TRUE(Fresh.run(Compiled, NjitSide.Args, 1));
    njit::ArtifactCache::Counters C = Fresh.cache().counters();
    EXPECT_EQ(C.DiskRejects, 1);
    EXPECT_EQ(C.Compiles, 1);
    EXPECT_EQ(C.DiskHits, 0);
    Array2D Got = NjitSide.Result->gather();
    EXPECT_EQ(std::memcmp(Want.data(), Got.data(),
                          sizeof(float) * Want.rows() * Want.cols()),
              0);
  }
}

TEST_F(NjitTest, MisStampedArtifactIsRejected) {
  if (!njit::toolchainAvailable())
    GTEST_SKIP() << "no host C++ toolchain";
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  StencilSpec A = makeSpecFromOffsets({{0, 0}, {0, 1}});
  StencilSpec B = makeSpecFromOffsets({{0, 0}, {1, 0}});
  CompiledStencil CompiledA = compileSpec(Config, A);
  CompiledStencil CompiledB = compileSpec(Config, B);

  NjitBackend Seed(Config, options());
  ASSERT_TRUE(Seed.timeOnly(CompiledA, 8, 8, 1));

  // Plant plan A's (valid, loadable) artifact under plan B's key: the
  // fingerprint stamp inside the .so is what catches mis-keyed files.
  std::string PathA =
      Seed.cache().artifactPath(planFingerprint(A, Config, "njit"));
  std::string PathB =
      Seed.cache().artifactPath(planFingerprint(B, Config, "njit"));
  fs::copy_file(PathA, PathB);

  NjitBackend Fresh(Config, options());
  ASSERT_TRUE(Fresh.timeOnly(CompiledB, 8, 8, 1));
  njit::ArtifactCache::Counters C = Fresh.cache().counters();
  EXPECT_EQ(C.DiskRejects, 1);
  EXPECT_EQ(C.Compiles, 1);
}

//===----------------------------------------------------------------------===//
// Wall-clock reporting
//===----------------------------------------------------------------------===//

TEST_F(NjitTest, TimeOnlyReportsWallClockAndFailsLikeARealRun) {
  if (!njit::toolchainAvailable())
    GTEST_SKIP() << "no host C++ toolchain";
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  ConvolutionCompiler CC(Config);
  NjitBackend Backend(Config, options());
  Expected<CompiledStencil> Compiled =
      CC.compile(makeSpecFromOffsets({{-1, 0}, {0, -1}, {0, 0}}));
  ASSERT_TRUE(Compiled);
  Expected<TimingReport> Report = Backend.timeOnly(*Compiled, 32, 32, 3);
  ASSERT_TRUE(Report) << Report.error().message();
  EXPECT_GT(Report->secondsPerIteration(), 0.0);
  EXPECT_EQ(Report->Cycles.total(), 0);
  // A border larger than the subgrid fails like a real run.
  Expected<CompiledStencil> Wide =
      CC.compile(makeSpecFromOffsets({{-2, 0}, {0, 0}}));
  ASSERT_TRUE(Wide);
  Expected<TimingReport> Err = Backend.timeOnly(*Wide, 1, 4, 1);
  ASSERT_FALSE(Err);
  EXPECT_NE(Err.error().message().find("border"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Graceful degradation: broken toolchain, njit.cc faults
//===----------------------------------------------------------------------===//

TEST_F(NjitTest, BrokenCompilerEnvMakesBackendUnavailableAndTransient) {
  ScopedEnv Env("CMCC_NJIT_CC", "/nonexistent/c++");
  // CMCC_NJIT_CC is authoritative: no silent fallback to PATH.
  EXPECT_FALSE(njit::toolchainAvailable());
  EXPECT_FALSE(isBackendAvailable("njit"));
  // But njit stays *registered* — callers can still construct it and
  // get a useful (transient) error at run time.
  EXPECT_TRUE(isBackendName("njit"));

  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  NjitBackend Backend(Config, options());
  CompiledStencil Compiled =
      compileSpec(Config, makeSpecFromOffsets({{0, 0}, {0, 1}}));
  Expected<TimingReport> Report = Backend.timeOnly(Compiled, 8, 8, 1);
  ASSERT_FALSE(Report);
  EXPECT_TRUE(Report.error().isTransient());
  EXPECT_NE(Report.error().message().find("CMCC_NJIT_CC"),
            std::string::npos);
}

TEST_F(NjitTest, ServiceFallsBackToCm2WhenToolchainIsMissing) {
  ScopedEnv Env("CMCC_NJIT_CC", "/nonexistent/c++");
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.Backend = "njit";
  StencilService Service(MachineConfig::withNodeGrid(2, 2), Opts);

  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  Req.SubRows = Req.SubCols = 8;

  StencilService::JobResult R = Service.wait(Service.submit(Req));
  EXPECT_TRUE(R.Ok) << R.Message;
  EXPECT_TRUE(R.FellBack);
  // The report simulates cycles: proof it came from the cm2 fallback.
  EXPECT_GT(R.Report.Cycles.total(), 0);
  EXPECT_EQ(Service.stats().Fallbacks, 1);
}

TEST_F(NjitTest, NjitCcFaultEngagesServiceFallbackLadder) {
  if (!njit::toolchainAvailable())
    GTEST_SKIP() << "no host C++ toolchain";
  fault::Rule R;
  R.Site = "njit.cc";
  R.Rate = 1.0;
  fault::Registry::process().arm(R);

  ScopedEnv Env("CMCC_NJIT_CACHE_DIR", Dir.string().c_str());
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.Backend = "njit";
  Opts.MaxRetries = 1;
  StencilService Service(MachineConfig::withNodeGrid(2, 2), Opts);

  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  Req.SubRows = Req.SubCols = 8;

  StencilService::JobResult Result = Service.wait(Service.submit(Req));
  EXPECT_TRUE(Result.Ok) << Result.Message;
  EXPECT_TRUE(Result.FellBack);
  EXPECT_EQ(Result.Retries, 1); // One njit retry before falling back.
  EXPECT_GT(Result.Report.Cycles.total(), 0);
  EXPECT_EQ(Service.stats().Fallbacks, 1);
  // The probe actually fired at the new site (initial try + retry), and
  // the failed attempts installed no artifact.
  EXPECT_EQ(fault::Registry::process().fires("njit.cc"), 2);
  int SharedObjects = 0;
  if (fs::exists(Dir))
    for (const fs::directory_entry &E : fs::recursive_directory_iterator(Dir))
      if (E.path().extension() == ".so")
        ++SharedObjects;
  EXPECT_EQ(SharedObjects, 0);
}
