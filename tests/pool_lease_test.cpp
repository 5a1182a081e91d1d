//===- tests/pool_lease_test.cpp - Run thread-pool leases -----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadPool::lease, the pool every host run with ThreadCount > 0
/// executes on:
///
///   * a lease of a size borrows a parked pool of that size when one is
///     free, so back-to-back runs build one pool between them;
///   * concurrent leases never share a pool, and ThreadCount == 0 is
///     the process-wide shared pool, never a leased one;
///   * a StencilService with two workers and two threads per run, on
///     native and on njit, computes bitwise what serial runs compute,
///     and builds no more pools than it has workers — also when every
///     job shares one source array, whose halo margin each exchange
///     writes.
///
/// The concurrent cases also run under tools/check_tsan.sh.
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "core/Compiler.h"
#include "service/StencilService.h"
#include "stencil/PatternLibrary.h"
#include "support/ThreadPool.h"
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <gtest/gtest.h>
#include <memory>
#include <unistd.h>

using namespace cmcc;

namespace {

namespace fs = std::filesystem;

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

/// Points the njit artifact cache at a private directory for the
/// test's lifetime.
class ScopedJitCacheDir {
public:
  ScopedJitCacheDir()
      : Dir(fs::temp_directory_path() /
            ("cmcc_pool_lease_test." + std::to_string(::getpid()))) {
    fs::remove_all(Dir);
    ::setenv("CMCC_NJIT_CACHE_DIR", Dir.c_str(), 1);
  }
  ~ScopedJitCacheDir() {
    ::unsetenv("CMCC_NJIT_CACHE_DIR");
    fs::remove_all(Dir);
  }

private:
  fs::path Dir;
};

TEST(PoolLeaseTest, SameSizeLeaseReusesTheParkedPool) {
  ThreadPool *First;
  {
    ThreadPool::Lease L = ThreadPool::lease(3);
    First = L.get();
    EXPECT_EQ(First->threadCount(), 3);
  }
  const int Built = ThreadPool::leasedPoolCount();
  for (int I = 0; I != 10; ++I) {
    ThreadPool::Lease L = ThreadPool::lease(3);
    EXPECT_EQ(L.get(), First);
  }
  EXPECT_EQ(ThreadPool::leasedPoolCount(), Built);
}

TEST(PoolLeaseTest, ConcurrentLeasesNeverShareAPool) {
  ThreadPool::Lease A = ThreadPool::lease(2);
  ThreadPool::Lease B = ThreadPool::lease(2);
  ThreadPool::Lease C = ThreadPool::lease(5);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(A.get()->threadCount(), 2);
  EXPECT_EQ(B.get()->threadCount(), 2);
  EXPECT_EQ(C.get()->threadCount(), 5);
}

TEST(PoolLeaseTest, ZeroThreadsIsTheSharedPoolAndBuildsNothing) {
  const int Built = ThreadPool::leasedPoolCount();
  ThreadPool::Lease L = ThreadPool::lease(0);
  EXPECT_EQ(L.get(), &ThreadPool::shared());
  EXPECT_EQ(ThreadPool::leasedPoolCount(), Built);
}

TEST(PoolLeaseTest, NonPositiveSizesLeaseASerialPool) {
  ThreadPool::Lease L = ThreadPool::lease(-4);
  EXPECT_EQ(L.get()->threadCount(), 1);
}

TEST(PoolLeaseTest, LeasedPoolRunsEveryIndexOnce) {
  for (int Round = 0; Round != 3; ++Round) {
    ThreadPool::Lease L = ThreadPool::lease(4);
    std::vector<std::atomic<int>> Hits(257);
    L.get()->parallelFor(257, [&](int I) { Hits[I].fetch_add(1); });
    for (const std::atomic<int> &H : Hits)
      ASSERT_EQ(H.load(), 1);
  }
}

/// Runs a batch of distinct jobs through a two-worker, two-thread
/// service on \p Backend, all submitted before the first wait so the
/// workers run them concurrently, and checks each result bitwise
/// against a serial (ThreadCount = 1) run of the same backend.
void checkServiceMatchesSerial(const char *Backend) {
  const MachineConfig M = MachineConfig::withNodeGrid(2, 2);
  const StencilSpec Spec = makePattern(PatternId::Diamond13);
  constexpr int Sub = 32;
  constexpr int Iterations = 3;
  constexpr int Jobs = 12;

  ConvolutionCompiler CC(M);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  ASSERT_TRUE(Compiled) << Compiled.error().message();
  Executor::Options Serial;
  Serial.ThreadCount = 1;
  std::unique_ptr<ExecutionBackend> Reference =
      createBackend(Backend, M, Serial);
  ASSERT_NE(Reference, nullptr);
  std::vector<std::unique_ptr<BoundArrays>> Expected;
  for (int J = 0; J != Jobs; ++J) {
    Expected.push_back(std::make_unique<BoundArrays>(M, Spec, Sub, 7 + J));
    ASSERT_TRUE(Reference->run(*Compiled, Expected.back()->Args, Iterations));
  }

  const int BuiltBefore = ThreadPool::leasedPoolCount();
  StencilService::Options Opts;
  Opts.Workers = 2;
  Opts.Backend = Backend;
  Opts.Exec.ThreadCount = 2;
  Opts.FallbackToCm2 = false;
  StencilService Service(M, Opts);

  std::vector<std::unique_ptr<BoundArrays>> Got;
  std::vector<StencilService::JobId> Ids;
  for (int J = 0; J != Jobs; ++J) {
    Got.push_back(std::make_unique<BoundArrays>(M, Spec, Sub, 7 + J));
    StencilService::JobRequest Req;
    Req.Kind = StencilService::SourceKind::FortranSubroutine;
    Req.Source = patternFortranSource(PatternId::Diamond13);
    Req.Args = &Got.back()->Args;
    Req.Iterations = Iterations;
    Ids.push_back(Service.submit(Req));
  }
  for (int J = 0; J != Jobs; ++J) {
    StencilService::JobResult R = Service.wait(Ids[J]);
    ASSERT_TRUE(R.Ok) << R.Message;
    const Array2D Out = Got[J]->Result->gather();
    const Array2D Want = Expected[J]->Result->gather();
    EXPECT_EQ(std::memcmp(Out.data(), Want.data(),
                          sizeof(float) * Out.rows() * Out.cols()),
              0)
        << Backend << " job " << J;
  }
  // At most one run per worker at a time, so at most one new pool each.
  EXPECT_LE(ThreadPool::leasedPoolCount() - BuiltBefore, Opts.Workers);
}

/// Runs CSHIFT and EOSHIFT jobs of different border widths, every one
/// bound to the same source array, through a two-worker, two-thread
/// service on \p Backend, all submitted before the first wait. Each
/// exchange writes the shared source's halo margin (and the first wide
/// one re-lays it out), so the jobs must serialize on its halo lock:
/// each result is checked bitwise against a serial run over a private
/// copy of the source, and the source's value must be unchanged.
void checkSharedSourceMatchesSerial(const char *Backend) {
  const MachineConfig M = MachineConfig::withNodeGrid(2, 2);
  const NodeGrid Grid(M);
  constexpr int Sub = 32;
  constexpr int Jobs = 12;
  const std::string Statements[] = {
      "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 2, 1)",
      "R = 0.5 * EOSHIFT(X, 1, -2) + 0.25 * X - 0.125 * EOSHIFT(X, 2, 2)"};
  Array2D Global(2 * Sub, 2 * Sub);
  Global.fillRandom(99);
  auto Request = [&](int J, StencilArguments &Args) {
    StencilService::JobRequest Req;
    Req.Kind = StencilService::SourceKind::FortranAssignment;
    Req.Source = Statements[J % 2];
    Req.Args = &Args;
    Req.SubRows = Sub;
    Req.SubCols = Sub;
    return Req;
  };
  StencilService::Options Opts;
  Opts.Backend = Backend;
  Opts.FallbackToCm2 = false;

  std::vector<Array2D> Want;
  {
    Opts.Workers = 1;
    Opts.Exec.ThreadCount = 1;
    StencilService Serial(M, Opts);
    for (int J = 0; J != Jobs; ++J) {
      DistributedArray Source(Grid, Sub, Sub), Result(Grid, Sub, Sub);
      Source.scatter(Global);
      StencilArguments Args;
      Args.Result = &Result;
      Args.Source = &Source;
      StencilService::JobResult R =
          Serial.wait(Serial.submit(Request(J, Args)));
      ASSERT_TRUE(R.Ok) << R.Message;
      Want.push_back(Result.gather());
    }
  }

  Opts.Workers = 2;
  Opts.Exec.ThreadCount = 2;
  StencilService Service(M, Opts);
  DistributedArray Shared(Grid, Sub, Sub);
  Shared.scatter(Global);
  std::vector<std::unique_ptr<DistributedArray>> Results;
  std::vector<StencilArguments> Args(Jobs);
  std::vector<StencilService::JobId> Ids;
  for (int J = 0; J != Jobs; ++J) {
    Results.push_back(std::make_unique<DistributedArray>(Grid, Sub, Sub));
    Args[J].Result = Results.back().get();
    Args[J].Source = &Shared;
    Ids.push_back(Service.submit(Request(J, Args[J])));
  }
  for (int J = 0; J != Jobs; ++J) {
    StencilService::JobResult R = Service.wait(Ids[J]);
    ASSERT_TRUE(R.Ok) << R.Message;
    const Array2D Out = Results[J]->gather();
    EXPECT_EQ(std::memcmp(Out.data(), Want[J].data(),
                          sizeof(float) * Out.rows() * Out.cols()),
              0)
        << Backend << " job " << J;
  }
  EXPECT_EQ(Array2D::maxAbsDifference(Shared.gather(), Global), 0.0f);
}

TEST(PoolLeaseTest, TwoWorkerNativeServiceMatchesSerialBitwise) {
  checkServiceMatchesSerial("native");
}

TEST(PoolLeaseTest, TwoWorkerNjitServiceMatchesSerialBitwise) {
  if (!isBackendAvailable("njit"))
    GTEST_SKIP() << "no host C++ toolchain";
  ScopedJitCacheDir CacheDir;
  checkServiceMatchesSerial("njit");
}

TEST(PoolLeaseTest, SharedSourceNativeServiceMatchesSerialBitwise) {
  checkSharedSourceMatchesSerial("native");
}

TEST(PoolLeaseTest, SharedSourceNjitServiceMatchesSerialBitwise) {
  if (!isBackendAvailable("njit"))
    GTEST_SKIP() << "no host C++ toolchain";
  ScopedJitCacheDir CacheDir;
  checkSharedSourceMatchesSerial("njit");
}

} // namespace
