//===- tests/service_test.cpp - Serving-layer tests -----------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the serving subsystem: plan fingerprints, the sharded
/// PlanCache (memory + on-disk tier, including corrupt-entry handling),
/// and the StencilService's submit/poll/wait semantics. The load-bearing
/// guarantees:
///
///   * warm-cache service runs produce bitwise-identical arrays and
///     identical simulated cycle totals to direct compile() +
///     Executor::run();
///   * after the first submission of each pattern the cache serves every
///     subsequent lookup (hit rate 100%), and the warm path runs no
///     front end and no planner;
///   * concurrent submissions of one fingerprint compile it exactly once
///     (the multithreaded cases here also run under check_tsan.sh).
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "core/PlanFingerprint.h"
#include "core/ScheduleIO.h"
#include "fortran/Parser.h"
#include "sexpr/DefStencil.h"
#include "service/StencilService.h"
#include "stencil/PatternLibrary.h"
#include "stencil/Recognizer.h"
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <sys/stat.h>
#include <thread>

using namespace cmcc;

namespace {

MachineConfig machine() { return MachineConfig::withNodeGrid(2, 2); }

/// A scratch directory wiped at construction and destruction.
struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const char *Name)
      : Path(std::filesystem::temp_directory_path() /
             (std::string("cmcc_service_test_") + Name)) {
    std::filesystem::remove_all(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
};

std::shared_ptr<const CompiledStencil> compileShared(const MachineConfig &M,
                                                     PatternId Id) {
  ConvolutionCompiler CC(M);
  Expected<CompiledStencil> C = CC.compile(makePattern(Id));
  EXPECT_TRUE(C);
  return std::make_shared<const CompiledStencil>(C.takeValue());
}

/// Distributed arrays plus ownership for one functional run of \p Spec.
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
// Plan fingerprints
//===----------------------------------------------------------------------===//

TEST(PlanFingerprintTest, StableAcrossFrontEnds) {
  // The same cross stencil through the Fortran and the defstencil front
  // end must land on the same fingerprint (the cache's whole point).
  MachineConfig M = machine();
  DiagnosticEngine Diags;
  std::optional<fortran::AssignmentStmt> Stmt =
      fortran::Parser::assignmentFromSource(
          "R = C1*CSHIFT(X,1,-1) + C2*X", Diags);
  ASSERT_TRUE(Stmt);
  Recognizer R(Diags, {});
  std::optional<StencilSpec> FromFortran = R.recognize(*Stmt);
  ASSERT_TRUE(FromFortran);

  std::optional<sexpr::DefStencil> Def = sexpr::defStencilFromSource(
      "(defstencil s (r x c1 c2)"
      " (:= r (+ (* c1 (cshift x 1 -1)) (* c2 x))))",
      Diags);
  ASSERT_TRUE(Def) << Diags.str();

  EXPECT_EQ(planFingerprint(*FromFortran, M),
            planFingerprint(Def->Spec, M))
      << planFingerprintText(*FromFortran, M) << "\nvs\n"
      << planFingerprintText(Def->Spec, M);
}

TEST(PlanFingerprintTest, SensitiveToSpecAndCompileRelevantMachine) {
  MachineConfig M = machine();
  StencilSpec Cross = makePattern(PatternId::Cross5);
  StencilSpec Square = makePattern(PatternId::Square9);
  EXPECT_NE(planFingerprint(Cross, M), planFingerprint(Square, M));

  // Compilation-relevant machine fields change the fingerprint...
  MachineConfig Fewer = M;
  Fewer.NumRegisters = 16;
  EXPECT_NE(planFingerprint(Cross, M), planFingerprint(Cross, Fewer));

  // ...but topology and clock (execution-time parameters) do not: the
  // compiled plan is identical, so machines of any size share it.
  MachineConfig Bigger = MachineConfig::fullMachine2048();
  MachineConfig Small = MachineConfig::testMachine16();
  EXPECT_EQ(planFingerprint(Cross, Small), planFingerprint(Cross, Bigger));
}

TEST(PlanFingerprintTest, HexIsStable) {
  EXPECT_EQ(fingerprintHex(0x0123456789abcdefull), "0123456789abcdef");
  EXPECT_EQ(fingerprintHex(0), "0000000000000000");
}

//===----------------------------------------------------------------------===//
// PlanCache
//===----------------------------------------------------------------------===//

TEST(PlanCacheTest, HitMissAndLru) {
  MachineConfig M = machine();
  PlanCache::Options Opts;
  Opts.Capacity = 2;
  Opts.Shards = 1; // Single shard so the LRU order is observable.
  PlanCache Cache(M, Opts);

  auto A = compileShared(M, PatternId::Cross5);
  auto B = compileShared(M, PatternId::Square9);
  auto C = compileShared(M, PatternId::Diamond13);

  EXPECT_EQ(Cache.lookup(1), nullptr);
  Cache.insert(1, A);
  Cache.insert(2, B);
  EXPECT_EQ(Cache.lookup(1), A); // 1 is now most recently used.
  Cache.insert(3, C);            // Evicts 2.
  EXPECT_EQ(Cache.lookup(2), nullptr);
  EXPECT_EQ(Cache.lookup(1), A);
  EXPECT_EQ(Cache.lookup(3), C);

  PlanCache::Counters N = Cache.counters();
  EXPECT_EQ(N.Hits, 3);
  EXPECT_EQ(N.Misses, 2);
  EXPECT_EQ(N.Evictions, 1);
  EXPECT_EQ(N.Insertions, 3);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(PlanCacheTest, ShardedCapacityHoldsAllShards) {
  MachineConfig M = machine();
  PlanCache::Options Opts;
  Opts.Capacity = 16;
  Opts.Shards = 8;
  PlanCache Cache(M, Opts);
  auto A = compileShared(M, PatternId::Cross5);
  for (uint64_t F = 1; F <= 16; ++F)
    Cache.insert(F, A);
  // 16 entries over 8 shards with per-shard capacity 2: nothing evicted
  // as long as the keys spread (1..16 mod 8 is perfectly uniform).
  EXPECT_EQ(Cache.size(), 16u);
  EXPECT_EQ(Cache.counters().Evictions, 0);
}

TEST(PlanCacheTest, DiskTierRoundTripAndVerify) {
  MachineConfig M = machine();
  ScratchDir Dir("disk");
  uint64_t Fp = planFingerprint(makePattern(PatternId::Diamond13), M);

  PlanCache::Options Opts;
  Opts.DiskDir = Dir.Path;
  PlanCache Cache(M, Opts);
  auto Plan = compileShared(M, PatternId::Diamond13);
  Cache.insert(Fp, Plan);

  // Drop memory; the disk tier must reload and re-verify the plan.
  Cache.clearMemory();
  std::shared_ptr<const CompiledStencil> Loaded = Cache.lookup(Fp);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_EQ(Loaded->Spec.str(), Plan->Spec.str());
  EXPECT_EQ(Loaded->Widths.size(), Plan->Widths.size());
  EXPECT_EQ(Cache.counters().DiskHits, 1);

  // A second cache instance (fresh process, conceptually) sees it too.
  PlanCache Second(M, Opts);
  EXPECT_NE(Second.lookup(Fp), nullptr);
  EXPECT_EQ(Second.counters().DiskHits, 1);
}

TEST(PlanCacheTest, DiskHitLeavesTheFileUntouched) {
  MachineConfig M = machine();
  ScratchDir Dir("disk_untouched");
  uint64_t Fp = planFingerprint(makePattern(PatternId::Cross5), M);
  std::string Path = Dir.Path + "/" + fingerprintHex(Fp) + ".cmccode";

  PlanCache::Options Opts;
  Opts.DiskDir = Dir.Path;
  {
    PlanCache Writer(M, Opts);
    Writer.insert(Fp, compileShared(M, PatternId::Cross5));
  }
  struct stat Before;
  ASSERT_EQ(::stat(Path.c_str(), &Before), 0);

  // A restart: the disk hit lands in memory only. Rewriting the file
  // (a new temp file renamed over it) would change its inode.
  PlanCache Restarted(M, Opts);
  ASSERT_NE(Restarted.lookup(Fp), nullptr);
  EXPECT_EQ(Restarted.counters().DiskHits, 1);
  EXPECT_EQ(Restarted.counters().Insertions, 0);
  struct stat After;
  ASSERT_EQ(::stat(Path.c_str(), &After), 0);
  EXPECT_EQ(After.st_ino, Before.st_ino);
  EXPECT_EQ(After.st_mtim.tv_sec, Before.st_mtim.tv_sec);
  EXPECT_EQ(After.st_mtim.tv_nsec, Before.st_mtim.tv_nsec);
  // The promoted plan now answers from memory.
  ASSERT_NE(Restarted.lookup(Fp), nullptr);
  EXPECT_EQ(Restarted.counters().DiskHits, 1);
}

TEST(PlanCacheTest, StaleTempPathNeverBlocksTheDiskTier) {
  MachineConfig M = machine();
  ScratchDir Dir("stale_tmp");
  uint64_t Fp = planFingerprint(makePattern(PatternId::Cross5), M);
  std::string Path = Dir.Path + "/" + fingerprintHex(Fp) + ".cmccode";

  // Debris where a fixed temp name would go (a crashed writer, another
  // process mid-store): every store gets its own temporary, so the
  // plan still reaches disk.
  std::filesystem::create_directories(Path + ".tmp");
  PlanCache::Options Opts;
  Opts.DiskDir = Dir.Path;
  {
    PlanCache Writer(M, Opts);
    Writer.insert(Fp, compileShared(M, PatternId::Cross5));
  }
  PlanCache Fresh(M, Opts);
  EXPECT_NE(Fresh.lookup(Fp), nullptr);
  EXPECT_EQ(Fresh.counters().DiskHits, 1);

  // The store left no temporary of its own behind.
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    EXPECT_TRUE(E.path() == Path + ".tmp" ||
                E.path().filename().string().find(".tmp") == std::string::npos)
        << E.path();
}

TEST(PlanCacheTest, CorruptDiskEntriesAreMissesNeverCrashes) {
  MachineConfig M = machine();
  ScratchDir Dir("corrupt");
  uint64_t Fp = planFingerprint(makePattern(PatternId::Cross5), M);
  std::string Path = Dir.Path + "/" + fingerprintHex(Fp) + ".cmccode";

  PlanCache::Options Opts;
  Opts.DiskDir = Dir.Path;

  auto CorruptWith = [&](const std::string &Content) {
    std::filesystem::create_directories(Dir.Path);
    std::ofstream(Path) << Content;
    PlanCache Cache(M, Opts);
    EXPECT_EQ(Cache.lookup(Fp), nullptr);
    PlanCache::Counters N = Cache.counters();
    EXPECT_EQ(N.Misses, 1);
    EXPECT_EQ(N.DiskRejects, 1);
  };

  std::string Good =
      writeCompiledStencil(*compileShared(M, PatternId::Cross5), M);
  CorruptWith(Good.substr(0, Good.size() / 2));          // Truncated.
  CorruptWith("cmccode 2\n" + Good.substr(10));          // Wrong version.
  CorruptWith("");                                       // Empty.
  {
    std::string Flipped = Good;
    size_t Pos = Flipped.find("\nM ");
    ASSERT_NE(Pos, std::string::npos);
    Flipped[Pos + 3] ^= 1; // Bit-flip a register digit: fails verify.
    CorruptWith(Flipped);
  }

  // And a valid file for a *different* stencil under this fingerprint's
  // name still parses — the cache trusts the verifier, not the name —
  // but a rewrite with the real plan recovers the entry.
  PlanCache Cache(M, Opts);
  Cache.insert(Fp, compileShared(M, PatternId::Cross5));
  Cache.clearMemory();
  EXPECT_NE(Cache.lookup(Fp), nullptr);
}

//===----------------------------------------------------------------------===//
// StencilService
//===----------------------------------------------------------------------===//

TEST(StencilServiceTest, WarmRunMatchesDirectExecutionBitwise) {
  MachineConfig M = machine();
  const int Sub = 10;
  const int Iterations = 3;
  StencilSpec Spec = makePattern(PatternId::Diamond13);

  // Direct path: compile + Executor::run, the pre-service ground truth.
  ConvolutionCompiler CC(M);
  Expected<CompiledStencil> Direct = CC.compile(Spec);
  ASSERT_TRUE(Direct);
  BoundArrays DirectArrays(M, Spec, Sub, /*Seed=*/42);
  Executor Exec(M);
  Expected<TimingReport> DirectReport =
      Exec.run(*Direct, DirectArrays.Args, Iterations);
  ASSERT_TRUE(DirectReport);

  StencilService::Options Opts;
  Opts.Workers = 2;
  StencilService Service(M, Opts);
  std::string Source = patternFortranSource(PatternId::Diamond13);

  auto RunOnce = [&](bool ExpectWarm) {
    BoundArrays Arrays(M, Spec, Sub, /*Seed=*/42);
    StencilService::JobRequest Req;
    Req.Kind = StencilService::SourceKind::FortranSubroutine;
    Req.Source = Source;
    Req.Args = &Arrays.Args;
    Req.Iterations = Iterations;
    StencilService::JobResult R = Service.wait(Service.submit(Req));
    EXPECT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.CacheHit, ExpectWarm);
    // Bitwise-identical numerical results...
    EXPECT_EQ(Array2D::maxAbsDifference(Arrays.Result->gather(),
                                        DirectArrays.Result->gather()),
              0.0f);
    // ...and identical simulated timing, cycle for cycle.
    EXPECT_EQ(R.Report.Cycles.total(), DirectReport->Cycles.total());
    EXPECT_EQ(R.Report.elapsedSeconds(), DirectReport->elapsedSeconds());
    return R;
  };

  StencilService::JobResult Cold = RunOnce(/*ExpectWarm=*/false);
  ServiceStats AfterCold = Service.stats();
  EXPECT_EQ(AfterCold.CompilesPerformed, 1);
  EXPECT_EQ(AfterCold.FrontEndRuns, 1);

  for (int I = 0; I != 3; ++I) {
    StencilService::JobResult Warm = RunOnce(/*ExpectWarm=*/true);
    EXPECT_EQ(Warm.Fingerprint, Cold.Fingerprint);
  }

  // The warm path compiled nothing, ran no front end (source memo), and
  // missed the cache never: hit rate is 100% after the first submission.
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CompilesPerformed, 1);
  EXPECT_EQ(S.FrontEndRuns, 1);
  EXPECT_EQ(S.SourceMemoHits, 3);
  EXPECT_EQ(S.Cache.Misses, AfterCold.Cache.Misses);
  EXPECT_EQ(S.Cache.Hits - AfterCold.Cache.Hits, 3);
  EXPECT_EQ(S.JobsCompleted, 4);
  EXPECT_EQ(S.JobsFailed, 0);
  EXPECT_GT(S.aggregateSimMflops(), 0.0);
}

TEST(StencilServiceTest, SubmitByFingerprintSkipsSourceEntirely) {
  MachineConfig M = machine();
  StencilService::Options Opts;
  StencilService Service(M, Opts);

  StencilService::JobRequest Seed;
  Seed.Kind = StencilService::SourceKind::FortranAssignment;
  Seed.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  StencilService::JobResult First = Service.wait(Service.submit(Seed));
  ASSERT_TRUE(First.Ok) << First.Message;

  StencilService::JobRequest ByFp;
  ByFp.Kind = StencilService::SourceKind::Fingerprint;
  ByFp.Fingerprint = First.Fingerprint;
  ByFp.SubRows = 32;
  ByFp.SubCols = 32;
  ByFp.Iterations = 5;
  StencilService::JobResult R = Service.wait(Service.submit(ByFp));
  EXPECT_TRUE(R.Ok) << R.Message;
  EXPECT_TRUE(R.CacheHit);
  EXPECT_EQ(R.Plan->Spec.str(), First.Plan->Spec.str());

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.FrontEndRuns, 1);
  EXPECT_EQ(S.CompilesPerformed, 1);
}

TEST(StencilServiceTest, UnknownFingerprintFailsWithDiagnostic) {
  StencilService Service(machine(), {});
  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::Fingerprint;
  Req.Fingerprint = 0xdeadbeefull;
  StencilService::JobResult R = Service.wait(Service.submit(Req));
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Message.find("not cached"), std::string::npos) << R.Message;
  EXPECT_EQ(Service.stats().JobsFailed, 1);
}

TEST(StencilServiceTest, BadSourceFailsWithDiagnostic) {
  StencilService Service(machine(), {});
  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = "R = X * X"; // Not a stencil form.
  StencilService::JobResult R = Service.wait(Service.submit(Req));
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Message.empty());
  EXPECT_EQ(Service.stats().JobsFailed, 1);
}

TEST(StencilServiceTest, PollObservesLifecycleAndDrainWaits) {
  StencilService::Options Opts;
  Opts.Workers = 1;
  StencilService Service(machine(), Opts);
  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  std::vector<StencilService::JobId> Ids;
  for (int I = 0; I != 6; ++I)
    Ids.push_back(Service.submit(Req));
  Service.drain();
  for (StencilService::JobId Id : Ids)
    EXPECT_EQ(Service.poll(Id), StencilService::JobState::Done);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.JobsSubmitted, 6);
  EXPECT_EQ(S.JobsCompleted, 6);
  EXPECT_EQ(S.QueueDepth, 0);
  EXPECT_GE(S.MaxQueueDepth, 1);
  EXPECT_EQ(S.CompilesPerformed, 1);
}

TEST(StencilServiceTest, ConcurrentSameFingerprintCompilesExactlyOnce) {
  // The acceptance-critical dedup property, oversubscribed: many client
  // threads hammer one pattern at a service with many workers; the
  // pattern must be compiled exactly once, every job must succeed, and
  // every job must report identical simulated cycles. Also runs under
  // ThreadSanitizer via tools/check_tsan.sh.
  MachineConfig M = machine();
  StencilService::Options Opts;
  Opts.Workers = 8;
  StencilService Service(M, Opts);

  constexpr int Clients = 8, JobsPerClient = 4;
  std::vector<StencilService::JobId> Ids(Clients * JobsPerClient);
  {
    std::vector<std::thread> Threads;
    for (int C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        for (int I = 0; I != JobsPerClient; ++I) {
          StencilService::JobRequest Req;
          Req.Kind = StencilService::SourceKind::FortranAssignment;
          Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*CSHIFT(X,2,-1) + C3*X";
          Req.SubRows = 16;
          Req.SubCols = 16;
          Ids[C * JobsPerClient + I] = Service.submit(Req);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }

  long CycleTotal = -1;
  uint64_t Fp = 0;
  for (StencilService::JobId Id : Ids) {
    StencilService::JobResult R = Service.wait(Id);
    ASSERT_TRUE(R.Ok) << R.Message;
    if (CycleTotal < 0) {
      CycleTotal = R.Report.Cycles.total();
      Fp = R.Fingerprint;
    }
    EXPECT_EQ(R.Report.Cycles.total(), CycleTotal);
    EXPECT_EQ(R.Fingerprint, Fp);
  }

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CompilesPerformed, 1);
  EXPECT_EQ(S.JobsCompleted, Clients * JobsPerClient);
  EXPECT_EQ(S.JobsFailed, 0);
  // Every job either hit the cache, coalesced onto the one compile, or
  // was the compile.
  EXPECT_EQ(S.Cache.Hits + S.CompilesCoalesced + S.CompilesPerformed,
            Clients * JobsPerClient);
}

TEST(StencilServiceTest, ConcurrentDistinctPatternsCompileOncePerPattern) {
  // On every execution backend: concurrent rounds compile each pattern
  // exactly once, and a warm round afterwards reaches neither the front
  // end nor the compiler.
  MachineConfig M = machine();
  std::vector<PatternId> Patterns = allPatterns();
  constexpr int Rounds = 5;
  for (const char *Backend : {"cm2", "native", "njit"}) {
    SCOPED_TRACE(Backend);
    if (!isBackendAvailable(Backend))
      continue; // njit without a host toolchain.
    StencilService::Options Opts;
    Opts.Workers = 6;
    Opts.Backend = Backend;
    StencilService Service(M, Opts);

    auto RunRounds = [&](int Count) {
      std::vector<StencilService::JobId> Ids;
      for (int Round = 0; Round != Count; ++Round)
        for (PatternId Id : Patterns) {
          StencilService::JobRequest Req;
          Req.Kind = StencilService::SourceKind::FortranSubroutine;
          Req.Source = patternFortranSource(Id);
          Req.SubRows = 16;
          Req.SubCols = 16;
          Ids.push_back(Service.submit(Req));
        }
      for (StencilService::JobId Id : Ids) {
        StencilService::JobResult R = Service.wait(Id);
        EXPECT_TRUE(R.Ok) << R.Message;
      }
    };

    RunRounds(Rounds);
    ServiceStats S = Service.stats();
    EXPECT_EQ(S.CompilesPerformed, static_cast<long>(Patterns.size()));
    EXPECT_EQ(S.JobsCompleted,
              static_cast<long>(Patterns.size()) * Rounds);

    RunRounds(1);
    ServiceStats Warm = Service.stats();
    EXPECT_EQ(Warm.CompilesPerformed, S.CompilesPerformed);
    EXPECT_EQ(Warm.FrontEndRuns, S.FrontEndRuns);
    EXPECT_EQ(Warm.JobsFailed, 0);
  }
}

TEST(StencilServiceTest, WaitOnUnknownJobIdReturnsBadJobId) {
  // Regression: wait() on an id submit() never returned used to assert
  // (debug) or read past the map's end (release) — and could only ever
  // hang if it got as far as the wait, since nothing would finish the
  // job. It must return a definite failed result instead, and poll()
  // must report the same id as Failed rather than asserting.
  StencilService Service(machine(), {});
  StencilService::JobResult R = Service.wait(12345);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Status, StencilService::JobStatus::BadJobId);
  EXPECT_NE(R.Message.find("12345"), std::string::npos) << R.Message;
  EXPECT_EQ(Service.poll(12345), StencilService::JobState::Failed);
  // The phantom id leaves no trace in the ledger.
  EXPECT_EQ(Service.stats().JobsSubmitted, 0);
  EXPECT_EQ(Service.stats().JobsFailed, 0);
}

TEST(StencilServiceTest, DeliveredJobsAgeOutOfTheJobTable) {
  StencilService::Options Opts;
  Opts.Workers = 2;
  Opts.TimelineRingCap = 4;
  StencilService Service(machine(), Opts);
  auto Submit = [&] {
    StencilService::JobRequest Req;
    Req.Kind = StencilService::SourceKind::FortranAssignment;
    Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
    Req.SubRows = Req.SubCols = 8;
    return Service.submit(Req);
  };

  // A job nobody has waited on is kept however many others are served.
  const StencilService::JobId Undelivered = Submit();
  std::vector<StencilService::JobId> Ids;
  for (int I = 0; I != 40; ++I) {
    Ids.push_back(Submit());
    ASSERT_TRUE(Service.wait(Ids.back()).Ok);
  }
  EXPECT_TRUE(Service.wait(Undelivered).Ok);

  // Delivered jobs older than the last TimelineRingCap deliveries are
  // gone, and answer like an id that was never issued.
  for (int I = 0; I + 5 < static_cast<int>(Ids.size()); ++I) {
    EXPECT_EQ(Service.poll(Ids[I]), StencilService::JobState::Failed);
    StencilService::JobResult R = Service.wait(Ids[I]);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Status, StencilService::JobStatus::BadJobId);
  }
  // The most recent ones can still be waited on again.
  for (int I = static_cast<int>(Ids.size()) - 3;
       I != static_cast<int>(Ids.size()); ++I) {
    EXPECT_EQ(Service.poll(Ids[I]), StencilService::JobState::Done);
    EXPECT_TRUE(Service.wait(Ids[I]).Ok);
  }
  // Erasing entries changes no ledger.
  EXPECT_EQ(Service.stats().JobsSubmitted, 41);
  EXPECT_EQ(Service.stats().JobsCompleted, 41);
}

TEST(StencilServiceTest, InterleavedFingerprintsResolveToTheirOwnPlans) {
  // Interleaved warm submissions of two distinct patterns: the source
  // memo and the plan cache are keyed per pattern, so every job must
  // complete with the fingerprint of its own pattern and both patterns
  // compile exactly once.
  MachineConfig M = machine();
  StencilService::Options Opts;
  Opts.Workers = 1;
  StencilService Service(M, Opts);

  const char *SourceA = "R = C1*CSHIFT(X,1,-1) + C2*X";
  const char *SourceB = "R = C1*CSHIFT(X,2,-1) + C2*CSHIFT(X,2,1) + C3*X";
  auto Submit = [&](const char *Source) {
    StencilService::JobRequest Req;
    Req.Kind = StencilService::SourceKind::FortranAssignment;
    Req.Source = Source;
    Req.SubRows = 16;
    Req.SubCols = 16;
    return Service.submit(Req);
  };

  uint64_t FpA = Service.wait(Submit(SourceA)).Fingerprint;
  uint64_t FpB = Service.wait(Submit(SourceB)).Fingerprint;
  ASSERT_NE(FpA, FpB);

  std::vector<StencilService::JobId> Ids;
  std::vector<uint64_t> Want;
  for (int I = 0; I != 8; ++I) {
    Ids.push_back(Submit(I % 2 ? SourceB : SourceA));
    Want.push_back(I % 2 ? FpB : FpA);
  }
  for (size_t I = 0; I != Ids.size(); ++I) {
    StencilService::JobResult R = Service.wait(Ids[I]);
    EXPECT_TRUE(R.Ok) << R.Message;
    EXPECT_EQ(R.Fingerprint, Want[I]) << "job " << I;
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CompilesPerformed, 2);
  EXPECT_EQ(S.JobsFailed, 0);
  EXPECT_EQ(S.JobsCompleted, 10);
}

TEST(StencilServiceTest, DiskTierSurvivesServiceRestart) {
  MachineConfig M = machine();
  ScratchDir Dir("service_disk");
  StencilService::Options Opts;
  Opts.Cache.DiskDir = Dir.Path;

  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";

  uint64_t Fp;
  {
    StencilService Service(M, Opts);
    StencilService::JobResult R = Service.wait(Service.submit(Req));
    ASSERT_TRUE(R.Ok) << R.Message;
    Fp = R.Fingerprint;
    EXPECT_EQ(Service.stats().CompilesPerformed, 1);
  }

  // A fresh service (fresh memory cache) finds the plan on disk: no
  // compile happens, and a fingerprint-only submission works cold.
  {
    StencilService Service(M, Opts);
    StencilService::JobRequest ByFp;
    ByFp.Kind = StencilService::SourceKind::Fingerprint;
    ByFp.Fingerprint = Fp;
    StencilService::JobResult R = Service.wait(Service.submit(ByFp));
    EXPECT_TRUE(R.Ok) << R.Message;
    EXPECT_TRUE(R.CacheHit);
    ServiceStats S = Service.stats();
    EXPECT_EQ(S.CompilesPerformed, 0);
    EXPECT_EQ(S.Cache.DiskHits, 1);
  }
}
