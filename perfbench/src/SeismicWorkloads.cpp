//===- perfbench/src/SeismicWorkloads.cpp - seismic and shard -------------===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two in-process workloads: the seismic update served by a
/// StencilService, on the njit backend (`seismic`) or on a 1x2 shard
/// grid of native workers (`shard`). Every step's input is the previous
/// step's result and the three fields rotate roles without copies (the
/// paper's unroll-by-3), so the client always waits for its reply.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "backends/Registry.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include <cstdlib>
#include <memory>

using namespace cmcc;

namespace perfbench {

namespace {

using JobResult = StencilService::JobResult;

/// What distinguishes the two workloads.
struct Flavor {
  std::string Backend;
  int ThreadCount = 1;
  bool Sharded = false;
  int Sub = 128; ///< Subgrid edge on the 4x4 node grid.
};

Flavor flavorFor(const RunConfig &Cfg) {
  Flavor F;
  F.Sub = Cfg.Smoke ? 16 : 128;
  if (Cfg.Workload == "shard") {
    F.Backend = "native";
    F.ThreadCount = 1;
    F.Sharded = true;
  } else {
    F.Backend = "njit";
    F.ThreadCount = 2;
  }
  return F;
}

/// A started service plus the three rotating fields.
class Rig {
public:
  Rig(const Flavor &F, const CacheDirs &Dirs, uint64_t Seed)
      : Machine(MachineConfig::withNodeGrid(4, 4)), Grid(Machine),
        A(Grid, F.Sub, F.Sub), B(Grid, F.Sub, F.Sub), C(Grid, F.Sub, F.Sub),
        Text(seismicStatement()) {
    A.scatter(seededField(A.globalRows(), A.globalCols(), Seed, 0));
    B.scatter(seededField(B.globalRows(), B.globalCols(), Seed, 1));
    // The njit backend reads its artifact directory at construction.
    ::setenv("CMCC_NJIT_CACHE_DIR", Dirs.Njit.c_str(), 1);
    StencilService::Options Opts =
        serviceOptions(F.Backend, F.ThreadCount, Dirs);
    if (F.Sharded) {
      Opts.ShardRows = 1;
      Opts.ShardCols = 2;
    }
    Service = std::make_unique<StencilService>(Machine, Opts);
  }

  /// Runs one step: R = update(U, UPREV), then the fields rotate.
  bool step(double &LatencyMs, JobResult &Res) {
    StencilArguments Args;
    Args.Result = Next;
    Args.Source = U;
    Args.Coefficients["UPREV"] = Prev;
    StencilService::JobRequest Req;
    Req.Kind = StencilService::SourceKind::FortranAssignment;
    Req.Source = Text;
    Req.Args = &Args;
    Req.SubRows = U->subRows();
    Req.SubCols = U->subCols();
    const Clock::time_point T0 = Clock::now();
    LastId = Service->submit(std::move(Req));
    Res = Service->wait(LastId);
    LatencyMs = secondsSince(T0) * 1e3;
    DistributedArray *Old = Prev;
    Prev = U;
    U = Next;
    Next = Old;
    return jobOk(Res);
  }

  Array2D current() const { return U->gather(); }
  Array2D previous() const { return Prev->gather(); }
  const DistributedArray &currentArray() const { return *U; }
  StencilService &service() { return *Service; }
  const MachineConfig &machine() const { return Machine; }
  StencilService::JobId lastId() const { return LastId; }

private:
  MachineConfig Machine;
  NodeGrid Grid;
  DistributedArray A, B, C;
  DistributedArray *U = &A, *Prev = &B, *Next = &C;
  std::string Text;
  std::unique_ptr<StencilService> Service;
  StencilService::JobId LastId = 0;
};

} // namespace

void runSeismicUpdate(const RunConfig &Cfg, const Ceilings &Ceil, Report &R,
                      Tally &T) {
  const Flavor F = flavorFor(Cfg);
  if (F.Backend == "njit" && !isBackendAvailable("njit")) {
    T.check(false, "the njit backend is unavailable on this host");
    return;
  }
  MustBeZero Zero;

  // Set-up and restart samples: each start gets fresh disk tiers and each
  // restart reuses the ones its start left behind.
  CounterDelta Spawns("shard.spawns");
  obs::Histogram &CcUs = obs::Registry::process().histogram("njit.compile_us");
  const double CcSumBefore = CcUs.sum();
  const long CcCountBefore = CcUs.count();
  std::vector<double> Setups, Restarts;
  CounterDelta NjitCompiles("njit.compiles");
  long NjitCompilesOnRestart = 0;
  CacheDirs Dirs;
  auto StartPair = [&] {
    Dirs = freshCacheDirs(Cfg, Cfg.Workload + std::to_string(Setups.size()));
    Array2D First;
    settleDisk(Cfg);
    {
      const Clock::time_point T0 = Clock::now();
      Rig Cold(F, Dirs, Cfg.Seed);
      JobResult Res;
      double Ignored;
      bool Ok = Cold.step(Ignored, Res);
      const double S = secondsSince(T0);
      T.job(Ok, "first job of a cold start: " + Res.Message);
      if (!Ok)
        return false;
      Setups.push_back(S);
      First = Cold.current();
      const int N = First.rows();
      T.check(withinUlpContract(Res.Plan->Spec,
                                seededField(N, N, Cfg.Seed, 0),
                                seededField(N, N, Cfg.Seed, 1), First),
              "cold-start result outside 1 ulp per term of the reference");
      Zero.add(Cold.service().stats(), T);
    }
    settleDisk(Cfg);
    const long CompilesBefore = NjitCompiles.value();
    const Clock::time_point T0 = Clock::now();
    Rig Warm(F, Dirs, Cfg.Seed);
    JobResult Res;
    double Ignored;
    bool Ok = Warm.step(Ignored, Res);
    const double S = secondsSince(T0);
    NjitCompilesOnRestart += NjitCompiles.value() - CompilesBefore;
    T.job(Ok, "first job of a restart: " + Res.Message);
    if (!Ok)
      return false;
    Restarts.push_back(S);
    T.check(bitwiseEqual(Warm.current(), First),
            "restart result differs from the cold start's");
    Zero.add(Warm.service().stats(), T);
    return true;
  };
  if (!StartPair())
    return;
  const long SpawnsPerPair = Spawns.value();

  // The timed phase runs on a started service over warm disk tiers.
  Rig Main(F, Dirs, Cfg.Seed);
  long Jobs = 0, CheckpointJob = 0;
  Array2D CheckU, CheckPrev;
  std::shared_ptr<const CompiledStencil> Plan;
  JobDetail Detail;
  bool Collect = false;
  // Sampled reference checks and replay checkpoints pause the clock.
  const long SampleEvery = 512, CheckpointEvery = 128;
  StepFn Step = [&](ActiveClock &Clk, double &LatencyMs) {
    const bool Sample = Jobs % SampleEvery == 0;
    const bool Checkpoint = Jobs % CheckpointEvery == 0;
    Array2D InU, InPrev;
    if (Sample || Checkpoint) {
      Clk.pause();
      InU = Main.current();
      InPrev = Main.previous();
      if (Checkpoint) {
        CheckU = InU;
        CheckPrev = InPrev;
        CheckpointJob = Jobs;
      }
      Clk.resume();
    }
    JobResult Res;
    const bool Ok = Main.step(LatencyMs, Res);
    ++Jobs;
    if (!Ok)
      return false;
    Plan = Res.Plan;
    if (Sample || Collect) {
      Clk.pause();
      if (Sample)
        T.check(withinUlpContract(Plan->Spec, InU, InPrev, Main.current()),
                "sampled step outside 1 ulp per term of the reference");
      if (Collect)
        Detail.record(Main.service(), Main.lastId(), Res.ExecuteSeconds,
                      Res.CompileSeconds);
      Clk.resume();
    }
    return true;
  };

  CounterDelta Exchanges("halo.exchanges");
  CounterDelta Dispatches("threadpool.loops_total");
  obs::Registry &Reg = obs::Registry::process();
  obs::Histogram &ShardExNs = Reg.histogram("shard.exchange_ns");
  const double ShardExBefore = ShardExNs.sum();
  auto WaitNs = [&Reg](int Shard) {
    return Reg.sum("shard." + std::to_string(Shard) + ".exchange_wait_ns")
        .value();
  };
  const double Wait0Before = WaitNs(0), Wait1Before = WaitNs(1);

  Collect = Cfg.Trace;
  const double Timed = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  const int MoreStarts = Cfg.Trace ? 0 : Cfg.setupRepeats() - 1;
  LoopStats L = runClosedLoop(Cfg.warmupSeconds(), Timed, T, Step, MoreStarts,
                              [&] { StartPair(); });
  T.check(NjitCompilesOnRestart == 0,
          "njit compiled again on a restart over its artifact cache");
  const double PhaseJobs = static_cast<double>(Jobs);
  const double ExchangesPerJob = Exchanges.value() / PhaseJobs;
  const double DispatchesPerJob = Dispatches.value() / PhaseJobs;
  const double ShardExUs = (ShardExNs.sum() - ShardExBefore) / PhaseJobs / 1e3;
  const double Wait0Us = (WaitNs(0) - Wait0Before) / PhaseJobs / 1e3;
  const double Wait1Us = (WaitNs(1) - Wait1Before) / PhaseJobs / 1e3;

  // The traced invocation repeats the phase with the program's tracing on.
  LoopStats Traced;
  if (Cfg.Trace) {
    Collect = false;
    obs::Trace::start(Cfg.Dir + "/trace.json");
    Traced = runClosedLoop(Cfg.warmupSeconds() / 4, Cfg.Seconds / 2, T, Step);
    obs::Trace::stop();
  }

  // Replay the last checkpoint's steps on the unsharded native backend:
  // the final field must match bit for bit.
  T.check(Plan != nullptr, "no job completed");
  if (!Plan)
    return;
  T.check(bitwiseEqual(replayNative(Main.machine(), *Plan, CheckU, CheckPrev,
                                    Jobs - CheckpointJob),
                       Main.current()),
          F.Sharded ? "sharded final field differs from the unsharded run"
                    : "njit final field differs from the native run");
  Zero.add(Main.service().stats(), T);
  T.check(Reg.counter("shard.deaths").value() == 0, "a shard worker died");

  if (!Cfg.Trace) {
    reportStarts(R, Setups, Restarts);
    reportLoop(R, L);
    R.add("peak_rss_mb", peakRssMiB(), "MiB");
    return;
  }

  reportServiceLayers(R, Main.service().stats(), Detail, Zero);
  R.layer("obs.trace_overhead_pct",
          (L.JobsPerSecond / Traced.JobsPerSecond - 1.0) * 100.0);
  const double RunUs = median(Detail.ExecuteUs);
  const DistributedArray &Field = Main.currentArray();

  if (F.Sharded) {
    double UnshardedSeconds = 0.0;
    replayNative(Main.machine(), *Plan, CheckU, CheckPrev, Cfg.Smoke ? 4 : 64,
                 &UnshardedSeconds);
    // Scatter every bound array, gather the result, and relay the
    // source's West/East block-edge bands across both column cuts of the
    // 1x2 grid (the internal one and the wraparound), both directions.
    const double GridBytes =
        static_cast<double>(Field.globalRows()) * Field.globalCols() *
        sizeof(float);
    const int Border = Plan->Spec.borderWidths().maximum();
    const double Arrays = 1.0 + Plan->Spec.coefficientArrayNames().size();
    const double Relay =
        2.0 * 2.0 * Border * Field.globalRows() * sizeof(float);
    R.layer("shard.run_us", RunUs);
    R.layer("shard.exchange_us", ShardExUs);
    R.layer("shard.exchange_wait_us.0", Wait0Us);
    R.layer("shard.exchange_wait_us.1", Wait1Us);
    R.layer("shard.bytes_per_job", Arrays * GridBytes + GridBytes + Relay);
    R.layer("shard.speedup", UnshardedSeconds * 1e6 / RunUs);
    R.layer("shard.spawns", static_cast<double>(SpawnsPerPair));
    R.layer("shard.deaths",
            static_cast<double>(Reg.counter("shard.deaths").value()));
    return;
  }

  reportBackendLayers(R, Ceil, *Plan, Field, F.ThreadCount, RunUs,
                      ExchangesPerJob, DispatchesPerJob, Cfg.Smoke);
  R.layer("njit.cc_ms", (CcUs.sum() - CcSumBefore) /
                            std::max(1L, CcUs.count() - CcCountBefore) / 1e3);
  R.layer("njit.compiles_on_restart",
          static_cast<double>(NjitCompilesOnRestart));

  // The shard workload's end-to-end figures were too unsteady to gate
  // (RATIONALE.md), so BENCHMARK.json does not run it; the traced seismic
  // run measures the shard/ layer instead, on a short sharded run of the
  // same update, with all of its output checks.
  RunConfig ShardCfg = Cfg;
  ShardCfg.Workload = "shard";
  ShardCfg.Seconds = Cfg.Seconds / 4;
  Report Sharded;
  runSeismicUpdate(ShardCfg, Ceil, Sharded, T);
  R.takeLayers(Sharded, "shard.");
}

} // namespace perfbench
