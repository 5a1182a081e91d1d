//===- perfbench/src/Shared.cpp - What the workloads share ----------------===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "backends/Registry.h"
#include "obs/Metrics.h"
#include "runtime/HaloExchange.h"
#include "support/ThreadPool.h"
#include <fcntl.h>
#include <optional>
#include <unistd.h>

using namespace cmcc;

namespace perfbench {

CacheDirs freshCacheDirs(const RunConfig &Cfg, const std::string &Tag) {
  const std::string Base = Cfg.Dir + "/" + Tag;
  CacheDirs D{Base + "/plans", Base + "/njit", Base + "/tune"};
  freshDir(D.Plans);
  freshDir(D.Njit);
  freshDir(D.Tune);
  return D;
}

void settleDisk(const RunConfig &Cfg) {
  const int Fd = ::open(Cfg.Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  ::syncfs(Fd);
  ::close(Fd);
}

StencilService::Options serviceOptions(const std::string &Backend,
                                       int Threads, const CacheDirs &Dirs) {
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.Backend = Backend;
  Opts.Exec.ThreadCount = Threads;
  Opts.Cache.DiskDir = Dirs.Plans;
  Opts.TuneDir = Dirs.Tune;
  return Opts;
}

bool jobOk(const StencilService::JobResult &Res) {
  return Res.Ok && Res.Status == StencilService::JobStatus::Ok &&
         !Res.FellBack && Res.Retries == 0 && Res.Plan;
}

void MustBeZero::add(const ServiceStats &St, Tally &T) {
  Retries += St.Retries;
  Fallbacks += St.Fallbacks;
  DiskRejects += St.Cache.DiskRejects;
  T.check(St.Retries == 0, "the service retried a job");
  T.check(St.Fallbacks == 0, "the service fell back to cm2");
  T.check(St.Cache.DiskRejects == 0, "the plan cache rejected a disk entry");
}

void JobDetail::record(const StencilService &S, StencilService::JobId Id,
                       double ExecuteSeconds, double CompileSeconds) {
  std::optional<StencilService::JobTimeline> TL = S.timeline(Id);
  if (!TL || TL->Events.empty())
    return;
  uint64_t Queued = 0, Dequeued = 0;
  for (const StencilService::TimelineEntry &E : TL->Events) {
    if (E.Event == StencilService::JobEvent::Queued)
      Queued = E.Ns;
    else if (E.Event == StencilService::JobEvent::Dequeued && !Dequeued)
      Dequeued = E.Ns;
  }
  const double Service =
      static_cast<double>(TL->Events.back().Ns - TL->Events.front().Ns) / 1e3;
  ExecuteUs.push_back(ExecuteSeconds * 1e6);
  ServiceUs.push_back(Service);
  OverheadUs.push_back(Service - (ExecuteSeconds + CompileSeconds) * 1e6);
  if (Queued && Dequeued >= Queued)
    QueueWaitUs.push_back(static_cast<double>(Dequeued - Queued) / 1e3);
}

void reportServiceLayers(Report &R, const ServiceStats &St,
                         const JobDetail &D, const MustBeZero &Z) {
  R.layer("service.overhead_us", median(D.OverheadUs));
  R.layer("service.queue_wait_us", median(D.QueueWaitUs));
  R.layer("service.compile_us", St.meanCompileSeconds() * 1e6);
  R.layer("service.memo_hit_ratio",
          St.JobsSubmitted ? static_cast<double>(St.SourceMemoHits) /
                                 static_cast<double>(St.JobsSubmitted)
                           : 0.0);
  R.layer("service.retries", static_cast<double>(Z.Retries));
  R.layer("service.fallbacks", static_cast<double>(Z.Fallbacks));
  R.layer("plancache.hit_ratio", St.Cache.hitRate());
  R.layer("plancache.disk_hits", static_cast<double>(St.Cache.DiskHits));
  R.layer("plancache.disk_rejects", static_cast<double>(Z.DiskRejects));
}

CounterDelta::CounterDelta(const char *Name)
    : Name(Name), Start(obs::Registry::process().counter(Name).value()) {}

long CounterDelta::value() const {
  return obs::Registry::process().counter(Name).value() - Start;
}

namespace {

/// Bytes one halo exchange of \p A moves by the §5.1 protocol: the core
/// copied into the padded buffer, then the West/East bands, then the
/// North/South bands (with the corner pads when the stencil needs them).
double haloBytesPerExchange(const DistributedArray &A, int Border,
                            bool Corners) {
  const double SR = A.subRows(), SC = A.subCols();
  const double NS = Corners ? SC + 2.0 * Border : SC;
  const double PerNode = SR * SC + 2.0 * Border * SR + 2.0 * Border * NS;
  return PerNode * A.grid().nodeCount() * sizeof(float);
}

} // namespace

void reportBackendLayers(Report &R, const Ceilings &C,
                         const CompiledStencil &Plan,
                         const DistributedArray &Field, int Threads,
                         double RunUs, double ExchangesPerJob,
                         double DispatchesPerJob, bool Smoke) {
  const StencilSpec &Spec = Plan.Spec;
  const int Border = Spec.borderWidths().maximum();
  const bool Corners = Spec.needsCornerData();
  ThreadPool Pool(Threads);
  std::vector<double> ExchangeUs;
  for (int I = 0; I != (Smoke ? 5 : 200); ++I) {
    const Clock::time_point T0 = Clock::now();
    std::vector<Array2D> Padded =
        exchangeHalos(Field, Border, Spec.BoundaryDim1, Spec.BoundaryDim2,
                      Corners, &Pool);
    ExchangeUs.push_back(secondsSince(T0) * 1e6);
  }
  const double ExUs = median(ExchangeUs);
  const double HaloUsPerJob = ExUs * ExchangesPerJob;
  const double BytesPerExchange = haloBytesPerExchange(Field, Border, Corners);
  const double FlopsPerJob = static_cast<double>(Spec.usefulFlopsPerPoint()) *
                             Field.globalRows() * Field.globalCols();
  const double KernelGflops = FlopsPerJob / ((RunUs - HaloUsPerJob) * 1e3);
  R.layer("backend.run_us", RunUs);
  R.layer("backend.gflops", FlopsPerJob / (RunUs * 1e3));
  R.layer("backend.kernel_gflops", KernelGflops);
  R.layer("backend.kernel_pct_of_ceiling",
          KernelGflops / (C.KernelGflops * Threads) * 100.0);
  R.layer("halo.exchange_us", ExUs);
  R.layer("halo.share", HaloUsPerJob / RunUs);
  R.layer("halo.bytes_per_job", BytesPerExchange * ExchangesPerJob);
  R.layer("halo.pct_of_memcpy",
          BytesPerExchange / (C.MemcpyGBps * 1e3) / ExUs * 100.0);
  R.layer("halo.exchanges_per_job", ExchangesPerJob);
  R.layer("threadpool.dispatches_per_job", DispatchesPerJob);
}

Array2D replayNative(const MachineConfig &Machine, const CompiledStencil &Plan,
                     const Array2D &U0, const Array2D &Prev0, long Steps,
                     double *SecondsPerStep) {
  NodeGrid Grid(Machine);
  const int SR = U0.rows() / Grid.rows(), SC = U0.cols() / Grid.cols();
  DistributedArray A(Grid, SR, SC), B(Grid, SR, SC), C(Grid, SR, SC);
  A.scatter(U0);
  B.scatter(Prev0);
  DistributedArray *U = &A, *Prev = &B, *Next = &C;
  Executor::Options Exec;
  Exec.ThreadCount = 1;
  std::unique_ptr<ExecutionBackend> Native =
      createBackend("native", Machine, Exec);
  std::vector<double> Times;
  for (long S = 0; S != Steps; ++S) {
    StencilArguments Args;
    Args.Result = Next;
    Args.Source = U;
    Args.Coefficients["UPREV"] = Prev;
    const Clock::time_point T0 = Clock::now();
    Expected<TimingReport> Rep = Native->run(Plan, Args, 1);
    Times.push_back(secondsSince(T0));
    if (!Rep)
      return Array2D();
    DistributedArray *Old = Prev;
    Prev = U;
    U = Next;
    Next = Old;
  }
  if (SecondsPerStep)
    *SecondsPerStep = median(Times);
  return U->gather();
}

} // namespace perfbench
