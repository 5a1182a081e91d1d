//===- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point per workload, and the in-run ceilings the traced
/// invocation compares layers against. Each workload fills \p R with its
/// end-to-end metrics (untraced) or its per-layer metrics (traced), and
/// records every job and output check in \p T.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_PERFBENCH_WORKLOADS_H
#define CMCC_PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "core/Compiler.h"
#include "service/StencilService.h"
#include <cstddef>

namespace perfbench {

/// What this host does with none of the program's code in the way,
/// measured by benchmark-owned loops (traced runs only).
struct Ceilings {
  double KernelGflops = 0.0; ///< Seismic row microkernel, one thread.
  double MemcpyGBps = 0.0;   ///< Halo-shaped row copies.
  double SocketGBps = 0.0;   ///< A grid through an AF_UNIX socketpair.
};
Ceilings measureCeilings();

/// `seismic` (njit) or `shard` (1x2 shard grid), by Cfg.Workload.
void runSeismicUpdate(const RunConfig &Cfg, const Ceilings &C, Report &R,
                      Tally &T);
void runWire(const RunConfig &Cfg, const Ceilings &C, Report &R, Tally &T);
void runCompile(const RunConfig &Cfg, const Ceilings &C, Report &R, Tally &T);

//===--- Shared by the workloads ------------------------------------------===//

/// The private disk tiers of one start: plan cache, njit artifacts,
/// tuning records. freshCacheDirs empties them.
struct CacheDirs {
  std::string Plans, Njit, Tune;
};
CacheDirs freshCacheDirs(const RunConfig &Cfg, const std::string &Tag);

/// Writes back everything this run has written (syncfs on the run
/// directory), with the clock stopped, so that every cold start and
/// restart meets its disk tiers in the same state: written and settled,
/// as they would be when a process restarts long after its last store.
void settleDisk(const RunConfig &Cfg);

/// Service options every workload starts from: one worker, the given
/// backend and thread count, and private disk tiers.
cmcc::StencilService::Options serviceOptions(const std::string &Backend,
                                             int Threads,
                                             const CacheDirs &Dirs);

/// A job that counts as done: Ok, on the requested backend, first try.
bool jobOk(const cmcc::StencilService::JobResult &Res);

/// Running totals of the service counters that must stay 0; add() fails
/// the run's checks when one is not.
struct MustBeZero {
  long Retries = 0, Fallbacks = 0, DiskRejects = 0;
  void add(const cmcc::ServiceStats &St, Tally &T);
};

/// Per-job service detail, all from the program's own exports
/// (JobResult and the job's timeline()).
struct JobDetail {
  std::vector<double> ExecuteUs, ServiceUs, OverheadUs, QueueWaitUs;
  /// \p Id's timeline gives the service time (Submitted to its last
  /// event) and the queue wait (Queued to Dequeued).
  void record(const cmcc::StencilService &S, cmcc::StencilService::JobId Id,
              double ExecuteSeconds, double CompileSeconds);
};

/// service.* and plancache.* from a run's stats and job detail.
void reportServiceLayers(Report &R, const cmcc::ServiceStats &St,
                         const JobDetail &D, const MustBeZero &Z);

/// A process-registry counter's growth since construction.
class CounterDelta {
public:
  explicit CounterDelta(const char *Name);
  long value() const;

private:
  const char *Name;
  long Start;
};

/// backend.*, halo.* and threadpool.* for a run whose backend executes
/// \p Plan over \p Field on \p Threads threads: exchangeHalos is timed
/// directly on \p Field and set against the run's median \p RunUs.
void reportBackendLayers(Report &R, const Ceilings &C,
                         const cmcc::CompiledStencil &Plan,
                         const cmcc::DistributedArray &Field, int Threads,
                         double RunUs, double ExchangesPerJob,
                         double DispatchesPerJob, bool Smoke);

/// Runs \p Steps seismic steps of \p Plan from (\p U0, \p Prev0) on an
/// in-process, unsharded, single-thread native backend and returns the
/// final field (empty on failure). \p SecondsPerStep, when given,
/// receives the median wall-clock of one step.
cmcc::Array2D replayNative(const cmcc::MachineConfig &Machine,
                           const cmcc::CompiledStencil &Plan,
                           const cmcc::Array2D &U0, const cmcc::Array2D &Prev0,
                           long Steps, double *SecondsPerStep = nullptr);

} // namespace perfbench

#endif // CMCC_PERFBENCH_WORKLOADS_H
