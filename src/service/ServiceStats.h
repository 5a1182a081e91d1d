//===- service/ServiceStats.h - Serving-layer metrics ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A snapshot of the StencilService's operational metrics: job counts,
/// compile-vs-execute latency totals, queue depth, plan-cache counters,
/// and the aggregate simulated rate across everything served. Rendered
/// as a TextTable for humans and as JSON for the perf-trajectory
/// tooling.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SERVICE_SERVICESTATS_H
#define CMCC_SERVICE_SERVICESTATS_H

#include "service/PlanCache.h"
#include <cstdint>
#include <string>
#include <vector>

namespace cmcc {

/// Point-in-time service metrics (all totals since construction).
struct ServiceStats {
  //===--- Jobs -----------------------------------------------------------===//
  long JobsSubmitted = 0;
  long JobsCompleted = 0; ///< Finished successfully.
  long JobsFailed = 0;    ///< Finished with a diagnostic.
  int QueueDepth = 0;     ///< Jobs queued but not yet picked up.
  int MaxQueueDepth = 0;  ///< High-water mark of QueueDepth.

  //===--- Robustness (DESIGN.md §5f) -------------------------------------===//
  long Rejected = 0;         ///< Jobs refused at admission (cap or quota).
  long Cancelled = 0;        ///< Jobs cancelled out of the queue.
  long DeadlineExceeded = 0; ///< Jobs cancelled past their deadline.
  long Retries = 0;          ///< Execute attempts beyond each job's first.
  long Fallbacks = 0;        ///< Jobs that fell back to the cm2 backend.

  //===--- Autotuning (DESIGN.md §5k) -------------------------------------===//
  long TuneHits = 0;        ///< Tuned params served from memory.
  long TuneDiskHits = 0;    ///< Tuned params loaded from a valid record.
  long TuneMisses = 0;      ///< No usable record: a sweep ran.
  long TuneDiskRejects = 0; ///< Corrupt/stale/foreign tuning records.
  long TuneSweeps = 0;      ///< Full candidate sweeps performed.

  //===--- Multi-tenancy (DESIGN.md §5h) ----------------------------------===//
  /// One row per tenant id that has submitted anything (id 0 is the
  /// anonymous default tenant).
  struct TenantRow {
    uint32_t Tenant = 0;
    long Submitted = 0;
    long Completed = 0;
    long Failed = 0;   ///< Includes rejected and cancelled jobs.
    long Rejected = 0; ///< Quota or queue-cap rejections.
    int InFlight = 0;  ///< Admitted, not yet finished.
    int Queued = 0;    ///< Queued, not yet dispatched.
  };
  std::vector<TenantRow> Tenants;

  //===--- The compile-once economy ---------------------------------------===//
  long FrontEndRuns = 0;      ///< Parse+recognize passes actually performed.
  long SourceMemoHits = 0;    ///< Source text resolved without the front end.
  long CompilesPerformed = 0; ///< Full recognition+planning+verification runs.
  long CompilesCoalesced = 0; ///< Jobs that waited on another job's compile.
  PlanCache::Counters Cache;

  //===--- Latency and throughput -----------------------------------------===//
  double CompileSecondsTotal = 0.0; ///< Host wall-clock spent compiling.
  double ExecuteSecondsTotal = 0.0; ///< Host wall-clock spent executing.
  /// Machine seconds served: simulated seconds on the cm2 backend,
  /// measured wall-clock on backends that report it (see
  /// ReportsWallClock).
  double SimSecondsTotal = 0.0;
  double UsefulFlopsTotal = 0.0;    ///< Useful flops across all jobs served.
  /// True when the service's backend measures wall-clock instead of
  /// simulating cycles — flips the str() labels from "simulated" to
  /// "wall-clock" (JSON keys stay stable either way).
  bool ReportsWallClock = false;

  /// Aggregate simulated rate: useful flops over simulated seconds.
  double aggregateSimMflops() const {
    return SimSecondsTotal > 0.0 ? UsefulFlopsTotal / SimSecondsTotal / 1e6
                                 : 0.0;
  }

  /// Mean host compile latency over performed compiles.
  double meanCompileSeconds() const {
    return CompilesPerformed > 0 ? CompileSecondsTotal / CompilesPerformed
                                 : 0.0;
  }

  /// Mean host execute latency over completed jobs.
  double meanExecuteSeconds() const {
    return JobsCompleted > 0 ? ExecuteSecondsTotal / JobsCompleted : 0.0;
  }

  /// Two-column human-readable table.
  std::string str() const;

  /// A single JSON object (machine-readable dump).
  std::string json() const;
};

} // namespace cmcc

#endif // CMCC_SERVICE_SERVICESTATS_H
