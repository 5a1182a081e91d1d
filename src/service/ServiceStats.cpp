//===- service/ServiceStats.cpp -------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/ServiceStats.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"
#include <cstdio>

using namespace cmcc;

std::string ServiceStats::str() const {
  TextTable T;
  T.setHeader({"metric", "value"});
  T.addRow({"jobs submitted", std::to_string(JobsSubmitted)});
  T.addRow({"jobs completed", std::to_string(JobsCompleted)});
  T.addRow({"jobs failed", std::to_string(JobsFailed)});
  T.addRow({"queue depth (now/max)", std::to_string(QueueDepth) + "/" +
                                         std::to_string(MaxQueueDepth)});
  T.addSeparator();
  T.addRow({"jobs rejected (cap/quota)", std::to_string(Rejected)});
  T.addRow({"jobs cancelled", std::to_string(Cancelled)});
  T.addRow({"deadlines exceeded", std::to_string(DeadlineExceeded)});
  T.addRow({"execute retries", std::to_string(Retries)});
  T.addRow({"backend fallbacks", std::to_string(Fallbacks)});
  T.addRow({"autotune hits (mem/disk)", std::to_string(TuneHits) + "/" +
                                            std::to_string(TuneDiskHits)});
  T.addRow({"autotune sweeps", std::to_string(TuneSweeps)});
  T.addRow({"autotune disk rejects", std::to_string(TuneDiskRejects)});
  // Per-tenant rows only once a non-default tenant shows up — the
  // single-tenant table stays exactly as it always looked.
  const bool MultiTenant =
      Tenants.size() > 1 || (!Tenants.empty() && Tenants[0].Tenant != 0);
  if (MultiTenant) {
    T.addSeparator();
    for (const TenantRow &R : Tenants)
      T.addRow({"tenant " + std::to_string(R.Tenant) +
                    " (sub/done/fail/rej)",
                std::to_string(R.Submitted) + "/" +
                    std::to_string(R.Completed) + "/" +
                    std::to_string(R.Failed) + "/" +
                    std::to_string(R.Rejected)});
  }
  T.addSeparator();
  T.addRow({"front-end runs", std::to_string(FrontEndRuns)});
  T.addRow({"source-memo hits", std::to_string(SourceMemoHits)});
  T.addRow({"compiles performed", std::to_string(CompilesPerformed)});
  T.addRow({"compiles coalesced", std::to_string(CompilesCoalesced)});
  T.addRow({"plan-cache hits", std::to_string(Cache.Hits)});
  T.addRow({"plan-cache misses", std::to_string(Cache.Misses)});
  T.addRow({"plan-cache hit rate",
            formatFixed(100.0 * Cache.hitRate(), 1) + "%"});
  T.addRow({"plan-cache evictions", std::to_string(Cache.Evictions)});
  T.addRow({"disk-tier hits", std::to_string(Cache.DiskHits)});
  T.addRow({"disk-tier rejects", std::to_string(Cache.DiskRejects)});
  T.addSeparator();
  T.addRow({"compile seconds (total)", formatFixed(CompileSecondsTotal, 4)});
  T.addRow({"compile seconds (mean)", formatFixed(meanCompileSeconds(), 5)});
  T.addRow({"execute seconds (total)", formatFixed(ExecuteSecondsTotal, 4)});
  T.addRow({"execute seconds (mean)", formatFixed(meanExecuteSeconds(), 5)});
  const char *Timing = ReportsWallClock ? "wall-clock" : "simulated";
  T.addRow({std::string(Timing) + " seconds served",
            formatFixed(SimSecondsTotal, 3)});
  T.addRow({std::string("aggregate ") + Timing + " Mflops",
            formatFixed(aggregateSimMflops(), 1)});
  return T.str();
}

std::string ServiceStats::json() const {
  char Buffer[2048];
  std::snprintf(
      Buffer, sizeof(Buffer),
      "{\n"
      "  \"jobs_submitted\": %ld,\n"
      "  \"jobs_completed\": %ld,\n"
      "  \"jobs_failed\": %ld,\n"
      "  \"queue_depth\": %d,\n"
      "  \"max_queue_depth\": %d,\n"
      "  \"service.rejected\": %ld,\n"
      "  \"service.cancelled\": %ld,\n"
      "  \"service.deadline_exceeded\": %ld,\n"
      "  \"service.retries\": %ld,\n"
      "  \"service.fallbacks\": %ld,\n"
      "  \"tune_hits\": %ld,\n"
      "  \"tune_disk_hits\": %ld,\n"
      "  \"tune_misses\": %ld,\n"
      "  \"tune_disk_rejects\": %ld,\n"
      "  \"tune_sweeps\": %ld,\n"
      "  \"front_end_runs\": %ld,\n"
      "  \"source_memo_hits\": %ld,\n"
      "  \"compiles_performed\": %ld,\n"
      "  \"compiles_coalesced\": %ld,\n"
      "  \"cache_hits\": %ld,\n"
      "  \"cache_misses\": %ld,\n"
      "  \"cache_hit_rate\": %.6g,\n"
      "  \"cache_evictions\": %ld,\n"
      "  \"disk_hits\": %ld,\n"
      "  \"disk_rejects\": %ld,\n"
      "  \"compile_seconds_total\": %.6g,\n"
      "  \"execute_seconds_total\": %.6g,\n"
      "  \"sim_seconds_total\": %.6g,\n"
      "  \"useful_flops_total\": %.6g,\n"
      "  \"aggregate_sim_mflops\": %.6g,\n"
      "  \"tenants\": [",
      JobsSubmitted, JobsCompleted, JobsFailed, QueueDepth, MaxQueueDepth,
      Rejected, Cancelled, DeadlineExceeded, Retries, Fallbacks, TuneHits,
      TuneDiskHits, TuneMisses, TuneDiskRejects, TuneSweeps,
      FrontEndRuns, SourceMemoHits, CompilesPerformed, CompilesCoalesced,
      Cache.Hits, Cache.Misses, Cache.hitRate(), Cache.Evictions,
      Cache.DiskHits, Cache.DiskRejects, CompileSecondsTotal,
      ExecuteSecondsTotal, SimSecondsTotal, UsefulFlopsTotal,
      aggregateSimMflops());
  std::string Out = Buffer;
  for (size_t I = 0; I != Tenants.size(); ++I) {
    const TenantRow &R = Tenants[I];
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s\n    {\"tenant\": %u, \"submitted\": %ld, "
                  "\"completed\": %ld, \"failed\": %ld, \"rejected\": %ld, "
                  "\"in_flight\": %d, \"queued\": %d}",
                  I == 0 ? "" : ",", R.Tenant, R.Submitted, R.Completed,
                  R.Failed, R.Rejected, R.InFlight, R.Queued);
    Out += Buffer;
  }
  Out += Tenants.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return Out;
}
