//===- backends/njit/NjitBackend.cpp --------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/njit/NjitBackend.h"
#include "core/PlanFingerprint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include <cstdlib>

using namespace cmcc;

namespace {

njit::ArtifactCache::Options cacheOptions(const NjitBackend::Options &Opts) {
  njit::ArtifactCache::Options CO;
  if (!Opts.CacheDir.empty())
    CO.DiskDir = Opts.CacheDir;
  else if (const char *Env = std::getenv("CMCC_NJIT_CACHE_DIR"))
    CO.DiskDir = Env;
  return CO;
}

} // namespace

NjitBackend::NjitBackend(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(Opts), Cache(cacheOptions(Opts)) {}

Expected<TimingReport>
NjitBackend::runResolved(const CompiledStencil &Compiled,
                         const ResolvedStencilArguments &Resolved,
                         const RunOptions &RO) const {
  CMCC_SPAN("backend.njit.run");
  if (fault::probe("backend.njit.run"))
    return fault::injectedFault("backend.njit.run");
  static obs::Counter &Runs =
      obs::Registry::process().counter("backend.njit.runs");
  static obs::Histogram &RunHostUs =
      obs::Registry::process().histogram("backend.njit.run_host_us");
  Runs.add(1);
  obs::ScopedLatencyUs RunTimer(RunHostUs);

  const StencilSpec &Spec = Compiled.Spec;

  // The kernel is a per-plan artifact, resolved before the timed
  // region. An unusable toolchain is reported transient so a serving
  // layer degrades to cm2 instead of failing the job.
  const uint64_t Fingerprint = planFingerprint(Spec, Config, "njit");
  Expected<njit::Artifact> Kernel = Cache.lookup(Fingerprint, Spec);
  if (!Kernel)
    return Kernel.error().isTransient()
               ? Kernel.error()
               : Error::transient(Kernel.error().message());

  // The kernel is geometry-oblivious — bases, strides and widths are
  // call operands — so one artifact serves every subgrid shape.
  return runOnHost(Config, Opts, Spec, Resolved, RO, Kernel->Kernel,
                   {"backend.njit.halo_exchange", "njit.run"});
}

Expected<TimingReport> NjitBackend::timeOnly(const CompiledStencil &Compiled,
                                             int SubRows, int SubCols,
                                             const RunOptions &RO) const {
  CMCC_SPAN("backend.njit.time_only");
  return runOnScratch(Compiled, SubRows, SubCols, RO);
}
