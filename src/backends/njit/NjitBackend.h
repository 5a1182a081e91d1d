//===- backends/njit/NjitBackend.h - JIT-specialized backend --*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third execution backend: instead of *interpreting* the
/// recognized StencilSpec (native) or simulating the CM-2 (cm2), each
/// recognized stencil is lowered to plan-specialized C++ — coefficients
/// constant-folded, tap chain fully unrolled, hot loop branch-free —
/// compiled out of process by the host toolchain, and dlopen'd. The
/// modern analogue of the paper's "compile once, run at machine speed"
/// bargain: the paper pays a sequencer-microcode compile per stencil,
/// njit pays one cc invocation per plan fingerprint, and both amortize
/// it over every subsequent run through a cache keyed by the plan.
///
/// Everything around the kernel is the host run driver it shares with
/// the native backend (runtime/HostRun.h): the §5.1 halo-exchange
/// protocol, the row-tiled thread-pool dispatch, the one-step-per-
/// exchange rule and the wall-clock TimingReport. The dlopen'd kernel
/// is called through the driver's row-kernel ABI directly. The kernel
/// computes the identical sequence of rounded float operations (emitted
/// and compiled with -ffp-contract=off), so njit results are bitwise
/// equal to native and inherit native's ≤1-ulp contract with cm2
/// (backend_equivalence_test runs all three).
///
/// Failure semantics: no usable host compiler, a broken CMCC_NJIT_CC,
/// or a failing toolchain invocation (the `njit.cc` fault site) surface
/// as *transient* errors from run(), so a StencilService routes the job
/// down its PR-5 ladder — retry, then a counted fallback to cm2 — and
/// the caller still gets an answer.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NJIT_NJITBACKEND_H
#define CMCC_BACKENDS_NJIT_NJITBACKEND_H

#include "backends/njit/ArtifactCache.h"
#include "runtime/HostRun.h"

namespace cmcc {

/// Plan-specialized JIT execution of compiled stencils.
class NjitBackend : public ExecutionBackend {
public:
  /// The host run driver's options plus the artifact cache's home.
  struct Options : HostRunOptions {
    /// Artifact-cache root. Empty means CMCC_NJIT_CACHE_DIR from the
    /// environment, or ".cmccjit" (beside ".cmccode", the plan cache).
    std::string CacheDir;
  };

  explicit NjitBackend(const MachineConfig &Config)
      : NjitBackend(Config, Options()) {}
  NjitBackend(const MachineConfig &Config, Options Opts);

  const char *name() const override { return "njit"; }
  bool reportsWallClock() const override { return true; }

  // Re-expose the base class's int-Iterations convenience overloads
  // (hidden by the RunOptions overrides).
  using ExecutionBackend::run;
  using ExecutionBackend::runResolved;
  using ExecutionBackend::timeOnly;

  /// Looks up (or emits + compiles + loads) the plan's kernel, then
  /// runs it through the host run driver. Reports
  /// measured wall-clock seconds per iteration; the JIT cost is *not*
  /// in the report — it is a per-plan cost, visible in the
  /// njit.compile_us histogram and in a service's cold-submit latency.
  Expected<TimingReport>
  runResolved(const CompiledStencil &Compiled,
              const ResolvedStencilArguments &Resolved,
              const RunOptions &RO) const override;

  /// Measures a real run over runOnScratch's deterministic arrays,
  /// exactly like the native backend.
  Expected<TimingReport> timeOnly(const CompiledStencil &Compiled, int SubRows,
                                  int SubCols,
                                  const RunOptions &RO) const override;

  const MachineConfig &machine() const override { return Config; }
  const Options &options() const { return Opts; }

  /// The backend's kernel cache (tests assert its counters; the
  /// warm-restart drill asserts Compiles stays zero).
  njit::ArtifactCache &cache() const { return Cache; }

private:
  MachineConfig Config;
  Options Opts;
  mutable njit::ArtifactCache Cache;
};

} // namespace cmcc

#endif // CMCC_BACKENDS_NJIT_NJITBACKEND_H
