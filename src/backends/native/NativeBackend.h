//===- backends/native/NativeBackend.h - Host-speed backend ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A host-speed execution backend: lowers the recognized StencilSpec
/// directly to a C++ loop nest — no sequencer, no FPU pipeline model,
/// no simulation. The same recognizer/compiler output the CM-2 backend
/// consumes drives real hardware, the way ForOpenCL lowers the same
/// array syntax to plain accelerator loops.
///
/// Everything around the loop nest is the shared host run driver
/// (runtime/HostRun.h): the §5.1 exchange, the owner-computes
/// thread-pool loop, the one-step-per-exchange rule and the wall-clock
/// TimingReport. This backend contributes only the generic row kernel,
/// which interprets the spec behind the driver's row-kernel ABI,
/// accumulating every tap of a block of columns in registers.
///
/// Numerics are kept aligned with the simulated FPU on purpose:
///
///   * halos hold the cells the §5.1 protocol delivers (wraparound /
///     zero-fill / poisoned skipped corners identical);
///   * each result point accumulates `0.0f + term0 + term1 + ...` in
///     single precision with each term rounded separately (the file is
///     compiled with -ffp-contract=off so no FMA contraction), exactly
///     the pipeline model's chain arithmetic;
///   * each term is `Data * (Sign * Coeff)` with the sign folded in
///     float, mirroring FastNodeBinding.
///
/// The one licensed difference is term *order*: native accumulates in
/// StencilSpec tap order while the compiled schedule may permute taps
/// (reads of registers about to be overwritten come first), so sums
/// agree bitwise for single-term stencils and to 1 ulp per term
/// otherwise — the contract tests/backend_equivalence_test enforces.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NATIVE_NATIVEBACKEND_H
#define CMCC_BACKENDS_NATIVE_NATIVEBACKEND_H

#include "runtime/HostRun.h"

namespace cmcc {

/// Host-speed execution of compiled stencils.
class NativeBackend : public ExecutionBackend {
public:
  /// Corner skip, pool and shard domain: the host run driver's options.
  using Options = HostRunOptions;

  explicit NativeBackend(const MachineConfig &Config) : Config(Config) {}
  NativeBackend(const MachineConfig &Config, Options Opts)
      : Config(Config), Opts(Opts) {}

  const char *name() const override { return "native"; }
  bool reportsWallClock() const override { return true; }

  // Re-expose the base class's int-Iterations convenience overloads
  // (hidden by the RunOptions overrides).
  using ExecutionBackend::run;
  using ExecutionBackend::runResolved;
  using ExecutionBackend::timeOnly;

  /// Computes the result arrays once through the host run driver and
  /// reports measured wall-clock seconds per iteration (the functional
  /// pass is identical for every iteration, as on the simulated
  /// machine).
  Expected<TimingReport>
  runResolved(const CompiledStencil &Compiled,
              const ResolvedStencilArguments &Resolved,
              const RunOptions &RO) const override;

  /// Measures a real run over runOnScratch's deterministic arrays of
  /// the given per-node shape; fails where a run would, e.g. a border
  /// exceeding the subgrid.
  Expected<TimingReport> timeOnly(const CompiledStencil &Compiled, int SubRows,
                                  int SubCols,
                                  const RunOptions &RO) const override;

  const MachineConfig &machine() const override { return Config; }
  const Options &options() const { return Opts; }

private:
  MachineConfig Config;
  Options Opts;
};

} // namespace cmcc

#endif // CMCC_BACKENDS_NATIVE_NATIVEBACKEND_H
