//===- backends/native/NativeBackend.h - Host-speed backend ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A host-speed execution backend: lowers the recognized StencilSpec
/// directly to a tiled, thread-pooled C++ loop nest — no sequencer, no
/// FPU pipeline model, no simulation. The same recognizer/compiler
/// output the CM-2 backend consumes drives real hardware, the way
/// ForOpenCL lowers the same array syntax to plain accelerator loops.
///
/// Numerics are kept aligned with the simulated FPU on purpose:
///
///   * halos come from the same exchangeHalos protocol (wraparound /
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
/// Timing reports carry measured wall-clock (in the host-seconds
/// field; the simulated cycle breakdown is zero), so measuredMflops()
/// is real machine throughput.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NATIVE_NATIVEBACKEND_H
#define CMCC_BACKENDS_NATIVE_NATIVEBACKEND_H

#include "runtime/Backend.h"
#include "runtime/HaloTransport.h"
#include "runtime/Partition.h"

namespace cmcc {

/// Host-speed execution of compiled stencils.
class NativeBackend : public ExecutionBackend {
public:
  struct Options {
    /// Skip corner halo data for cornerless stencils (same default as
    /// the simulated path; skipped corners stay NaN-poisoned).
    bool AllowCornerSkip = true;
    /// Host threads: 0 uses the process-wide shared pool
    /// (CMCC_THREADS), N >= 1 a leased pool of exactly N threads
    /// (ThreadPool::lease, reused across runs).
    /// Thread count never changes results — tiles are disjoint.
    int ThreadCount = 0;
    /// Rows per parallel tile. Small enough to load-balance the pool
    /// even on one node's subgrid, large enough that a tile's rows
    /// amortize the dispatch.
    int RowsPerTile = 32;
    /// When set, this backend runs one shard's block of a larger node
    /// grid; block-edge halo traffic moves through Transport. Null runs
    /// the whole grid in-process.
    const PartitionDomain *Domain = nullptr;
    HaloTransport *Transport = nullptr;
  };

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

  /// Computes the result arrays once and reports measured wall-clock
  /// seconds per iteration (the functional pass is identical for every
  /// iteration, as on the simulated machine). With Opts.TimeTile = k >
  /// 1, one wide exchange feeds k chained steps: intermediate steps
  /// compute shrinking extended rectangles in scratch (per-point
  /// arithmetic is position-independent here, so no owner replay is
  /// needed), zero-masked at global Zero edges, and the last step
  /// writes the result arrays.
  Expected<TimingReport>
  runResolved(const CompiledStencil &Compiled,
              const ResolvedStencilArguments &Resolved,
              const RunOptions &RO) const override;

  /// Measures a real run over internally allocated scratch arrays of
  /// the given per-node shape (deterministically filled); fails where
  /// a run would, e.g. a border exceeding the subgrid.
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
