//===- runtime/Backend.h - The execution-backend seam ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The architecture seam between the compiled stencil description and
/// the machinery that executes it. The paper fixes one execution target
/// (CM-2 sequencer microcode); systems that outlived their first
/// machine — Devito's interchangeable backends, ForOpenCL's plain-loop
/// accelerator target — did so by making "what to compute" (the
/// recognized StencilSpec and its verified schedules) independent of
/// "how to run it".
///
/// An ExecutionBackend takes a CompiledStencil plus the bound
/// StencilArguments and returns results in the arrays plus a
/// TimingReport. Four backends exist today:
///
///   * backends/cm2  — the paper's simulated machine: halo-exchange
///     protocol, strip mining, FPU pipeline model, analytic cycle
///     accounting. Reports *simulated* machine time.
///   * backends/native — a host-speed, auto-vectorizable row kernel
///     that interprets the recognized spec (no simulation). Reports
///     measured *wall-clock* time.
///   * backends/njit — the same run with a plan-specialized row kernel
///     compiled out of process and dlopen'd.
///   * shard — any of the above over a fleet of worker processes, each
///     owning a block of the node grid.
///
/// native and njit are thin callers of one host run driver
/// (runtime/HostRun.h) and differ only in their row kernel. Every
/// backend resolves argument names through the same once-per-run
/// resolution below and exchanges halos through the same protocol;
/// tests/backend_equivalence_test asserts them equivalent (1 ulp per
/// term against cm2, bitwise between native and njit).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_BACKEND_H
#define CMCC_RUNTIME_BACKEND_H

#include "cm2/Timing.h"
#include "core/Compiler.h"
#include "runtime/DistributedArray.h"
#include <map>
#include <string>
#include <vector>

namespace cmcc {

/// Per-call execution options shared by every backend.
struct RunOptions {
  /// Timing repetitions of the run's fused unit. As everywhere in the
  /// runtime, iterations scale the reported cost; the arrays are
  /// written once.
  int Iterations = 1;
  /// Time-tile depth k, a cm2 cost-model extension: the run computes k
  /// *chained* timesteps — step s feeds step s+1 — behind a single halo
  /// exchange whose border widens to k x radius. The result arrays hold
  /// the k-step evolution, bitwise equal to k separate runs feeding
  /// each result back as the next source. 1 (the default) is exactly
  /// the classic single-step run. Depths k > 1 require the cm2 backend
  /// (sharded or not), a single-source stencil and k x radius <= the
  /// subgrid extent; host backends (native, njit) run one step per
  /// exchange and refuse them.
  int TimeTile = 1;
};

/// Arrays bound to one stencil call.
struct StencilArguments {
  DistributedArray *Result = nullptr;
  const DistributedArray *Source = nullptr;
  std::map<std::string, const DistributedArray *> Coefficients;
  /// Additional source arrays, by name (multi-source extension).
  std::map<std::string, const DistributedArray *> ExtraSources;
};

/// StencilArguments with every name resolved once per run into flat,
/// index-addressed vectors: the per-node execution paths (all backends)
/// index these instead of doing std::map lookups per node or per
/// half-strip setup.
struct ResolvedStencilArguments {
  /// The destination array the run writes.
  DistributedArray *Result = nullptr;
  /// By StencilSpec source index (0 = primary source).
  std::vector<const DistributedArray *> Sources;
  /// Parallel to StencilSpec::Taps; null for scalar coefficients and
  /// for bare terms.
  std::vector<const DistributedArray *> TapCoefficients;

  /// Every array the run touches (result, sources, coefficients), with
  /// repeats and nulls: what a run's HaloLocks take.
  std::vector<const DistributedArray *> arrays() const {
    std::vector<const DistributedArray *> All(Sources);
    All.push_back(Result);
    All.insert(All.end(), TapCoefficients.begin(), TapCoefficients.end());
    return All;
  }
};

/// Validates \p Args against \p Compiled for a machine of \p Config's
/// node grid (shape agreement, no aliasing, border fits the subgrid)
/// and resolves every array name to a pointer exactly once. Returns a
/// failure describing the first problem — the messages are shared by
/// every backend.
Expected<ResolvedStencilArguments>
resolveStencilArguments(const MachineConfig &Config,
                        const CompiledStencil &Compiled,
                        const StencilArguments &Args);

/// One interchangeable execution engine behind the seam.
class ExecutionBackend {
public:
  virtual ~ExecutionBackend();

  /// Stable identifier ("cm2", "native"): participates in plan-cache
  /// fingerprints, metric/span names, and the tools' --backend flag.
  virtual const char *name() const = 0;

  /// True when this backend's TimingReports carry measured host
  /// wall-clock rather than simulated machine cycles.
  virtual bool reportsWallClock() const = 0;

  /// Runs \p Compiled over \p Args under \p Opts (iterations and time
  /// tile), writing the result subgrids and returning the backend's
  /// timing report. Resolves the by-name arguments exactly once and
  /// dispatches to runResolved — backends never re-resolve, and callers
  /// that already hold resolved arguments (the shard workers, whose
  /// arrays arrive indexed rather than named) call runResolved
  /// directly.
  Expected<TimingReport> run(const CompiledStencil &Compiled,
                             StencilArguments &Args,
                             const RunOptions &Opts) const;

  /// Classic form: \p Iterations timing repetitions, no time tiling.
  Expected<TimingReport> run(const CompiledStencil &Compiled,
                             StencilArguments &Args, int Iterations) const {
    RunOptions Opts;
    Opts.Iterations = Iterations;
    return run(Compiled, Args, Opts);
  }

  /// The backend's execution body, over arguments resolved by
  /// resolveStencilArguments against this backend's machine().
  virtual Expected<TimingReport>
  runResolved(const CompiledStencil &Compiled,
              const ResolvedStencilArguments &Resolved,
              const RunOptions &Opts) const = 0;

  /// Classic form of runResolved (no time tiling).
  Expected<TimingReport> runResolved(const CompiledStencil &Compiled,
                                     const ResolvedStencilArguments &Resolved,
                                     int Iterations) const {
    RunOptions Opts;
    Opts.Iterations = Iterations;
    return runResolved(Compiled, Resolved, Opts);
  }

  /// A timing report for SubRows x SubCols per-node subgrids without
  /// caller-provided arrays. The cm2 backend computes this analytically
  /// (exact for any machine size); the native backend measures a real
  /// run over scratch arrays. Fails only where a run would (e.g. the
  /// border exceeds the subgrid on a measuring backend).
  virtual Expected<TimingReport> timeOnly(const CompiledStencil &Compiled,
                                          int SubRows, int SubCols,
                                          const RunOptions &Opts) const = 0;

  /// Classic form of timeOnly (no time tiling).
  Expected<TimingReport> timeOnly(const CompiledStencil &Compiled,
                                  int SubRows, int SubCols,
                                  int Iterations) const {
    RunOptions Opts;
    Opts.Iterations = Iterations;
    return timeOnly(Compiled, SubRows, SubCols, Opts);
  }

  /// The machine this backend executes for (node grid, clock).
  virtual const MachineConfig &machine() const = 0;

protected:
  /// run() over scratch arrays of SubRows x SubCols per node on
  /// machine()'s grid, each node's subgrid filled from seed
  /// Seed * 7919 + NodeId, with Seed counting 1, 2, ... over the
  /// source, the extra sources and the coefficient arrays. Every
  /// measuring backend's timeOnly runs here, so their timing runs
  /// compute identical values.
  Expected<TimingReport> runOnScratch(const CompiledStencil &Compiled,
                                      int SubRows, int SubCols,
                                      const RunOptions &Opts) const;
};

} // namespace cmcc

#endif // CMCC_RUNTIME_BACKEND_H
