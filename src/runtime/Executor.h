//===- runtime/Executor.h - The run-time library --------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's run-time library (§5): allocates halo storage, performs
/// the border exchange, strip-mines each node's subgrid (greedy widest
/// strip, two half-strips each), and drives the microcode — here, the
/// FPU pipeline model executing the compiled dynamic-part schedules.
///
/// Execution is *functional* (it produces the numerical result by running
/// the schedules through the pipeline model) and *timed* (cycle costs per
/// the machine configuration). Because the CM-2 is synchronous SIMD, one
/// iteration's cycle count is exact for every iteration, so a timed run
/// of N iterations executes the arrays once and scales the cycle cost —
/// the same reasoning that makes the paper's extrapolations reliable.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_EXECUTOR_H
#define CMCC_RUNTIME_EXECUTOR_H

#include "cm2/GridComm.h"
#include "cm2/Timing.h"
#include "core/Compiler.h"
#include "runtime/Backend.h"
#include "runtime/DistributedArray.h"
#include "runtime/HostRun.h"
#include "runtime/StripMiner.h"
#include "runtime/TimeTile.h"
#include <map>
#include <string>

namespace cmcc {

/// Executes compiled stencils on a simulated machine.
class Executor {
public:
  /// How much functional work to do; timing is identical in all modes.
  enum class FunctionalMode {
    /// Run the schedules on every node's data (full result).
    AllNodes,
    /// Run only node (0,0) — still exercises every schedule; used by
    /// large-machine benches where gathering a full result is pointless.
    SingleNode,
    /// Timing only.
    None,
  };

  /// The host-run options (corner skip, pool, shard domain) plus the
  /// simulated machine's own knobs.
  struct Options : HostRunOptions {
    CommPrimitive Primitive = CommPrimitive::NodeGridExchange;
    /// Process strips as two half-strips (§5.2); false = ablation A3.
    bool UseHalfStrips = true;
    /// Force a single multistencil width (0 = greedy widest).
    int ForceWidth = 0;
    FunctionalMode Mode = FunctionalMode::AllNodes;
    /// Resolve half-strip operands to flat pointer bindings once per
    /// half-strip (devirtualized inner loop). False runs the virtual
    /// FpuMemoryInterface reference binding; results are bitwise
    /// identical either way (tested).
    bool UseFastPath = true;
  };

  explicit Executor(const MachineConfig &Config) : Config(Config) {}
  Executor(const MachineConfig &Config, Options Opts)
      : Config(Config), Opts(Opts) {}

  /// Runs \p Compiled over \p Args. The result subgrids are written once
  /// (all iterations compute the same values — the paper's timing loops
  /// re-execute one statement); the report's cycle counts cover one
  /// iteration of the fused unit and scale by Opts.Iterations. With
  /// Opts.TimeTile = k > 1 the fused unit is k *chained* timesteps fed
  /// by one wide halo exchange (runtime/TimeTile.h).
  Expected<TimingReport> run(const CompiledStencil &Compiled,
                             StencilArguments &Args,
                             const RunOptions &RO) const;
  Expected<TimingReport> run(const CompiledStencil &Compiled,
                             StencilArguments &Args, int Iterations) const {
    RunOptions RO;
    RO.Iterations = Iterations;
    return run(Compiled, Args, RO);
  }

  /// run() after name resolution: the execution body over arguments a
  /// caller already resolved (the cm2 backend's runResolved, the shard
  /// workers). run() is resolve + runResolved.
  Expected<TimingReport> runResolved(const CompiledStencil &Compiled,
                                     const ResolvedStencilArguments &Resolved,
                                     const RunOptions &RO) const;
  Expected<TimingReport> runResolved(const CompiledStencil &Compiled,
                                     const ResolvedStencilArguments &Resolved,
                                     int Iterations) const {
    RunOptions RO;
    RO.Iterations = Iterations;
    return runResolved(Compiled, Resolved, RO);
  }

  /// Cycle cost of one fused unit (TimeTile chained steps) on one node,
  /// computed analytically from the schedules (no functional work).
  /// Exposed for tests, which check it against the op counts the
  /// pipeline model actually executed.
  CycleBreakdown analyticCycles(const CompiledStencil &Compiled, int SubRows,
                                int SubCols, int TimeTile) const;
  CycleBreakdown analyticCycles(const CompiledStencil &Compiled, int SubRows,
                                int SubCols) const {
    return analyticCycles(Compiled, SubRows, SubCols, 1);
  }

  /// A full timing report without touching (or allocating) any array
  /// data: exact for any machine size because the timing of a
  /// synchronous SIMD machine depends only on the per-node subgrid
  /// shape. Used for full-machine benchmark rows.
  TimingReport timeOnly(const CompiledStencil &Compiled, int SubRows,
                        int SubCols, const RunOptions &RO) const;
  TimingReport timeOnly(const CompiledStencil &Compiled, int SubRows,
                        int SubCols, int Iterations) const {
    RunOptions RO;
    RO.Iterations = Iterations;
    return timeOnly(Compiled, SubRows, SubCols, RO);
  }

  /// Host (front-end) seconds per iteration.
  double hostSecondsPerIteration(const CompiledStencil &Compiled,
                                 int SubCols) const;

  const MachineConfig &machine() const { return Config; }
  const Options &options() const { return Opts; }

  /// A half-strip with its width's schedule pre-resolved: the plan is
  /// computed once per run() and shared by every node (the schedule is
  /// read-only during execution).
  struct PlannedStrip {
    HalfStrip HS;
    const WidthSchedule *Sched = nullptr;
  };

private:
  /// Runs one node's strips against the already-exchanged halos
  /// (PaddedBySource[sourceIndex][nodeId]), each padded by \p Border.
  /// Operand arrays come from \p Resolved — names were resolved once,
  /// up front, in run().
  void
  runNode(const CompiledStencil &Compiled,
          const ResolvedStencilArguments &Resolved,
          DistributedArray &ResultArray,
          const std::vector<std::vector<ConstSubgridRef>> &PaddedBySource,
          const std::vector<PlannedStrip> &Plan, NodeCoord Node, int Border,
          long *OpsExecuted) const;
  std::vector<HalfStrip> planFor(const CompiledStencil &Compiled,
                                 int SubRows, int SubCols) const;
  std::vector<PlannedStrip> resolvedPlanFor(const CompiledStencil &Compiled,
                                            int SubRows, int SubCols) const;

  /// One owner region of one intermediate tiled step, with the strip
  /// plan pre-intersected against its owner-space window: restricted
  /// half-strips plus the op count executing them costs (every node
  /// executes the same strips — SIMD lock-step — so the count is
  /// node-independent; masked regions skip execution and their ops).
  struct RegionStrips {
    timetile::OwnerRegion Window;
    std::vector<PlannedStrip> Strips;
    long Ops = 0;
  };
  /// One intermediate step (1 .. k-1): output extension POut =
  /// (k - step) x radius and its owner-region work lists.
  struct TiledStep {
    int POut = 0;
    std::vector<RegionStrips> Regions;
  };
  /// The intermediate-step work lists for tile depth \p TimeTile; empty
  /// for depth 1. Geometry only (unmasked) — per-node masking is
  /// re-derived from the node's global position at execution time.
  std::vector<TiledStep> tiledSteps(const CompiledStencil &Compiled,
                                    const std::vector<PlannedStrip> &Plan,
                                    int SubRows, int SubCols,
                                    int TimeTile) const;
  /// Executes one node's share of one intermediate tiled step: replays
  /// each owner region's restricted strips against the node's wide
  /// scratch via ClampedRegionBinding; zero-fills masked regions.
  void runNodeTiledStep(const CompiledStencil &Compiled, ConstSubgridRef In,
                        Array2D &Out,
                        const std::vector<ConstSubgridRef> &PaddedCoefficients,
                        const TiledStep &Step, NodeCoord Node, int Border,
                        int CoeffBorder, long *OpsExecuted) const;

  MachineConfig Config;
  Options Opts;
};

} // namespace cmcc

#endif // CMCC_RUNTIME_EXECUTOR_H
