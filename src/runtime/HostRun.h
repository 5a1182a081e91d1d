//===- runtime/HostRun.h - The host run driver ----------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-time library of the host backends. In the paper one library
/// allocates halo storage, exchanges borders and strip-mines the
/// subgrid, and only the microcode it drives changes per stencil (§5).
/// Here runOnHost() is that library for native and njit: it leases the
/// pool, runs the §5.1 exchange and hands every node's rows to a row
/// kernel. The row kernel is the only part that differs: native passes
/// its generic tap-loop interpreter, njit its dlopen'd plan-specialized
/// kernel.
///
/// The run is owner-computes, as on the CM-2, where every node fetches
/// its own borders and then computes its own subgrid: after a serial
/// prologue (halo locks, fault probes, margin growth, counters, and a
/// shard worker's block-edge traffic) one pool loop gives each
/// participant a fixed contiguous block of nodes
/// (ThreadPool::parallelChunks), whose halo bands it fills in place
/// (HaloFill::fillNode) and then computes. The same node lands on the
/// same thread on every run, so its data stays in that core's cache.
/// In-process runs and shard workers (HostRunOptions::Transport) run the
/// same loop.
///
/// Host runs take one timestep per exchange. On the host an exchange is
/// a memcpy, so fusing k steps behind one wide exchange (the paper's
/// unrolled seismic loop) buys nothing and streams every array k times;
/// time tiling is a cm2 cost-model extension (runtime/TimeTile.h), and
/// runOnHost() refuses any depth other than 1.
///
/// The exchange prologue, exchangeOperands(), is shared with the cm2
/// Executor, which fills every node over its pool and then runs per-node
/// steps that drive the FPU pipeline model instead of a row kernel.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_HOSTRUN_H
#define CMCC_RUNTIME_HOSTRUN_H

#include "runtime/Backend.h"
#include "runtime/HaloExchange.h"
#include "runtime/HaloTransport.h"
#include "runtime/Partition.h"
#include <functional>
#include <type_traits>
#include <vector>

namespace cmcc {

/// How a host run exchanges halos and which pool it runs on. The native
/// and njit backends take these as their options; the cm2 Executor's
/// options extend them.
struct HostRunOptions {
  /// Skip the corner-exchange step for cornerless stencils (§5.1);
  /// skipped corners stay NaN-poisoned.
  bool AllowCornerSkip = true;
  /// Host threads: 0 uses the process-wide shared pool (CMCC_THREADS
  /// env var, else hardware concurrency); N >= 1 a leased pool of
  /// exactly N threads (ThreadPool::lease, reused across runs). Thread
  /// count never changes results or simulated timing — the parallel
  /// work items are disjoint.
  int ThreadCount = 0;
  /// When set, the run covers one shard's block of a larger node grid:
  /// the machine config describes the local block, and each exchange's
  /// prologue moves the bands crossing the block's edges through
  /// Transport (beginHaloFill in runtime/HaloExchange.h); the fills then
  /// read them like any neighbour's core. Null runs the whole grid
  /// in-process.
  const PartitionDomain *Domain = nullptr;
  HaloTransport *Transport = nullptr;
};

/// The row-kernel ABI: computes rows [RowBegin, RowEnd) of one node's
/// output rectangle, Cols wide, into Out (row stride OutStride). The
/// per-tap arrays are indexed in StencilSpec tap order and arrive
/// pre-resolved, so a kernel does no offset arithmetic: TapSrc[I]
/// points at row 0 of the tap's (Dy, Dx) shift in the padded source
/// (null for bare-coefficient terms), TapCoeff[I] at row 0 of the
/// coefficient array (null for scalar coefficients). njit's emitted
/// kernels export exactly this signature.
using RowKernelFn = void (*)(float *Out, long OutStride,
                             const float *const *TapSrc,
                             const long *TapSrcStride,
                             const float *const *TapCoeff,
                             const long *TapCoeffStride, long RowBegin,
                             long RowEnd, long Cols);

/// A row kernel of that signature that may carry state (native's
/// folded signs and immediates).
using RowKernel = std::function<std::remove_pointer_t<RowKernelFn>>;

/// A run's padded operands after the §5.1 exchange: views into the
/// arrays' own halo margins, valid while the operands live.
struct ExchangedOperands {
  /// The halo locks of every array the run touches, held until the run
  /// drops its operands: concurrent runs sharing an array serialize.
  HaloLocks Locks;
  /// By StencilSpec source index, then node id: the subgrid extended
  /// TimeTile x radius into its margin.
  std::vector<std::vector<ConstSubgridRef>> Sources;
  /// Tiled (cm2) runs only: each distinct coefficient array (by name, in
  /// first-appearance tap order), then node id, extended by
  /// (TimeTile - 1) x radius. Intermediate pad cells multiply by the
  /// *owner's* coefficients.
  std::vector<std::vector<ConstSubgridRef>> Coefficients;
  /// Parallel to StencilSpec::Taps: the tap's index into Coefficients,
  /// or -1.
  std::vector<int> TapCoefficient;
  /// The exchanges whose bands are not written yet. Each node's owner
  /// calls fillNode for every entry before it reads the node's Sources
  /// or Coefficients.
  std::vector<HaloFill> Fills;
};

/// The exchange prologue of every run: takes the halo locks, then the
/// `halo.exchange` fault probe per exchange (all before the first
/// exchange writes anything), corner fetching (always
/// when tiled — intermediate side-pad values feed corner-adjacent cells
/// of later steps), each exchange's prologue (beginHaloFill, over
/// Opts.Domain and Opts.Transport when set), and — when \p TimeTile > 1 —
/// the coefficient pads, with transport source indices following the
/// real sources. An array bound to several roles is exchanged once, at
/// the widest border they read. The order is deterministic across shard
/// workers. No band is written: each exchange is returned in Fills for
/// the nodes' owners to write. Fails before any result is written, so a
/// retry starts from untouched sources.
Expected<ExchangedOperands>
exchangeOperands(const HostRunOptions &Opts, const StencilSpec &Spec,
                 const ResolvedStencilArguments &Resolved, int TimeTile);

/// Span names under which one host backend's phases are traced. Each
/// pool participant traces its own fills under Exchange and its own
/// kernel calls under Compute, so a trace splits halo from compute per
/// thread; the serial prologue is an Exchange span on the caller.
struct HostRunSpans {
  const char *Exchange;
  const char *Compute;
};

/// Runs one timestep of \p Spec over \p Resolved on the host with
/// \p Kernel computing every node's rows, and reports measured wall-clock
/// seconds in the host field of the TimingReport (the simulated cycle
/// breakdown is zero). RO.TimeTile other than 1 is refused,
/// non-transiently, before anything is exchanged.
Expected<TimingReport> runOnHost(const MachineConfig &Config,
                                 const HostRunOptions &Opts,
                                 const StencilSpec &Spec,
                                 const ResolvedStencilArguments &Resolved,
                                 const RunOptions &RO, const RowKernel &Kernel,
                                 const HostRunSpans &Spans);

} // namespace cmcc

#endif // CMCC_RUNTIME_HOSTRUN_H
