//===- runtime/Executor.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Executor.h"
#include "cm2/FloatingPointUnit.h"
#include "cm2/Sequencer.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/FpuBinding.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cmath>
#include <memory>

using namespace cmcc;

namespace {

/// Drives the FPU through one node's planned half-strips with \p
/// BindingT resolving memory operands (FastNodeBinding by default,
/// VirtualNodeBinding when Options::UseFastPath is off). Returns the
/// executed-op count for the cross-check against the analytic total.
template <typename BindingT>
long runStripsWithBinding(FloatingPointUnit &Fpu,
                          const std::vector<ConstSubgridRef> &PaddedSources,
                          int Border, const StencilSpec &Spec,
                          const std::vector<ConstSubgridRef> &TapCoefficients,
                          SubgridRef Result,
                          const std::vector<Executor::PlannedStrip> &Plan) {
  long Ops = 0;
  for (const Executor::PlannedStrip &PS : Plan) {
    // Trace-only: one relaxed load + branch per half-strip when off.
    CMCC_SPAN("fpu.half_strip");
    const HalfStrip &HS = PS.HS;
    const WidthSchedule *W = PS.Sched;
    Fpu.reset();
    if (W->Regs.hasUnitRegister())
      Fpu.pokeRegister(W->Regs.unitRegister(), 1.0f);

    HalfStripOperands Operands;
    Operands.PaddedSources = &PaddedSources;
    Operands.Border = Border;
    Operands.Spec = &Spec;
    Operands.TapCoefficients = &TapCoefficients;
    Operands.Result = Result;
    Operands.LeftCol = HS.LeftCol;
    BindingT Mem(Operands);
    // Lines are processed bottom to top; the prologue's offsets are
    // relative to the first (bottom) line.
    Mem.setLine(HS.RowEnd - 1);
    Fpu.executeSequence(W->Prologue, Mem);
    const int U = static_cast<int>(W->Phases.size());
    for (int T = 0; T != HS.lines(); ++T) {
      Mem.setLine(HS.RowEnd - 1 - T);
      Fpu.executeSequence(W->Phases[T % U], Mem);
    }
    Fpu.drainPipeline();
    Ops += Fpu.loadsExecuted() + Fpu.maddsExecuted() +
           Fpu.storesExecuted() + Fpu.fillersExecuted();
  }
  return Ops;
}

} // namespace

std::vector<HalfStrip> Executor::planFor(const CompiledStencil &Compiled,
                                         int SubRows, int SubCols) const {
  std::vector<int> Widths;
  for (int W : Compiled.availableWidths()) {
    if (Opts.ForceWidth != 0 && W != Opts.ForceWidth && W != 1)
      continue;
    Widths.push_back(W);
  }
  if (Widths.empty())
    return {};
  return planHalfStrips(planStrips(SubCols, Widths), SubRows,
                        Opts.UseHalfStrips);
}

std::vector<Executor::PlannedStrip>
Executor::resolvedPlanFor(const CompiledStencil &Compiled, int SubRows,
                          int SubCols) const {
  std::vector<PlannedStrip> Plan;
  for (const HalfStrip &HS : planFor(Compiled, SubRows, SubCols)) {
    const WidthSchedule *W = Compiled.withWidth(HS.Width);
    assert(W && "strip plan chose an unavailable width");
    Plan.push_back({HS, W});
  }
  return Plan;
}

void Executor::runNode(
    const CompiledStencil &Compiled, const ResolvedStencilArguments &Resolved,
    DistributedArray &ResultArray,
    const std::vector<std::vector<ConstSubgridRef>> &PaddedBySource,
    const std::vector<PlannedStrip> &Plan, NodeCoord Node, int Border,
    long *OpsExecuted) const {
  const StencilSpec &Spec = Compiled.Spec;

  // The halo exchange already ran (every node exchanges simultaneously);
  // pick this node's padded view of each source.
  const int NodeId = ResultArray.grid().nodeId(Node);
  std::vector<ConstSubgridRef> PaddedSources;
  PaddedSources.reserve(Spec.sourceCount());
  for (int S = 0; S != Spec.sourceCount(); ++S)
    PaddedSources.push_back(PaddedBySource[S][NodeId]);

  // Coefficient names were resolved once per run(); index, don't look up.
  std::vector<ConstSubgridRef> TapCoefficients(Spec.Taps.size());
  for (size_t I = 0; I != Spec.Taps.size(); ++I)
    if (const DistributedArray *C = Resolved.TapCoefficients[I])
      TapCoefficients[I] = C->subgrid(Node);

  const SubgridRef Result = ResultArray.subgrid(Node);

  FloatingPointUnit Fpu(Config);
  long Ops =
      Opts.UseFastPath
          ? runStripsWithBinding<FastNodeBinding>(Fpu, PaddedSources, Border,
                                                  Spec, TapCoefficients,
                                                  Result, Plan)
          : runStripsWithBinding<VirtualNodeBinding>(Fpu, PaddedSources,
                                                     Border, Spec,
                                                     TapCoefficients, Result,
                                                     Plan);
  if (OpsExecuted)
    *OpsExecuted = Ops;
}

std::vector<Executor::TiledStep>
Executor::tiledSteps(const CompiledStencil &Compiled,
                     const std::vector<PlannedStrip> &Plan, int SubRows,
                     int SubCols, int TimeTile) const {
  std::vector<TiledStep> Steps;
  if (TimeTile <= 1)
    return Steps;
  const int Radius = Compiled.Spec.borderWidths().maximum();
  for (int S = 1; S != TimeTile; ++S) {
    TiledStep Step;
    Step.POut = (TimeTile - S) * Radius;
    // Geometry only — mask flags are re-derived per node at execution
    // time from its global grid position, so circular boundaries here
    // keep every region unmasked.
    for (const timetile::OwnerRegion &Reg : timetile::ownerRegions(
             SubRows, SubCols, Step.POut, BoundaryKind::Circular,
             BoundaryKind::Circular, 0, 1, 0, 1)) {
      RegionStrips RS;
      RS.Window = Reg;
      // Restrict the shared strip plan to the region's owner-space
      // window: full-width strips with clipped line ranges (clipped
      // stores are dropped by the clamped binding but still burn
      // cycles, like deselected SIMD processors). Strips whose columns
      // miss the window entirely are skipped.
      for (const PlannedStrip &PS : Plan) {
        if (PS.HS.LeftCol + PS.HS.Width <= Reg.C0 ||
            PS.HS.LeftCol >= Reg.C1)
          continue;
        const int R0 = std::max(PS.HS.RowBegin, Reg.R0);
        const int R1 = std::min(PS.HS.RowEnd, Reg.R1);
        if (R0 >= R1)
          continue;
        PlannedStrip Clipped = PS;
        Clipped.HS.RowBegin = R0;
        Clipped.HS.RowEnd = R1;
        RS.Strips.push_back(Clipped);
        RS.Ops += static_cast<long>(Clipped.Sched->Prologue.size()) +
                  static_cast<long>(Clipped.HS.lines()) *
                      Clipped.Sched->opsPerLine();
      }
      Step.Regions.push_back(std::move(RS));
    }
    Steps.push_back(std::move(Step));
  }
  return Steps;
}

void Executor::runNodeTiledStep(
    const CompiledStencil &Compiled, ConstSubgridRef In, Array2D &Out,
    const std::vector<ConstSubgridRef> &PaddedCoefficients,
    const TiledStep &Step, NodeCoord Node, int Border, int CoeffBorder,
    long *OpsExecuted) const {
  const StencilSpec &Spec = Compiled.Spec;
  const int SubRows = In.rows() - 2 * Border;
  const int SubCols = In.cols() - 2 * Border;

  // Fresh NaN fill each step: values outside the step's valid extension
  // must never be mistaken for data (the clamped binding's loads beyond
  // the allocation return NaN for the same reason).
  if (Out.rows() != In.rows() || Out.cols() != In.cols())
    Out = Array2D(In.rows(), In.cols(),
                  std::numeric_limits<float>::quiet_NaN());
  else
    Out.fill(std::numeric_limits<float>::quiet_NaN());

  const int GlobalRow = Opts.Domain ? Opts.Domain->globalRow(Node.Row)
                                    : Node.Row;
  const int GlobalCol = Opts.Domain ? Opts.Domain->globalCol(Node.Col)
                                    : Node.Col;
  const int GlobalRows = Opts.Domain ? Opts.Domain->GlobalRows
                                     : Config.NodeRows;
  const int GlobalCols = Opts.Domain ? Opts.Domain->GlobalCols
                                     : Config.NodeCols;
  const std::vector<timetile::OwnerRegion> Regions = timetile::ownerRegions(
      SubRows, SubCols, Step.POut, Spec.BoundaryDim1, Spec.BoundaryDim2,
      GlobalRow, GlobalRows, GlobalCol, GlobalCols);
  assert(Regions.size() == Step.Regions.size() &&
         "per-node regions disagree with the precomputed step geometry");

  FloatingPointUnit Fpu(Config);
  long Ops = 0;
  for (size_t I = 0; I != Regions.size(); ++I) {
    const timetile::OwnerRegion &Reg = Regions[I];
    const int RowShift = Border + Reg.DR * SubRows;
    const int ColShift = Border + Reg.DC * SubCols;
    if (Reg.ZeroMasked) {
      // The owner sits across a Zero (EOSHIFT) global edge: the cells
      // are identically zero at every step — written, never computed
      // (the SIMD machine still burns the cycles; see analyticCycles).
      for (int R = Reg.R0; R != Reg.R1; ++R)
        for (int C = Reg.C0; C != Reg.C1; ++C)
          Out.at(R + RowShift, C + ColShift) = 0.0f;
      continue;
    }
    for (const PlannedStrip &PS : Step.Regions[I].Strips) {
      CMCC_SPAN("fpu.half_strip");
      const WidthSchedule *W = PS.Sched;
      Fpu.reset();
      if (W->Regs.hasUnitRegister())
        Fpu.pokeRegister(W->Regs.unitRegister(), 1.0f);

      ClampedRegionBinding::Operands Operands;
      Operands.Input = In;
      Operands.InRow0 = RowShift;
      Operands.InCol0 = ColShift;
      Operands.Spec = &Spec;
      Operands.PaddedCoefficients = &PaddedCoefficients;
      Operands.CoRow0 = RowShift - Border + CoeffBorder;
      Operands.CoCol0 = ColShift - Border + CoeffBorder;
      Operands.Output = &Out;
      Operands.OutRow0 = RowShift;
      Operands.OutCol0 = ColShift;
      Operands.LeftCol = PS.HS.LeftCol;
      Operands.KeepRow0 = Reg.R0;
      Operands.KeepRow1 = Reg.R1;
      Operands.KeepCol0 = Reg.C0;
      Operands.KeepCol1 = Reg.C1;
      ClampedRegionBinding Mem(Operands);
      Mem.setLine(PS.HS.RowEnd - 1);
      Fpu.executeSequence(W->Prologue, Mem);
      const int U = static_cast<int>(W->Phases.size());
      for (int T = 0; T != PS.HS.lines(); ++T) {
        Mem.setLine(PS.HS.RowEnd - 1 - T);
        Fpu.executeSequence(W->Phases[T % U], Mem);
      }
      Fpu.drainPipeline();
      Ops += Fpu.loadsExecuted() + Fpu.maddsExecuted() +
             Fpu.storesExecuted() + Fpu.fillersExecuted();
    }
  }
  if (OpsExecuted)
    *OpsExecuted += Ops;
}

CycleBreakdown Executor::analyticCycles(const CompiledStencil &Compiled,
                                        int SubRows, int SubCols,
                                        int TimeTile) const {
  const StencilSpec &Spec = Compiled.Spec;
  CycleBreakdown Cycles;
  const int Radius = Spec.borderWidths().maximum();
  const int Border = TimeTile * Radius;

  Sequencer Seq(Config);
  const std::vector<PlannedStrip> Plan =
      resolvedPlanFor(Compiled, SubRows, SubCols);
  // Intermediate steps: every node executes every region's restricted
  // strips in lock-step (a masked region's node is merely deselected —
  // it burns the same cycles), so per-node cost is the plain sum.
  for (const TiledStep &Step : tiledSteps(Compiled, Plan, SubRows, SubCols,
                                          TimeTile))
    for (const RegionStrips &RS : Step.Regions)
      for (const PlannedStrip &PS : RS.Strips)
        Cycles += Seq.halfStripCycles(
            static_cast<int>(PS.Sched->Prologue.size()), PS.HS.lines(),
            PS.Sched->opsPerLine(), PS.Sched->maddsPerLine());
  // Final step: the standard full-subgrid plan.
  for (const PlannedStrip &PS : Plan)
    Cycles += Seq.halfStripCycles(static_cast<int>(PS.Sched->Prologue.size()),
                                  PS.HS.lines(), PS.Sched->opsPerLine(),
                                  PS.Sched->maddsPerLine());

  HaloExchangeShape Shape;
  Shape.SubgridRows = SubRows;
  Shape.SubgridCols = SubCols;
  Shape.BorderWidth = Border;
  // Tiled runs always ship corners: side-pad intermediate values feed
  // corner-adjacent cells of later steps even for cornerless stencils.
  Shape.NeedsCorners = TimeTile > 1 ? true
                                    : (Spec.needsCornerData() ||
                                       !Opts.AllowCornerSkip);
  // Every source array needs its own halo exchange.
  Cycles.Communication =
      haloExchangeCycles(Config, Shape, Opts.Primitive) *
      std::max(1, Spec.sourceCount());
  if (TimeTile > 1) {
    // Intermediate pad cells index coefficient arrays at owner
    // positions, so each distinct coefficient array is exchanged once
    // per tile at border (k-1) x radius.
    HaloExchangeShape CoeffShape = Shape;
    CoeffShape.BorderWidth = (TimeTile - 1) * Radius;
    CoeffShape.NeedsCorners = true;
    Cycles.Communication +=
        haloExchangeCycles(Config, CoeffShape, Opts.Primitive) *
        static_cast<long>(Spec.coefficientArrayNames().size());
  }
  return Cycles;
}

double Executor::hostSecondsPerIteration(const CompiledStencil &Compiled,
                                         int SubCols) const {
  // The run-time library's outer loops run on the front-end computer:
  // one dispatch per call plus one per half-strip. SubRows only affects
  // the microcode's internal line count, not the dispatch count.
  size_t Dispatches = planFor(Compiled, /*SubRows=*/2, SubCols).size();
  return (Config.HostOverheadUsPerCall +
          static_cast<double>(Dispatches) * Config.HostOverheadUsPerStrip) *
         1e-6;
}

TimingReport Executor::timeOnly(const CompiledStencil &Compiled, int SubRows,
                                int SubCols, const RunOptions &RO) const {
  CMCC_SPAN("executor.time_only");
  TimingReport Report;
  Report.Cycles = analyticCycles(Compiled, SubRows, SubCols, RO.TimeTile);
  Report.Iterations = RO.Iterations;
  Report.Nodes = Config.nodeCount();
  Report.ClockMHz = Config.ClockMHz;
  Report.HostSecondsPerIteration = hostSecondsPerIteration(Compiled, SubCols);
  if (RO.TimeTile > 1) {
    // A tiled iteration dispatches every intermediate region strip plus
    // the final full plan.
    const std::vector<PlannedStrip> Plan =
        resolvedPlanFor(Compiled, SubRows, SubCols);
    size_t Dispatches = Plan.size();
    for (const TiledStep &Step :
         tiledSteps(Compiled, Plan, SubRows, SubCols, RO.TimeTile))
      for (const RegionStrips &RS : Step.Regions)
        Dispatches += RS.Strips.size();
    Report.HostSecondsPerIteration =
        (Config.HostOverheadUsPerCall +
         static_cast<double>(Dispatches) * Config.HostOverheadUsPerStrip) *
        1e-6;
  }
  // One fused unit advances the solution TimeTile timesteps.
  Report.UsefulFlopsPerNodePerIteration =
      static_cast<long>(Compiled.Spec.usefulFlopsPerPoint()) * SubRows *
      SubCols * std::max(1, RO.TimeTile);
  return Report;
}

Expected<TimingReport> Executor::run(const CompiledStencil &Compiled,
                                     StencilArguments &Args,
                                     const RunOptions &RO) const {
  // Validate and resolve every bound name exactly once; the per-node
  // paths index the flat vectors.
  Expected<ResolvedStencilArguments> Resolved =
      resolveStencilArguments(Config, Compiled, Args);
  if (!Resolved)
    return Resolved.error();
  return runResolved(Compiled, *Resolved, RO);
}

Expected<TimingReport>
Executor::runResolved(const CompiledStencil &Compiled,
                      const ResolvedStencilArguments &Resolved,
                      const RunOptions &RO) const {
  CMCC_SPAN("executor.run");
  static obs::Counter &Runs =
      obs::Registry::process().counter("executor.runs");
  static obs::Histogram &RunHostUs =
      obs::Registry::process().histogram("executor.run_host_us");
  Runs.add(1);
  obs::ScopedLatencyUs RunTimer(RunHostUs);
  assert(RO.Iterations > 0 && "iteration count must be positive");

  const int SubRows = Resolved.Result->subRows();
  const int SubCols = Resolved.Result->subCols();
  const StencilSpec &Spec = Compiled.Spec;
  const int K = RO.TimeTile;
  if (Error E = timetile::validateTimeTile(Spec, K, SubRows, SubCols))
    return E;
  const int Radius = Spec.borderWidths().maximum();
  // One exchange at the widened border feeds K chained steps; the
  // coefficient pads only need to reach the deepest intermediate
  // extension, (K-1) x radius.
  const int Border = K * Radius;
  const int CoeffBorder = (K - 1) * Radius;

  // Plan the half-strips once per run: every node executes the same
  // plan (the machine is synchronous SIMD), and the cross-check below
  // reuses it too.
  const std::vector<PlannedStrip> Plan = [&] {
    CMCC_SPAN("executor.plan_strips");
    return resolvedPlanFor(Compiled, SubRows, SubCols);
  }();
  if (Plan.empty())
    return makeError("the available multistencil widths cannot cover a "
                     "subgrid of " + std::to_string(SubCols) +
                     " columns (no width-1 schedule)");
  const std::vector<TiledStep> Steps =
      tiledSteps(Compiled, Plan, SubRows, SubCols, K);

  long Node0Ops = -1;
  if (Opts.Mode != FunctionalMode::None) {
    // The host execution engine: Options::ThreadCount == 0 shares the
    // process-wide pool; otherwise a leased pool of exactly that many
    // threads (ThreadCount == 1 degenerates to inline serial loops).
    const ThreadPool::Lease PoolLease = ThreadPool::lease(Opts.ThreadCount);
    ThreadPool *Pool = PoolLease.get();

    // Step one of the run-time library: the halo exchange, once per
    // source array plus the coefficient pads of a tiled run, every node
    // filling its own borders before any step reads them.
    Expected<ExchangedOperands> X =
        exchangeOperands(Opts, Spec, Resolved, K);
    if (!X)
      return X.error();

    const NodeGrid &Grid = Resolved.Result->grid();
    Pool->parallelFor(Grid.nodeCount(), [&](int Id) {
      for (const HaloFill &F : X->Fills)
        F.fillNode(Id);
    });
    std::vector<int> NodeIds;
    if (Opts.Mode == FunctionalMode::AllNodes) {
      NodeIds.resize(static_cast<size_t>(Grid.nodeCount()));
      for (int Id = 0; Id != Grid.nodeCount(); ++Id)
        NodeIds[static_cast<size_t>(Id)] = Id;
    } else {
      NodeIds.push_back(0);
    }

    long TiledNode0Ops = 0;
    // The tiled steps' double-buffered wide scratch, alive until the
    // final step has read it.
    std::vector<Array2D> Buffers[2];
    std::vector<std::vector<ConstSubgridRef>> FinalInput;
    // Each node's padded view of a step's wide scratch output.
    auto Views = [](const std::vector<Array2D> &Buffer) {
      return std::vector<ConstSubgridRef>(Buffer.begin(), Buffer.end());
    };
    if (K == 1) {
      FinalInput = std::move(X->Sources);
    } else {
      // K-1 intermediate steps through double-buffered wide scratch,
      // then the final step writes the result subgrids directly. The
      // parallelFor join between steps is the barrier: step s+1 reads
      // only what step s finished writing.
      Buffers[0].resize(static_cast<size_t>(Grid.nodeCount()));
      Buffers[1].resize(static_cast<size_t>(Grid.nodeCount()));
      for (size_t S = 0; S != Steps.size(); ++S) {
        const std::vector<ConstSubgridRef> In =
            S == 0 ? X->Sources[0] : Views(Buffers[(S - 1) & 1]);
        std::vector<Array2D> &Out = Buffers[S & 1];
        Pool->parallelFor(static_cast<int>(NodeIds.size()), [&](int I) {
          const int Id = NodeIds[static_cast<size_t>(I)];
          std::vector<ConstSubgridRef> NodeCoeffs(Spec.Taps.size());
          for (size_t T = 0; T != Spec.Taps.size(); ++T)
            if (X->TapCoefficient[T] >= 0)
              NodeCoeffs[T] = X->Coefficients[static_cast<size_t>(
                  X->TapCoefficient[T])][static_cast<size_t>(Id)];
          runNodeTiledStep(Compiled, In[static_cast<size_t>(Id)],
                           Out[static_cast<size_t>(Id)], NodeCoeffs,
                           Steps[S], Grid.coordOf(Id), Border, CoeffBorder,
                           Id == 0 ? &TiledNode0Ops : nullptr);
        });
      }
      FinalInput.push_back(Views(Buffers[(Steps.size() - 1) & 1]));
    }

    Pool->parallelFor(static_cast<int>(NodeIds.size()), [&](int I) {
      const int Id = NodeIds[static_cast<size_t>(I)];
      long Ops = -1;
      runNode(Compiled, Resolved, *Resolved.Result, FinalInput, Plan,
              Grid.coordOf(Id), Border, Id == 0 ? &Ops : nullptr);
      if (Id == 0)
        Node0Ops = TiledNode0Ops + Ops;
    });
  }

  TimingReport Report = timeOnly(Compiled, SubRows, SubCols, RO);

  // Cross-check: the ops the pipeline model actually executed must match
  // the analytic count the cycle cost is derived from. Node 0 skips the
  // regions where it is Zero-masked (deselected), so its expected count
  // subtracts those.
  if (Node0Ops >= 0) {
    long Analytic = 0;
    for (const PlannedStrip &PS : Plan)
      Analytic += static_cast<long>(PS.Sched->Prologue.size()) +
                  static_cast<long>(PS.HS.lines()) * PS.Sched->opsPerLine();
    if (K > 1) {
      const int GlobalRow = Opts.Domain ? Opts.Domain->globalRow(0) : 0;
      const int GlobalCol = Opts.Domain ? Opts.Domain->globalCol(0) : 0;
      const int GlobalRows =
          Opts.Domain ? Opts.Domain->GlobalRows : Config.NodeRows;
      const int GlobalCols =
          Opts.Domain ? Opts.Domain->GlobalCols : Config.NodeCols;
      for (const TiledStep &Step : Steps) {
        const std::vector<timetile::OwnerRegion> Regions =
            timetile::ownerRegions(SubRows, SubCols, Step.POut,
                                   Spec.BoundaryDim1, Spec.BoundaryDim2,
                                   GlobalRow, GlobalRows, GlobalCol,
                                   GlobalCols);
        for (size_t I = 0; I != Regions.size(); ++I)
          if (!Regions[I].ZeroMasked)
            Analytic += Step.Regions[I].Ops;
      }
    }
    assert(Node0Ops == Analytic &&
           "analytic op count disagrees with executed ops");
    (void)Analytic;
  }
  return Report;
}
