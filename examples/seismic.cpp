//===- examples/seismic.cpp - Finite-difference seismic model -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload that won the Gordon Bell Prize: a two-dimensional
/// finite-difference seismic (acoustic wave) model. The main loop is the
/// paper's structure exactly —
///
///   * a nine-point cross stencil on the current wavefield (compiled by
///     the convolution compiler),
///   * plus a term from two time steps before the current one, added in
///     separately (the stock code generator's job in 1990),
///   * then either two whole-array copies to rotate the time levels
///     ("rolled", 11.62 Gflops in the paper) or a main loop unrolled by
///     three so the arrays exchange roles without copying ("unrolled",
///     14.88 Gflops).
///
/// This example really propagates a wave from a point source on the
/// simulated machine (every time step runs the compiled schedules
/// through the FPU pipeline model), prints wavefield snapshots, and
/// compares the rolled and unrolled timings.
///
//===----------------------------------------------------------------------===//

#include "baseline/VectorUnitModel.h"
#include "core/Compiler.h"
#include "runtime/Executor.h"
#include "support/StringUtils.h"
#include <cmath>
#include <cstdio>

using namespace cmcc;

namespace {

/// Renders |field| as ASCII shades.
void printWavefield(const Array2D &U, int Step) {
  static const char Shades[] = " .:-=+*#%@";
  float Max = 1e-6f;
  for (int R = 0; R < U.rows(); ++R)
    for (int C = 0; C < U.cols(); ++C)
      Max = std::max(Max, std::fabs(U.at(R, C)));
  std::printf("t = %d  (max amplitude %.4f)\n", Step, Max);
  for (int R = 0; R < U.rows(); R += 2) {
    for (int C = 0; C < U.cols(); C += 2) {
      float V = std::fabs(U.at(R, C)) / Max;
      int Level = std::min(9, static_cast<int>(V * 9.99f));
      std::putchar(Shades[Level]);
    }
    std::putchar('\n');
  }
  std::putchar('\n');
}

} // namespace

int main() {
  // A 2x2-node machine keeps the functional simulation fast; the timing
  // extrapolates to any size (synchronous SIMD).
  MachineConfig Machine = MachineConfig::withNodeGrid(2, 2);
  const int SubRows = 32, SubCols = 32;
  const int Steps = 120;

  // Fourth-order-in-space Laplacian weights (a nine-point cross), with
  // EOSHIFT: the wave leaves the domain instead of wrapping around.
  // u_next = stencil(u) - u_prev, where the stencil folds in 2*u.
  const double Lambda = 0.22; // (c*dt/dx)^2, comfortably stable.
  auto W = [&](double K) { return formatFixed(K, 6); };
  std::string Source =
      "R = " + W(2.0 - Lambda * 5.0) + " * X"
      " + " + W(Lambda * (4.0 / 3.0)) + " * EOSHIFT(X, 1, -1)"
      " + " + W(Lambda * (4.0 / 3.0)) + " * EOSHIFT(X, 1, +1)"
      " + " + W(Lambda * (4.0 / 3.0)) + " * EOSHIFT(X, 2, -1)"
      " + " + W(Lambda * (4.0 / 3.0)) + " * EOSHIFT(X, 2, +1)"
      " - " + W(Lambda / 12.0) + " * EOSHIFT(X, 1, -2)"
      " - " + W(Lambda / 12.0) + " * EOSHIFT(X, 1, +2)"
      " - " + W(Lambda / 12.0) + " * EOSHIFT(X, 2, -2)"
      " - " + W(Lambda / 12.0) + " * EOSHIFT(X, 2, +2)";

  DiagnosticEngine Diags;
  ConvolutionCompiler Compiler(Machine);
  std::optional<CompiledStencil> Compiled =
      Compiler.compileAssignment(Source, Diags);
  if (!Compiled) {
    std::fprintf(stderr, "compilation failed:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("seismic stencil (nine-point cross, 17 useful flops/point):\n"
              "  %s\n\n",
              Compiled->Spec.str().c_str());

  NodeGrid Grid(Machine);
  DistributedArray UNext(Grid, SubRows, SubCols);
  DistributedArray UCurr(Grid, SubRows, SubCols);
  DistributedArray UPrev(Grid, SubRows, SubCols);

  // Point source in the middle.
  Array2D U0(UCurr.globalRows(), UCurr.globalCols());
  U0.at(U0.rows() / 2, U0.cols() / 2) = 1.0f;
  UCurr.scatter(U0);
  UPrev.scatter(U0); // At rest before the bang.

  Executor Exec(Machine);
  DistributedArray *Next = &UNext, *Curr = &UCurr, *Prev = &UPrev;

  for (int Step = 1; Step <= Steps; ++Step) {
    StencilArguments Args;
    Args.Result = Next;
    Args.Source = Curr;
    Expected<TimingReport> Report = Exec.run(*Compiled, Args, 1);
    if (!Report) {
      std::fprintf(stderr, "step %d failed: %s\n", Step,
                   Report.error().message().c_str());
      return 1;
    }
    // The "tenth term", added in separately as in the 1990 code:
    // u_next -= u_prev (elementwise; the stock code generator's job).
    for (int NR = 0; NR != Grid.rows(); ++NR)
      for (int NC = 0; NC != Grid.cols(); ++NC) {
        const SubgridRef N = Next->subgrid({NR, NC});
        const ConstSubgridRef P = Prev->subgrid({NR, NC});
        for (int R = 0; R != SubRows; ++R)
          for (int C = 0; C != SubCols; ++C)
            N.at(R, C) -= P.at(R, C);
      }
    // Rotate time levels (the unrolled-by-3 structure: no copies).
    DistributedArray *T = Prev;
    Prev = Curr;
    Curr = Next;
    Next = T;

    if (Step == 1 || Step == Steps / 3 || Step == Steps)
      printWavefield(Curr->gather(), Step);
  }

  // Timing story on the full machine: rolled (two copies per step)
  // versus unrolled-by-3, as in the paper's prize entries.
  MachineConfig Full = MachineConfig::fullMachine2048();
  ConvolutionCompiler FullCompiler(Full);
  DiagnosticEngine FullDiags;
  std::optional<CompiledStencil> FullCompiled =
      FullCompiler.compileAssignment(Source, FullDiags);
  if (!FullCompiled)
    return 1;
  Executor FullExec(Full);
  const int FullSteps = 35000;
  TimingReport StepReport =
      FullExec.timeOnly(*FullCompiled, 64, 128, FullSteps);
  // Tenth term: one multiply-accumulate pair of passes, 2 flops/point.
  VectorUnitCosts Costs;
  long Elements = 64L * 128;
  StepReport.Cycles.Compute += static_cast<long>(
      2 * (Costs.PassStartupCycles + Costs.CyclesPerElementPerPass * Elements));
  StepReport.UsefulFlopsPerNodePerIteration += 2 * Elements;
  StepReport.HostSecondsPerIteration += Full.HostOverheadUsPerCall * 1e-6;

  TimingReport Rolled = StepReport;
  TimingReport Copy = vectorUnitCopyReport(Full, 64, 128, FullSteps);
  Rolled.Cycles.Compute += 2 * Copy.Cycles.Compute;
  Rolled.HostSecondsPerIteration += 2 * Copy.HostSecondsPerIteration;

  std::printf("full 2048-node machine, 64x128 subgrids, %d steps:\n"
              "  rolled   (two copies per step): %8.1f s  %6.2f Gflops\n"
              "  unrolled (arrays swap roles):   %8.1f s  %6.2f Gflops\n"
              "  unrolled/rolled speedup: %.3f  (paper: 14.88/11.62 = %.3f)\n",
              FullSteps, Rolled.elapsedSeconds(), Rolled.measuredGflops(),
              StepReport.elapsedSeconds(), StepReport.measuredGflops(),
              Rolled.elapsedSeconds() / StepReport.elapsedSeconds(),
              14.88 / 11.62);
  return 0;
}
