//===- bench/bench_timetile.cpp - Time-tiled execution --------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment K (DESIGN.md §5k): what time tiling buys.
///
/// K1 — exchange traffic. A depth-k tile sends one wide halo (k*r rows)
/// where the step-by-step program sends k narrow ones. Both programs
/// run functionally on the cm2 backend with the halo.exchanges counter
/// read around each. On a scalar-coefficient stencil the source is the
/// only exchanged array, so the reduction is exactly k; on the seismic
/// kernel (Cross9R2, nine coefficient arrays) the tiled run also pays a
/// one-time wide exchange per coefficient array — arrays the untiled
/// program never exchanges at all, because only chained steps read
/// coefficients outside the owned region. Both columns are reported:
/// the win is per *source* step, the coefficient cost amortizes only
/// across the tile.
///
/// K2 — the modeled (simulated CM-2) cost per timestep versus depth.
/// On exchange-light stencils the per-run overhead amortizes across the
/// k chained steps and the per-step cost dips at moderate depths, then
/// climbs as edge recompute takes over — the non-monotone curve the
/// autotuner exists to sweep. Coefficient-array stencils pay wide
/// coefficient halos the untiled program never sends, pushing their
/// best depth toward 1.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "backends/cm2/Cm2Backend.h"
#include "obs/Metrics.h"
#include "runtime/TimeTile.h"
#include <chrono>

using namespace cmccbench;

namespace {

constexpr int Depths[] = {1, 2, 4, 8};

/// Functional argument set for one side of a K1 run.
struct TileArrays {
  TileArrays(const MachineConfig &Config, const StencilSpec &Spec,
             int SubRows, int SubCols, uint64_t Seed)
      : Grid(Config), R(Grid, SubRows, SubCols) {
    Args.Result = &R;
    auto MakeArray = [&](uint64_t S) {
      auto A = std::make_unique<DistributedArray>(Grid, SubRows, SubCols);
      Array2D G(R.globalRows(), R.globalCols());
      G.fillRandom(S);
      A->scatter(G);
      Owned.push_back(std::move(A));
      return Owned.back().get();
    };
    Args.Source = MakeArray(Seed);
    std::vector<std::string> Coeffs = Spec.coefficientArrayNames();
    for (size_t I = 0; I != Coeffs.size(); ++I)
      Args.Coefficients[Coeffs[I]] = MakeArray(Seed + 5000 + I);
  }

  NodeGrid Grid;
  DistributedArray R;
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  StencilArguments Args;
};

double seconds(std::chrono::steady_clock::time_point Begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Begin)
      .count();
}

/// Five-point cross with scalar coefficients: the source is the only
/// exchanged array, so K1's reduction is exactly k on it.
StencilSpec scalarCross() {
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  const int Offsets[][2] = {{0, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}};
  const float Coeffs[] = {0.5f, 0.125f, 0.125f, 0.125f, 0.125f};
  for (int I = 0; I != 5; ++I) {
    Tap T;
    T.At.Dy = Offsets[I][0];
    T.At.Dx = Offsets[I][1];
    T.Coeff = Coefficient::scalar(Coeffs[I]);
    Spec.Taps.push_back(std::move(T));
  }
  return Spec;
}

/// K1: halo.exchanges deltas, stepwise vs tiled, per depth and spec.
void benchExchangeTraffic(BenchJsonWriter &Json) {
  MachineConfig Config = MachineConfig::testMachine16();
  obs::Counter &Exchanges =
      obs::Registry::process().counter("halo.exchanges");
  constexpr int Sub = 32;

  struct Subject {
    const char *Name;
    CompiledStencil Compiled;
  };
  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Scalar = CC.compile(scalarCross());
  if (!Scalar) {
    std::fprintf(stderr, "bench_timetile: scalar-cross failed to compile\n");
    std::abort();
  }
  Subject Subjects[] = {
      {"scalar-cross", *Scalar},
      {patternName(PatternId::Cross9R2),
       compilePattern(Config, PatternId::Cross9R2)},
  };

  Cm2Backend Backend(Config);
  TextTable T;
  T.setHeader({"stencil", "depth k", "stepwise exchanges",
               "tiled exchanges", "reduction", "tiled host(s)"});
  for (const Subject &S : Subjects) {
    for (int K : Depths) {
      // Step-by-step: k runs, result copied back into the source
      // between them — the program a user would write without tiling.
      TileArrays Base(Config, S.Compiled.Spec, Sub, Sub, 42);
      long Before = Exchanges.value();
      for (int Step = 0; Step != K; ++Step) {
        if (Step > 0)
          Base.Owned[0]->scatter(Base.R.gather());
        Expected<TimingReport> R = Backend.run(S.Compiled, Base.Args, 1);
        if (!R) {
          std::fprintf(stderr, "bench_timetile: stepwise run failed: %s\n",
                       R.error().message().c_str());
          std::abort();
        }
      }
      long Stepwise = Exchanges.value() - Before;

      TileArrays Tiled(Config, S.Compiled.Spec, Sub, Sub, 42);
      RunOptions RO;
      RO.TimeTile = K;
      Before = Exchanges.value();
      auto Begin = std::chrono::steady_clock::now();
      Expected<TimingReport> Run = Backend.run(S.Compiled, Tiled.Args, RO);
      double TiledHostS = seconds(Begin);
      long TiledExchanges = Exchanges.value() - Before;
      if (!Run) {
        std::fprintf(stderr, "bench_timetile: tiled run failed: %s\n",
                     Run.error().message().c_str());
        std::abort();
      }

      double Reduction =
          static_cast<double>(Stepwise) / static_cast<double>(TiledExchanges);
      T.addRow({S.Name, std::to_string(K), std::to_string(Stepwise),
                std::to_string(TiledExchanges),
                formatFixed(Reduction, 1) + "x",
                formatFixed(TiledHostS, 4)});
      Json.addRow("K1/exchanges/" + std::string(S.Name) +
                      "/k=" + std::to_string(K),
                  Run->measuredMflops(), Run->elapsedSeconds(), TiledHostS);
      Json.addScalar("exchange_reduction_" + std::string(S.Name) + "_k" +
                         std::to_string(K),
                     Reduction);
    }
  }
  std::printf("=== K1: exchange traffic on 16 nodes, %dx%d subgrids ===\n"
              "(coefficient arrays are exchanged only by tiled runs — "
              "chained steps read them outside the owned region)\n\n%s\n",
              Sub, Sub, T.str().c_str());
}

/// K2a: the modeled per-timestep cost versus depth on the cm2 backend —
/// simulated communication cycles per step fall as the exchange startup
/// amortizes across the tile.
void benchSimulatedDepth(BenchJsonWriter &Json) {
  MachineConfig Config = MachineConfig::testMachine16();
  Cm2Backend Backend(Config);
  constexpr int Sub = 64;

  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Scalar = CC.compile(scalarCross());
  if (!Scalar) {
    std::fprintf(stderr, "bench_timetile: scalar-cross failed to compile\n");
    std::abort();
  }
  struct Subject {
    const char *Name;
    CompiledStencil Compiled;
  };
  Subject Subjects[] = {
      {"scalar-cross", *Scalar},
      {patternName(PatternId::Cross9R2),
       compilePattern(Config, PatternId::Cross9R2)},
  };

  TextTable T;
  T.setHeader({"stencil", "depth k", "comm cycles/step",
               "compute cycles/step", "sim us/step"});
  for (const Subject &S : Subjects) {
    double BaseCommPerStep = 0.0, LastCommPerStep = 0.0;
    for (int K : Depths) {
      RunOptions RO;
      RO.TimeTile = K;
      Expected<TimingReport> R = Backend.timeOnly(S.Compiled, Sub, Sub, RO);
      if (!R) {
        std::fprintf(stderr,
                     "bench_timetile: depth-%d timeOnly failed: %s\n", K,
                     R.error().message().c_str());
        std::abort();
      }
      double CommPerStep = static_cast<double>(R->Cycles.Communication) / K;
      double ComputePerStep = static_cast<double>(R->Cycles.Compute) / K;
      double UsPerStep = R->secondsPerIteration() * 1e6 / K;
      if (K == 1)
        BaseCommPerStep = CommPerStep;
      LastCommPerStep = CommPerStep;
      T.addRow({S.Name, std::to_string(K), formatFixed(CommPerStep, 0),
                formatFixed(ComputePerStep, 0), formatFixed(UsPerStep, 1)});
      Json.addRow("K2a/sim/" + std::string(S.Name) +
                      "/k=" + std::to_string(K),
                  R->measuredMflops() / K, R->secondsPerIteration(), -1.0);
      Json.addScalar("sim_comm_cycles_per_step_" + std::string(S.Name) +
                         "_k" + std::to_string(K),
                     CommPerStep);
    }
    if (LastCommPerStep > 0.0)
      Json.addScalar("sim_comm_reduction_" + std::string(S.Name) + "_k8",
                     BaseCommPerStep / LastCommPerStep);
  }
  std::printf("=== K2a: modeled per-timestep cost vs depth, cm2 backend, "
              "%dx%d subgrids ===\n(per-step cost dips where per-run "
              "overhead amortizes faster than edge recompute grows; "
              "coefficient-array wide halos work against the tile — the "
              "curve is exactly what the autotuner sweeps)\n\n%s\n",
              Sub, Sub, T.str().c_str());
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  std::printf("built with: %s\n\n", benchProvenance().c_str());

  BenchJsonWriter Json("timetile");
  benchExchangeTraffic(Json);
  benchSimulatedDepth(Json);

  std::string Path = Json.write();
  if (!Path.empty())
    std::printf("wrote %s\n", Path.c_str());
  benchmark::Shutdown();
  return 0;
}
