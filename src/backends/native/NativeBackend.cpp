//===- backends/native/NativeBackend.cpp ----------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
// Compiled with -ffp-contract=off (see backends/CMakeLists.txt): every
// term's product must round before the add, as the pipeline model's
// chain arithmetic does, or the 1-ulp-per-term equivalence contract
// with the cm2 backend breaks.
//
//===----------------------------------------------------------------------===//

#include "backends/native/NativeBackend.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/HaloExchange.h"
#include "runtime/TimeTile.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

using namespace cmcc;

namespace {

/// The sign-folded per-tap operand stream for one node, resolved once
/// before the row loops (the native analogue of FastNodeBinding, with
/// the tap loop hoisted outside the column loop so the column loop
/// vectorizes).
struct NodeTap {
  /// Padded source base at (Border + Dy, Border + Dx) — indexing it
  /// with [r * SourceStride + j] yields Source(r + Dy, j + Dx) of the
  /// subgrid. Null for bare-coefficient terms.
  const float *Source = nullptr;
  int SourceStride = 0;
  /// Coefficient subgrid base; null for scalar coefficients.
  const float *Coeff = nullptr;
  int CoeffStride = 0;
  float Sign = 1.0f;
  /// Sign * (float)Value, folded once (scalar coefficients only).
  float Immediate = 0.0f;
};

/// Computes result rows [RowBegin, RowEnd) of one node's subgrid.
/// Accumulation per point is 0.0f + term0 + term1 + ... in StencilSpec
/// tap order, each term Data * (Sign * Coeff) rounded separately —
/// the same chain the FPU executes, modulo the schedule's tap
/// permutation.
void computeRows(const std::vector<NodeTap> &Taps, float *Result,
                 int ResultStride, int Cols, int RowBegin, int RowEnd) {
  for (int R = RowBegin; R != RowEnd; ++R) {
    float *Out = Result + static_cast<size_t>(R) * ResultStride;
    std::fill(Out, Out + Cols, 0.0f);
    for (const NodeTap &T : Taps) {
      if (T.Source) {
        const float *Src = T.Source + static_cast<size_t>(R) * T.SourceStride;
        if (T.Coeff) {
          const float *C = T.Coeff + static_cast<size_t>(R) * T.CoeffStride;
          const float Sign = T.Sign;
          for (int J = 0; J != Cols; ++J)
            Out[J] += Src[J] * (Sign * C[J]);
        } else {
          const float Imm = T.Immediate;
          for (int J = 0; J != Cols; ++J)
            Out[J] += Src[J] * Imm;
        }
      } else if (T.Coeff) {
        // Bare array-coefficient term: the FPU multiplies by the 1.0
        // register, which is exact.
        const float *C = T.Coeff + static_cast<size_t>(R) * T.CoeffStride;
        const float Sign = T.Sign;
        for (int J = 0; J != Cols; ++J)
          Out[J] += Sign * C[J];
      } else {
        const float Imm = T.Immediate;
        for (int J = 0; J != Cols; ++J)
          Out[J] += Imm;
      }
    }
  }
}

} // namespace

Expected<TimingReport>
NativeBackend::runResolved(const CompiledStencil &Compiled,
                           const ResolvedStencilArguments &Resolved,
                           const RunOptions &RO) const {
  CMCC_SPAN("backend.native.run");
  if (fault::probe("backend.native.run"))
    return fault::injectedFault("backend.native.run");
  static obs::Counter &Runs =
      obs::Registry::process().counter("backend.native.runs");
  static obs::Histogram &RunHostUs =
      obs::Registry::process().histogram("backend.native.run_host_us");
  Runs.add(1);
  obs::ScopedLatencyUs RunTimer(RunHostUs);
  assert(RO.Iterations > 0 && "iteration count must be positive");

  const StencilSpec &Spec = Compiled.Spec;
  const int SubRows = Resolved.Result->subRows();
  const int SubCols = Resolved.Result->subCols();
  const NodeGrid &Grid = Resolved.Result->grid();
  const int K = RO.TimeTile;
  if (Error E = timetile::validateTimeTile(Spec, K, SubRows, SubCols))
    return E;
  const int Radius = Spec.borderWidths().maximum();
  const int Border = K * Radius;
  const int CoeffBorder = (K - 1) * Radius;

  const ThreadPool::Lease PoolLease = ThreadPool::lease(Opts.ThreadCount);
  ThreadPool *Pool = PoolLease.get();

  const auto Start = std::chrono::steady_clock::now();

  // Same §5.1 exchange protocol as the simulated path: wraparound /
  // zero-fill identical, skipped corners identically NaN-poisoned.
  // Tiled runs always fetch corners — intermediate side-pad values
  // feed corner-adjacent cells of later steps.
  const bool FetchCorners =
      K > 1 || Spec.needsCornerData() || !Opts.AllowCornerSkip;
  auto Exchange = [&](const DistributedArray &A, int SourceIndex,
                      int B) -> Expected<std::vector<Array2D>> {
    // Probed per exchange step, not per run: any one of a run's
    // exchanges can be lost.
    if (fault::probe("halo.exchange"))
      return fault::injectedFault("halo.exchange");
    if (Opts.Domain)
      return exchangeHalosPartitioned(A, *Opts.Domain, Opts.Transport,
                                      SourceIndex, B, Spec.BoundaryDim1,
                                      Spec.BoundaryDim2, FetchCorners, Pool);
    return exchangeHalos(A, B, Spec.BoundaryDim1, Spec.BoundaryDim2,
                         FetchCorners, Pool);
  };
  std::vector<std::vector<Array2D>> PaddedBySource;
  // Tiled runs also pad each distinct coefficient array (by name, in
  // first-appearance tap order — the same deterministic order every
  // shard worker derives): intermediate pad cells multiply by the
  // *owner's* coefficients. Transport source indices follow the real
  // sources.
  std::vector<std::vector<Array2D>> CoeffPadded;
  std::vector<int> TapCoeffOrdinal(Spec.Taps.size(), -1);
  {
    CMCC_SPAN("backend.native.halo_exchange");
    PaddedBySource.reserve(Spec.sourceCount());
    for (int S = 0; S != Spec.sourceCount(); ++S) {
      Expected<std::vector<Array2D>> Padded =
          Exchange(*Resolved.Sources[S], S, Border);
      if (!Padded)
        return Padded.error();
      PaddedBySource.push_back(std::move(*Padded));
    }
    if (K > 1) {
      const std::vector<std::string> Names = Spec.coefficientArrayNames();
      for (size_t I = 0; I != Spec.Taps.size(); ++I)
        if (Spec.Taps[I].Coeff.isArray())
          TapCoeffOrdinal[I] = static_cast<int>(
              std::find(Names.begin(), Names.end(), Spec.Taps[I].Coeff.Name) -
              Names.begin());
      CoeffPadded.resize(Names.size());
      for (size_t N = 0; N != Names.size(); ++N) {
        const DistributedArray *C = nullptr;
        for (size_t I = 0; I != Spec.Taps.size(); ++I)
          if (TapCoeffOrdinal[I] == static_cast<int>(N)) {
            C = Resolved.TapCoefficients[I];
            break;
          }
        assert(C && "coefficient name resolved to no array");
        Expected<std::vector<Array2D>> Padded =
            Exchange(*C, Spec.sourceCount() + static_cast<int>(N),
                     CoeffBorder);
        if (!Padded)
          return Padded.error();
        CoeffPadded[N] = std::move(*Padded);
      }
    }
  }

  {
    CMCC_SPAN("backend.native.compute");
    const int RowsPerTile = std::max(1, Opts.RowsPerTile);

    // One compute pass: rows [RowBegin, RowEnd) of the POut-extended
    // rectangle of every node, reading inputs padded by InBorder and
    // writing outputs padded by OutBorder. The final step (POut == 0,
    // unpadded result, per-subgrid coefficients) and the classic
    // untiled run are the same pass.
    auto ComputePass = [&](const std::vector<Array2D> *In, int InBorder,
                           std::vector<Array2D> *Out, int OutBorder,
                           bool PaddedCoeffs, int POut) {
      const int ExtRows = SubRows + 2 * POut;
      const int ExtCols = SubCols + 2 * POut;
      const int TilesPerNode = (ExtRows + RowsPerTile - 1) / RowsPerTile;
      // Tiles are disjoint row bands of distinct output arrays, so any
      // thread count computes identical bits.
      Pool->parallelFor(Grid.nodeCount() * TilesPerNode, [&](int Task) {
        const int NodeId = Task / TilesPerNode;
        const NodeCoord Node = Grid.coordOf(NodeId);
        const int RowBegin = (Task % TilesPerNode) * RowsPerTile;
        const int RowEnd = std::min(ExtRows, RowBegin + RowsPerTile);

        std::vector<NodeTap> Taps;
        Taps.reserve(Spec.Taps.size());
        for (size_t I = 0; I != Spec.Taps.size(); ++I) {
          const Tap &T = Spec.Taps[I];
          NodeTap N;
          N.Sign = static_cast<float>(T.Sign);
          if (T.HasData) {
            const Array2D &Padded =
                In ? (*In)[NodeId] : PaddedBySource[T.SourceIndex][NodeId];
            N.SourceStride = Padded.cols();
            N.Source = Padded.data() +
                       static_cast<size_t>(InBorder - POut + T.At.Dy) *
                           N.SourceStride +
                       InBorder - POut + T.At.Dx;
          }
          if (Resolved.TapCoefficients[I]) {
            if (PaddedCoeffs) {
              const Array2D &Sub =
                  CoeffPadded[static_cast<size_t>(TapCoeffOrdinal[I])]
                             [static_cast<size_t>(NodeId)];
              N.CoeffStride = Sub.cols();
              N.Coeff = Sub.data() +
                        static_cast<size_t>(CoeffBorder - POut) *
                            N.CoeffStride +
                        CoeffBorder - POut;
            } else {
              const Array2D &Sub =
                  Resolved.TapCoefficients[I]->subgrid(Node);
              N.Coeff = Sub.data();
              N.CoeffStride = Sub.cols();
            }
          } else {
            N.Immediate = N.Sign * static_cast<float>(T.Coeff.Value);
          }
          Taps.push_back(N);
        }

        if (Out) {
          Array2D &O = (*Out)[static_cast<size_t>(NodeId)];
          float *Base = O.data() +
                        static_cast<size_t>(OutBorder - POut) * O.cols() +
                        OutBorder - POut;
          computeRows(Taps, Base, O.cols(), ExtCols, RowBegin, RowEnd);
        } else {
          Array2D &Result = Resolved.Result->subgrid(Node);
          computeRows(Taps, Result.data(), Result.cols(), ExtCols, RowBegin,
                      RowEnd);
        }
      });
    };

    if (K == 1) {
      ComputePass(nullptr, Border, nullptr, 0, false, 0);
    } else {
      // K-1 intermediate steps through double-buffered wide scratch;
      // the parallelFor join between steps is the barrier. Cells
      // beyond a step's valid extension are never read later (step
      // s+1 reaches exactly POut(s)), so the NaN fill at allocation
      // suffices.
      std::vector<Array2D> Buffers[2];
      for (auto &BufferSet : Buffers) {
        BufferSet.reserve(static_cast<size_t>(Grid.nodeCount()));
        for (int Id = 0; Id != Grid.nodeCount(); ++Id)
          BufferSet.emplace_back(SubRows + 2 * Border, SubCols + 2 * Border,
                                 std::numeric_limits<float>::quiet_NaN());
      }
      const bool AnyZero = Spec.BoundaryDim1 == BoundaryKind::Zero ||
                           Spec.BoundaryDim2 == BoundaryKind::Zero;
      for (int S = 1; S != K; ++S) {
        const int POut = (K - S) * Radius;
        std::vector<Array2D> *In =
            S == 1 ? &PaddedBySource[0] : &Buffers[S & 1];
        std::vector<Array2D> *Out = &Buffers[(S - 1) & 1];
        ComputePass(In, Border, Out, Border, true, POut);
        if (AnyZero) {
          // Cells whose global position is outside the array under a
          // Zero (EOSHIFT) boundary are identically zero at every
          // step; the wide exchange zero-filled them at step one and
          // this keeps them zero through the chain.
          Pool->parallelFor(Grid.nodeCount(), [&](int Id) {
            const NodeCoord Node = Grid.coordOf(Id);
            timetile::applyZeroMask(
                (*Out)[static_cast<size_t>(Id)], Border, POut, SubRows,
                SubCols, Spec.BoundaryDim1, Spec.BoundaryDim2,
                Opts.Domain ? Opts.Domain->globalRow(Node.Row) : Node.Row,
                Opts.Domain ? Opts.Domain->GlobalRows : Config.NodeRows,
                Opts.Domain ? Opts.Domain->globalCol(Node.Col) : Node.Col,
                Opts.Domain ? Opts.Domain->GlobalCols : Config.NodeCols);
          });
        }
      }
      ComputePass(&Buffers[(K - 2) & 1], Border, nullptr, 0, false, 0);
    }
  }

  const double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  // Wall-clock report: no simulated cycles; the measured seconds ride
  // in the host field, so secondsPerIteration()/measuredMflops() are
  // real host throughput. One fused unit advances K timesteps.
  TimingReport Report;
  Report.Iterations = RO.Iterations;
  Report.Nodes = Config.nodeCount();
  Report.ClockMHz = Config.ClockMHz;
  Report.HostSecondsPerIteration = Seconds;
  Report.UsefulFlopsPerNodePerIteration =
      static_cast<long>(Spec.usefulFlopsPerPoint()) * SubRows * SubCols *
      std::max(1, K);
  return Report;
}

Expected<TimingReport> NativeBackend::timeOnly(const CompiledStencil &Compiled,
                                               int SubRows, int SubCols,
                                               const RunOptions &RO) const {
  CMCC_SPAN("backend.native.time_only");
  const StencilSpec &Spec = Compiled.Spec;
  const NodeGrid Grid(Config);

  // Scratch arrays, deterministically filled: this backend can only
  // time by running for real.
  DistributedArray Result(Grid, SubRows, SubCols);
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  auto MakeScratch = [&](uint64_t Seed) {
    Owned.push_back(std::make_unique<DistributedArray>(Grid, SubRows, SubCols));
    DistributedArray &A = *Owned.back();
    for (int Id = 0; Id != Grid.nodeCount(); ++Id)
      A.subgrid(Grid.coordOf(Id)).fillRandom(Seed * 7919 + Id);
    return &A;
  };

  StencilArguments Args;
  Args.Result = &Result;
  uint64_t Seed = 1;
  Args.Source = MakeScratch(Seed++);
  for (const std::string &Name : Spec.ExtraSources)
    Args.ExtraSources[Name] = MakeScratch(Seed++);
  for (const std::string &Name : Spec.coefficientArrayNames())
    Args.Coefficients[Name] = MakeScratch(Seed++);

  return run(Compiled, Args, RO);
}
