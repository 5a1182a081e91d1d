//===- runtime/HostRun.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRun.h"
#include "obs/Trace.h"
#include "runtime/HaloExchange.h"
#include "runtime/TimeTile.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>

using namespace cmcc;

namespace {

/// Rows per parallel tile. Small enough to load-balance the pool even
/// on one node's subgrid, large enough that a tile's rows amortize the
/// dispatch.
constexpr int RowsPerTile = 32;

} // namespace

Expected<ExchangedOperands>
cmcc::exchangeOperands(const HostRunOptions &Opts, const StencilSpec &Spec,
                       const ResolvedStencilArguments &Resolved,
                       int TimeTile) {
  const int Radius = Spec.borderWidths().maximum();
  const bool FetchCorners =
      TimeTile > 1 || Spec.needsCornerData() || !Opts.AllowCornerSkip;
  const NodeGrid &Grid = Resolved.Result->grid();
  const PartitionDomain Domain =
      Opts.Domain ? *Opts.Domain
                  : PartitionDomain::whole(Grid.rows(), Grid.cols());

  ExchangedOperands X;
  X.Locks = HaloLocks(Resolved.arrays());

  // Every exchanged role in transport order: the sources at the full
  // border, then — tiled runs only — each distinct coefficient array.
  struct Role {
    const DistributedArray *A;
    int Border;
  };
  std::vector<Role> Roles;
  for (const DistributedArray *S : Resolved.Sources)
    Roles.push_back({S, TimeTile * Radius});
  X.TapCoefficient.assign(Spec.Taps.size(), -1);
  if (TimeTile > 1) {
    const std::vector<std::string> Names = Spec.coefficientArrayNames();
    for (size_t N = 0; N != Names.size(); ++N) {
      const DistributedArray *C = nullptr;
      for (size_t I = 0; I != Spec.Taps.size(); ++I)
        if (Spec.Taps[I].Coeff.isArray() &&
            Spec.Taps[I].Coeff.Name == Names[N]) {
          X.TapCoefficient[I] = static_cast<int>(N);
          C = Resolved.TapCoefficients[I];
        }
      assert(C && "coefficient name resolved to no array");
      Roles.push_back({C, (TimeTile - 1) * Radius});
    }
  }

  // One exchange per distinct array, at its first role's transport
  // index and the widest border of its roles. An exchange writes NaN
  // beyond its own border, so a second, narrower one would poison what
  // the first role reads; with corners fetched (always, when tiled),
  // the narrower role's window of the wide exchange holds exactly what
  // its own exchange would.
  for (size_t I = 0; I != Roles.size(); ++I) {
    const DistributedArray *A = Roles[I].A;
    if (std::any_of(Roles.begin(), Roles.begin() + I,
                    [&](const Role &R) { return R.A == A; }))
      continue;
    int Border = 0;
    for (size_t J = I; J != Roles.size(); ++J)
      if (Roles[J].A == A)
        Border = std::max(Border, Roles[J].Border);
    // Probed per exchange, not per run: any one of a run's exchanges
    // can be lost.
    if (fault::probe("halo.exchange"))
      return fault::injectedFault("halo.exchange");
    if (Error E = exchangeHalosPartitioned(
            *A, Domain, Opts.Transport, static_cast<int>(I), Border,
            Spec.BoundaryDim1, Spec.BoundaryDim2, FetchCorners))
      return E;
  }

  auto Views = [&](const Role &R) {
    std::vector<ConstSubgridRef> V;
    V.reserve(static_cast<size_t>(Grid.nodeCount()));
    for (int Id = 0; Id != Grid.nodeCount(); ++Id)
      V.push_back(R.A->halo(Grid.coordOf(Id), R.Border));
    return V;
  };
  const size_t Sources = Resolved.Sources.size();
  for (size_t I = 0; I != Roles.size(); ++I)
    (I < Sources ? X.Sources : X.Coefficients).push_back(Views(Roles[I]));
  return X;
}

Expected<TimingReport> cmcc::runOnHost(const MachineConfig &Config,
                                       const HostRunOptions &Opts,
                                       const StencilSpec &Spec,
                                       const ResolvedStencilArguments &Resolved,
                                       const RunOptions &RO,
                                       const RowKernel &Kernel,
                                       const HostRunSpans &Spans) {
  assert(RO.Iterations > 0 && "iteration count must be positive");
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

  Expected<ExchangedOperands> X = [&] {
    obs::Span ExchangeSpan(Spans.Exchange);
    return exchangeOperands(Opts, Spec, Resolved, K);
  }();
  if (!X)
    return X.error();

  {
    obs::Span ComputeSpan(Spans.Compute);
    const size_t TapCount = Spec.Taps.size();
    const int Nodes = Grid.nodeCount();
    // Per-tap operands, TapCount slots per node. A pass resolves them
    // once per node before its tiles run; slots a tap does not use stay
    // null.
    const size_t Slots = static_cast<size_t>(Nodes) * TapCount;
    std::vector<const float *> TapSrc(Slots, nullptr);
    std::vector<long> TapSrcStride(Slots, 0);
    std::vector<const float *> TapCoeff(Slots, nullptr);
    std::vector<long> TapCoeffStride(Slots, 0);

    // One pass over the POut-extended rectangle of every node. In ==
    // null reads the exchanged sources; Out == null writes the result
    // subgrids with per-subgrid coefficients (the final step, and the
    // whole of an untiled run). Intermediate passes read the padded
    // coefficients.
    auto Pass = [&](const std::vector<ConstSubgridRef> *In,
                    std::vector<Array2D> *Out, int POut) {
      // Element (Row, Col) of a padded view's window POut beyond its
      // core, padded by Pad.
      auto At = [&](ConstSubgridRef V, int Pad, int Row, int Col) {
        return V.data() + (Pad - POut + Row) * V.pitch() + Pad - POut + Col;
      };
      for (int Id = 0; Id != Nodes; ++Id) {
        const NodeCoord Node = Grid.coordOf(Id);
        for (size_t I = 0; I != TapCount; ++I) {
          const size_t Slot = static_cast<size_t>(Id) * TapCount + I;
          const Tap &T = Spec.Taps[I];
          if (T.HasData) {
            const ConstSubgridRef Padded =
                In ? (*In)[static_cast<size_t>(Id)]
                   : X->Sources[static_cast<size_t>(T.SourceIndex)]
                               [static_cast<size_t>(Id)];
            TapSrcStride[Slot] = Padded.pitch();
            TapSrc[Slot] = At(Padded, Border, T.At.Dy, T.At.Dx);
          }
          if (!Resolved.TapCoefficients[I])
            continue;
          const ConstSubgridRef Sub =
              Out ? X->Coefficients[static_cast<size_t>(X->TapCoefficient[I])]
                                   [static_cast<size_t>(Id)]
                  : Resolved.TapCoefficients[I]->subgrid(Node);
          TapCoeffStride[Slot] = Sub.pitch();
          TapCoeff[Slot] = Out ? At(Sub, CoeffBorder, 0, 0) : Sub.data();
        }
      }

      const int ExtRows = SubRows + 2 * POut;
      const int ExtCols = SubCols + 2 * POut;
      const int TilesPerNode = (ExtRows + RowsPerTile - 1) / RowsPerTile;
      // Tiles are disjoint row bands of distinct output arrays, so any
      // thread count computes identical bits.
      Pool->parallelFor(Nodes * TilesPerNode, [&](int Task) {
        const int Id = Task / TilesPerNode;
        const int RowBegin = (Task % TilesPerNode) * RowsPerTile;
        const int RowEnd = std::min(ExtRows, RowBegin + RowsPerTile);
        const SubgridRef O = Out ? (*Out)[static_cast<size_t>(Id)].view()
                                 : Resolved.Result->subgrid(Grid.coordOf(Id));
        const int OutPad = Out ? Border - POut : 0;
        const size_t Slot = static_cast<size_t>(Id) * TapCount;
        Kernel(O.data() + OutPad * O.pitch() + OutPad, O.pitch(),
               TapSrc.data() + Slot, TapSrcStride.data() + Slot,
               TapCoeff.data() + Slot, TapCoeffStride.data() + Slot, RowBegin,
               RowEnd, ExtCols);
      });
    };

    if (K == 1) {
      Pass(nullptr, nullptr, 0);
    } else {
      // K-1 intermediate steps through double-buffered wide scratch;
      // the parallelFor join between steps is the barrier. Cells beyond
      // a step's valid extension are never read later (step s+1
      // reaches exactly POut(s)), so the NaN fill at allocation
      // suffices.
      std::vector<Array2D> Buffers[2];
      std::vector<ConstSubgridRef> BufferViews[2];
      for (int B = 0; B != 2; ++B) {
        Buffers[B].reserve(static_cast<size_t>(Nodes));
        for (int Id = 0; Id != Nodes; ++Id) {
          Buffers[B].emplace_back(SubRows + 2 * Border, SubCols + 2 * Border,
                                  std::numeric_limits<float>::quiet_NaN());
          BufferViews[B].push_back(Buffers[B].back());
        }
      }
      const bool AnyZero = Spec.BoundaryDim1 == BoundaryKind::Zero ||
                           Spec.BoundaryDim2 == BoundaryKind::Zero;
      for (int S = 1; S != K; ++S) {
        const int POut = (K - S) * Radius;
        const std::vector<ConstSubgridRef> *In =
            S == 1 ? &X->Sources[0] : &BufferViews[S & 1];
        std::vector<Array2D> *Out = &Buffers[(S - 1) & 1];
        Pass(In, Out, POut);
        if (AnyZero) {
          // Cells whose global position is outside the array under a
          // Zero (EOSHIFT) boundary are identically zero at every
          // step; the wide exchange zero-filled them at step one and
          // this keeps them zero through the chain.
          Pool->parallelFor(Nodes, [&](int Id) {
            const NodeCoord Node = Grid.coordOf(Id);
            const PartitionDomain *D = Opts.Domain;
            timetile::applyZeroMask(
                (*Out)[static_cast<size_t>(Id)], Border, POut, SubRows,
                SubCols, Spec.BoundaryDim1, Spec.BoundaryDim2,
                D ? D->globalRow(Node.Row) : Node.Row,
                D ? D->GlobalRows : Config.NodeRows,
                D ? D->globalCol(Node.Col) : Node.Col,
                D ? D->GlobalCols : Config.NodeCols);
          });
        }
      }
      Pass(&BufferViews[(K - 2) & 1], nullptr, 0);
    }
  }

  const double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  // Wall-clock report: no simulated cycles; the measured seconds ride
  // in the host field, so secondsPerIteration()/measuredMflops() are
  // real host throughput.
  TimingReport Report;
  Report.Iterations = RO.Iterations;
  Report.Nodes = Config.nodeCount();
  Report.ClockMHz = Config.ClockMHz;
  Report.HostSecondsPerIteration = Seconds;
  Report.UsefulFlopsPerNodePerIteration =
      static_cast<long>(Spec.usefulFlopsPerPoint()) * SubRows * SubCols * K;
  return Report;
}
