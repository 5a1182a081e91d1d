//===- runtime/HostRun.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRun.h"
#include "obs/Trace.h"
#include "runtime/HaloExchange.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

using namespace cmcc;

Expected<ExchangedOperands>
cmcc::exchangeOperands(const HostRunOptions &Opts, const StencilSpec &Spec,
                       const ResolvedStencilArguments &Resolved,
                       int TimeTile, bool OwnerFills) {
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
  struct Exchange {
    const DistributedArray *A;
    int TransportIndex;
    int Border;
  };
  std::vector<Exchange> Exchanges;
  for (size_t I = 0; I != Roles.size(); ++I) {
    const DistributedArray *A = Roles[I].A;
    if (std::any_of(Roles.begin(), Roles.begin() + I,
                    [&](const Role &R) { return R.A == A; }))
      continue;
    int Border = 0;
    for (size_t J = I; J != Roles.size(); ++J)
      if (Roles[J].A == A)
        Border = std::max(Border, Roles[J].Border);
    Exchanges.push_back({A, static_cast<int>(I), Border});
  }
  // Probed per exchange, not per run: any one of a run's exchanges can
  // be lost. Every probe runs before the first margin or band is
  // written.
  for (size_t I = 0; I != Exchanges.size(); ++I)
    if (fault::probe("halo.exchange"))
      return fault::injectedFault("halo.exchange");
  for (const Exchange &E : Exchanges) {
    if (OwnerFills && !Opts.Transport)
      X.Fills.push_back(beginHaloFill(*E.A, E.Border, Spec.BoundaryDim1,
                                      Spec.BoundaryDim2, FetchCorners));
    else if (Error Err = exchangeHalosPartitioned(
                 *E.A, Domain, Opts.Transport, E.TransportIndex, E.Border,
                 Spec.BoundaryDim1, Spec.BoundaryDim2, FetchCorners))
      return Err;
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
  // On the host an exchange is a memcpy: fusing steps behind one wide
  // exchange saves nothing and streams every array k times.
  if (RO.TimeTile != 1)
    return makeError("time tile depth " + std::to_string(RO.TimeTile) +
                     " refused: time tiling runs on the cm2 backend only");
  const int SubRows = Resolved.Result->subRows();
  const int SubCols = Resolved.Result->subCols();
  const NodeGrid &Grid = Resolved.Result->grid();
  const int Radius = Spec.borderWidths().maximum();

  const ThreadPool::Lease PoolLease = ThreadPool::lease(Opts.ThreadCount);
  ThreadPool *Pool = PoolLease.get();

  const auto Start = std::chrono::steady_clock::now();

  // In process, only the serial prologue runs here and each owner fills
  // its nodes' bands below; a shard worker runs the whole protocol.
  Expected<ExchangedOperands> X = [&] {
    obs::Span ExchangeSpan(Spans.Exchange);
    return exchangeOperands(Opts, Spec, Resolved, /*TimeTile=*/1,
                            /*OwnerFills=*/true);
  }();
  if (!X)
    return X.error();

  const size_t TapCount = Spec.Taps.size();
  const int Nodes = Grid.nodeCount();
  // Per-tap operands, TapCount slots per node, resolved once per node
  // before the owners run; slots a tap does not use stay null.
  const size_t Slots = static_cast<size_t>(Nodes) * TapCount;
  std::vector<const float *> TapSrc(Slots, nullptr);
  std::vector<long> TapSrcStride(Slots, 0);
  std::vector<const float *> TapCoeff(Slots, nullptr);
  std::vector<long> TapCoeffStride(Slots, 0);
  for (int Id = 0; Id != Nodes; ++Id) {
    for (size_t I = 0; I != TapCount; ++I) {
      const size_t Slot = static_cast<size_t>(Id) * TapCount + I;
      const Tap &T = Spec.Taps[I];
      if (T.HasData) {
        const ConstSubgridRef Padded =
            X->Sources[static_cast<size_t>(T.SourceIndex)]
                      [static_cast<size_t>(Id)];
        TapSrcStride[Slot] = Padded.pitch();
        TapSrc[Slot] = Padded.data() + (Radius + T.At.Dy) * Padded.pitch() +
                       Radius + T.At.Dx;
      }
      if (const DistributedArray *C = Resolved.TapCoefficients[I]) {
        const ConstSubgridRef Sub = C->subgrid(Grid.coordOf(Id));
        TapCoeffStride[Slot] = Sub.pitch();
        TapCoeff[Slot] = Sub.data();
      }
    }
  }

  // Owner computes: each pool participant fills, then computes, the same
  // contiguous block of nodes on every run (ThreadPool::parallelChunks),
  // so a node's subgrid stays in one core's cache from step to step.
  // Fills write only their own node's margin and read only cores, and
  // the result aliases no source, so no owner waits for another. Nodes
  // are disjoint, so any thread count computes identical bits.
  Pool->parallelChunks(Nodes, [&](int Begin, int End) {
    if (!X->Fills.empty()) {
      obs::Span ExchangeSpan(Spans.Exchange);
      for (const HaloFill &F : X->Fills)
        for (int Id = Begin; Id != End; ++Id)
          F.fillNode(Id);
    }
    obs::Span ComputeSpan(Spans.Compute);
    for (int Id = Begin; Id != End; ++Id) {
      const SubgridRef O = Resolved.Result->subgrid(Grid.coordOf(Id));
      const size_t Slot = static_cast<size_t>(Id) * TapCount;
      Kernel(O.data(), O.pitch(), TapSrc.data() + Slot,
             TapSrcStride.data() + Slot, TapCoeff.data() + Slot,
             TapCoeffStride.data() + Slot, 0, SubRows, SubCols);
    }
  });

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
      static_cast<long>(Spec.usefulFlopsPerPoint()) * SubRows * SubCols;
  return Report;
}
