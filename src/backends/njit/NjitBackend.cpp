//===- backends/njit/NjitBackend.cpp --------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/njit/NjitBackend.h"
#include "core/PlanFingerprint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/HaloExchange.h"
#include "runtime/TimeTile.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>

using namespace cmcc;

namespace {

njit::ArtifactCache::Options cacheOptions(const NjitBackend::Options &Opts) {
  njit::ArtifactCache::Options CO;
  if (!Opts.CacheDir.empty())
    CO.DiskDir = Opts.CacheDir;
  else if (const char *Env = std::getenv("CMCC_NJIT_CACHE_DIR"))
    CO.DiskDir = Env;
  return CO;
}

} // namespace

NjitBackend::NjitBackend(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(Opts), Cache(cacheOptions(Opts)) {}

Expected<TimingReport>
NjitBackend::runResolved(const CompiledStencil &Compiled,
                         const ResolvedStencilArguments &Resolved,
                         const RunOptions &RO) const {
  CMCC_SPAN("backend.njit.run");
  if (fault::probe("backend.njit.run"))
    return fault::injectedFault("backend.njit.run");
  static obs::Counter &Runs =
      obs::Registry::process().counter("backend.njit.runs");
  static obs::Histogram &RunHostUs =
      obs::Registry::process().histogram("backend.njit.run_host_us");
  Runs.add(1);
  obs::ScopedLatencyUs RunTimer(RunHostUs);
  assert(RO.Iterations > 0 && "iteration count must be positive");

  const StencilSpec &Spec = Compiled.Spec;

  // The kernel is a per-plan artifact, resolved before the timed
  // region. An unusable toolchain is reported transient so a serving
  // layer degrades to cm2 instead of failing the job.
  const uint64_t Fingerprint = planFingerprint(Spec, Config, "njit");
  Expected<njit::Artifact> Kernel = Cache.lookup(Fingerprint, Spec);
  if (!Kernel)
    return Kernel.error().isTransient()
               ? Kernel.error()
               : Error::transient(Kernel.error().message());

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

  // Same exchange protocol as the other backends (runtime/TimeTile.h
  // documents the widened tiled form; the kernel is geometry-oblivious
  // — bases, strides, and widths are call operands — so the same
  // artifact drives untiled runs, intermediate extended rectangles,
  // and the final step).
  const bool FetchCorners =
      K > 1 || Spec.needsCornerData() || !Opts.AllowCornerSkip;
  auto Exchange = [&](const DistributedArray &A, int SourceIndex,
                      int B) -> Expected<std::vector<Array2D>> {
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
  std::vector<std::vector<Array2D>> CoeffPadded;
  std::vector<int> TapCoeffOrdinal(Spec.Taps.size(), -1);
  {
    CMCC_SPAN("backend.njit.halo_exchange");
    PaddedBySource.reserve(Spec.sourceCount());
    for (int S = 0; S != Spec.sourceCount(); ++S) {
      Expected<std::vector<Array2D>> Padded =
          Exchange(*Resolved.Sources[S], S, Border);
      if (!Padded)
        return Padded.error();
      PaddedBySource.push_back(std::move(*Padded));
    }
    if (K > 1) {
      // Distinct coefficient arrays, by name in first-appearance tap
      // order (deterministic across shard workers), padded to the
      // deepest intermediate extension.
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
    CMCC_SPAN("njit.run");
    const int RowsPerTile = std::max(1, Opts.RowsPerTile);
    const size_t TapCount = Spec.Taps.size();

    // One kernel pass over the POut-extended rectangle of every node
    // (POut == 0 with Out == nullptr is the classic untiled run and
    // the final tiled step).
    auto KernelPass = [&](const std::vector<Array2D> *In,
                          std::vector<Array2D> *Out, bool PaddedCoeffs,
                          int POut) {
      const int ExtRows = SubRows + 2 * POut;
      const int ExtCols = SubCols + 2 * POut;
      const int TilesPerNode = (ExtRows + RowsPerTile - 1) / RowsPerTile;
      Pool->parallelFor(Grid.nodeCount() * TilesPerNode, [&](int Task) {
        const int NodeId = Task / TilesPerNode;
        const NodeCoord Node = Grid.coordOf(NodeId);
        const int RowBegin = (Task % TilesPerNode) * RowsPerTile;
        const int RowEnd = std::min(ExtRows, RowBegin + RowsPerTile);

        // Pre-resolved operand slots, indexed by tap: bases already
        // offset so the kernel does no offset arithmetic. Slots the
        // emitted code hard-coded away are never read.
        std::vector<const float *> TapSrc(TapCount, nullptr);
        std::vector<long> TapSrcStride(TapCount, 0);
        std::vector<const float *> TapCoeff(TapCount, nullptr);
        std::vector<long> TapCoeffStride(TapCount, 0);
        for (size_t I = 0; I != TapCount; ++I) {
          const Tap &T = Spec.Taps[I];
          if (T.HasData) {
            const Array2D &Padded =
                In ? (*In)[static_cast<size_t>(NodeId)]
                   : PaddedBySource[T.SourceIndex][NodeId];
            TapSrcStride[I] = Padded.cols();
            TapSrc[I] = Padded.data() +
                        static_cast<size_t>(Border - POut + T.At.Dy) *
                            Padded.cols() +
                        Border - POut + T.At.Dx;
          }
          if (Resolved.TapCoefficients[I]) {
            if (PaddedCoeffs) {
              const Array2D &Sub =
                  CoeffPadded[static_cast<size_t>(TapCoeffOrdinal[I])]
                             [static_cast<size_t>(NodeId)];
              TapCoeffStride[I] = Sub.cols();
              TapCoeff[I] = Sub.data() +
                            static_cast<size_t>(CoeffBorder - POut) *
                                Sub.cols() +
                            CoeffBorder - POut;
            } else {
              const Array2D &Sub =
                  Resolved.TapCoefficients[I]->subgrid(Node);
              TapCoeff[I] = Sub.data();
              TapCoeffStride[I] = Sub.cols();
            }
          }
        }

        if (Out) {
          Array2D &O = (*Out)[static_cast<size_t>(NodeId)];
          float *Base = O.data() +
                        static_cast<size_t>(Border - POut) * O.cols() +
                        Border - POut;
          Kernel->Kernel(Base, O.cols(), TapSrc.data(), TapSrcStride.data(),
                         TapCoeff.data(), TapCoeffStride.data(), RowBegin,
                         RowEnd, ExtCols);
        } else {
          Array2D &Result = Resolved.Result->subgrid(Node);
          Kernel->Kernel(Result.data(), Result.cols(), TapSrc.data(),
                         TapSrcStride.data(), TapCoeff.data(),
                         TapCoeffStride.data(), RowBegin, RowEnd, ExtCols);
        }
      });
    };

    if (K == 1) {
      KernelPass(nullptr, nullptr, false, 0);
    } else {
      // K-1 intermediate steps through double-buffered wide scratch;
      // the parallelFor join between steps is the barrier.
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
        KernelPass(In, Out, true, POut);
        if (AnyZero) {
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
      KernelPass(&Buffers[(K - 2) & 1], nullptr, false, 0);
    }
  }

  const double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

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

Expected<TimingReport> NjitBackend::timeOnly(const CompiledStencil &Compiled,
                                             int SubRows, int SubCols,
                                             const RunOptions &RO) const {
  CMCC_SPAN("backend.njit.time_only");
  const StencilSpec &Spec = Compiled.Spec;
  const NodeGrid Grid(Config);

  // Scratch arrays, deterministically filled with the same seeds as the
  // native backend, so timeOnly results are comparable bit for bit.
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
