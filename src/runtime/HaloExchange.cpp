//===- runtime/HaloExchange.cpp -------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/HaloExchange.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <functional>
#include <limits>

using namespace cmcc;

namespace {

/// Copies \p Rows rows of \p Width floats from \p Src to \p Dst (row
/// pitches in floats), or zero-fills them when \p Src is null. Every
/// pad band the exchange writes is one such call, with its source (zero
/// boundary, local neighbor or transport block) chosen once per band.
void copyBand(float *Dst, size_t DstPitch, const float *Src, size_t SrcPitch,
              int Rows, int Width) {
  for (int R = 0; R != Rows; ++R, Dst += DstPitch) {
    if (Src)
      std::copy_n(Src + R * SrcPitch, Width, Dst);
    else
      std::fill_n(Dst, Width, 0.0f);
  }
}

} // namespace

std::vector<Array2D> cmcc::exchangeHalos(const DistributedArray &A,
                                         int Border,
                                         BoundaryKind BoundaryDim1,
                                         BoundaryKind BoundaryDim2,
                                         bool FetchCorners,
                                         ThreadPool *Pool) {
  Expected<std::vector<Array2D>> Padded = exchangeHalosPartitioned(
      A, PartitionDomain::whole(A.grid().rows(), A.grid().cols()),
      /*Transport=*/nullptr, /*SourceIndex=*/0, Border, BoundaryDim1,
      BoundaryDim2, FetchCorners, Pool);
  // The whole-grid domain never touches a transport, so the partitioned
  // protocol cannot fail here.
  assert(Padded && "whole-grid halo exchange failed");
  return std::move(*Padded);
}

Expected<std::vector<Array2D>> cmcc::exchangeHalosPartitioned(
    const DistributedArray &A, const PartitionDomain &Domain,
    HaloTransport *Transport, int SourceIndex, int Border,
    BoundaryKind BoundaryDim1, BoundaryKind BoundaryDim2, bool FetchCorners,
    ThreadPool *Pool) {
  CMCC_SPAN("halo.exchange");
  static obs::Counter &Exchanges =
      obs::Registry::process().counter("halo.exchanges");
  Exchanges.add(1);
  const NodeGrid &Grid = A.grid();
  assert(Grid.rows() == Domain.LocalRows && Grid.cols() == Domain.LocalCols &&
         "array grid does not match the partition domain's local block");
  const int SR = A.subRows();
  const int SC = A.subCols();
  const int B = Border;
  assert(B >= 0 && B <= SR && B <= SC &&
         "border width exceeds the subgrid");
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const size_t Pitch = static_cast<size_t>(SC + 2 * B); // Padded row length.

  // A split axis moves its block edges through the transport; an axis
  // the domain spans entirely wraps locally (the local torus is the
  // global torus there — the whole-grid domain reduces to the original
  // in-process protocol, transport never consulted).
  const bool RemoteWE = !Domain.spansAllCols();
  const bool RemoteNS = !Domain.spansAllRows();
  assert((!RemoteWE && !RemoteNS) || Transport != nullptr
             ? true
             : (RemoteWE || RemoteNS) == (Transport != nullptr));
  assert((!(RemoteWE || RemoteNS) || Transport) &&
         "split domain requires a transport");

  // Every node performs each step simultaneously on the machine; on the
  // host each step fans out over the pool, and the join between steps
  // is the barrier the protocol needs (step 3 reads side pads written
  // in step 2). Within a step, node Id writes only Padded[Id] regions
  // that no other node reads during that same step.
  auto ForEachNode = [&](const std::function<void(int)> &Fn) {
    if (Pool)
      Pool->parallelFor(Grid.nodeCount(), Fn);
    else
      for (int Id = 0; Id != Grid.nodeCount(); ++Id)
        Fn(Id);
  };

  // Step 1: temporary storage, own subgrid copied row by row into the
  // center. Unwritten pad cells stay poisoned so mistakes are loud.
  std::vector<Array2D> Padded(Grid.nodeCount());
  {
    CMCC_SPAN("halo.step1_copy");
    ForEachNode([&](int Id) {
      Array2D P(SR + 2 * B, SC + 2 * B, B > 0 ? Nan : 0.0f);
      const Array2D &Own = A.subgrid(Grid.coordOf(Id));
      for (int R = 0; R != SR; ++R)
        std::copy_n(Own.row(R), SC, P.row(R + B) + B);
      Padded[Id] = std::move(P);
    });
  }
  if (B == 0)
    return Padded;

  // Step 2: every node exchanges its edge columns with its West and
  // East neighbors simultaneously. On a split axis the block-edge
  // columns cross the transport: Low carries the west-edge nodes'
  // leftmost core columns, High the east-edge nodes' rightmost, one
  // SR x B row-major block per local node row.
  {
    CMCC_SPAN("halo.step2_we");
    HaloBlocks In;
    if (RemoteWE) {
      const size_t BlockFloats =
          static_cast<size_t>(Domain.LocalRows) * SR * B;
      HaloBlocks Out;
      Out.Low.resize(BlockFloats);
      Out.High.resize(BlockFloats);
      for (int LR = 0; LR != Domain.LocalRows; ++LR) {
        const Array2D &WestEdge = A.subgrid({LR, 0});
        const Array2D &EastEdge = A.subgrid({LR, Grid.cols() - 1});
        for (int R = 0; R != SR; ++R) {
          const size_t At = (static_cast<size_t>(LR) * SR + R) * B;
          std::copy_n(WestEdge.row(R), B, Out.Low.data() + At);
          std::copy_n(EastEdge.row(R) + SC - B, B, Out.High.data() + At);
        }
      }
      Expected<HaloBlocks> Got =
          Transport->exchange(SourceIndex, HaloStep::WestEast, Out);
      if (!Got)
        return Got.error();
      In = std::move(*Got);
      if (In.Low.size() != BlockFloats || In.High.size() != BlockFloats)
        return Error::transient(
            "halo transport returned a west/east block of the wrong size");
    }

    const bool ZeroWE = BoundaryDim2 == BoundaryKind::Zero;
    ForEachNode([&](int Id) {
      NodeCoord Here = Grid.coordOf(Id);
      float *Core = Padded[Id].row(B);
      const size_t BlockAt = static_cast<size_t>(Here.Row) * SR * B;

      // West pad <- west neighbor's rightmost core columns.
      if (ZeroWE && Domain.globalCol(Here.Col) == 0)
        copyBand(Core, Pitch, nullptr, 0, SR, B);
      else if (RemoteWE && Here.Col == 0)
        copyBand(Core, Pitch, In.Low.data() + BlockAt, B, SR, B);
      else
        copyBand(Core, Pitch,
                 A.subgrid(Grid.neighbor(Here, Direction::West)).row(0) +
                     SC - B,
                 SC, SR, B);

      // East pad <- east neighbor's leftmost core columns.
      float *EastPad = Core + SC + B;
      if (ZeroWE && Domain.globalCol(Here.Col) == Domain.GlobalCols - 1)
        copyBand(EastPad, Pitch, nullptr, 0, SR, B);
      else if (RemoteWE && Here.Col == Grid.cols() - 1)
        copyBand(EastPad, Pitch, In.High.data() + BlockAt, B, SR, B);
      else
        copyBand(EastPad, Pitch,
                 A.subgrid(Grid.neighbor(Here, Direction::East)).row(0), SC,
                 SR, B);
    });
  }

  // Step 3: exchange edge rows with the North and South neighbors. The
  // shipped rows include the side pads received in step 2, so corner
  // data arrives from the diagonal neighbor in two hops — including
  // across shard boundaries, where the side pads a block edge ships may
  // themselves have just crossed the transport. For cornerless stencils
  // only the core columns move and the corner pads stay poisoned
  // (§5.1's skipped third step) — on a split axis those columns never
  // enter the transport blocks at all. A node writes its own top and
  // bottom pad rows and reads its neighbors' *core* edge rows (B <= SR
  // keeps the two disjoint), so the nodes of this step are independent
  // too.
  const int ColBegin = FetchCorners ? 0 : B;
  const int ColEnd = FetchCorners ? SC + 2 * B : SC + B;
  {
    CMCC_SPAN("halo.step3_ns");
    const int ShipCols = ColEnd - ColBegin;
    HaloBlocks In;
    if (RemoteNS) {
      const size_t BlockFloats =
          static_cast<size_t>(Domain.LocalCols) * B * ShipCols;
      HaloBlocks Out;
      Out.Low.resize(BlockFloats);
      Out.High.resize(BlockFloats);
      for (int LC = 0; LC != Domain.LocalCols; ++LC) {
        const Array2D &NorthEdge = Padded[Grid.nodeId({0, LC})];
        const Array2D &SouthEdge = Padded[Grid.nodeId({Grid.rows() - 1, LC})];
        const size_t At = static_cast<size_t>(LC) * B * ShipCols;
        copyBand(Out.Low.data() + At, ShipCols, NorthEdge.row(B) + ColBegin,
                 Pitch, B, ShipCols);
        copyBand(Out.High.data() + At, ShipCols, SouthEdge.row(SR) + ColBegin,
                 Pitch, B, ShipCols);
      }
      Expected<HaloBlocks> Got =
          Transport->exchange(SourceIndex, HaloStep::NorthSouth, Out);
      if (!Got)
        return Got.error();
      In = std::move(*Got);
      if (In.Low.size() != BlockFloats || In.High.size() != BlockFloats)
        return Error::transient(
            "halo transport returned a north/south block of the wrong size");
    }

    const bool ZeroNS = BoundaryDim1 == BoundaryKind::Zero;
    ForEachNode([&](int Id) {
      NodeCoord Here = Grid.coordOf(Id);
      Array2D &P = Padded[Id];
      const size_t BlockAt = static_cast<size_t>(Here.Col) * B * ShipCols;

      // North pad <- north neighbor's bottommost core rows (with pads).
      float *NorthPad = P.row(0) + ColBegin;
      if (ZeroNS && Domain.globalRow(Here.Row) == 0)
        copyBand(NorthPad, Pitch, nullptr, 0, B, ShipCols);
      else if (RemoteNS && Here.Row == 0)
        copyBand(NorthPad, Pitch, In.Low.data() + BlockAt, ShipCols, B,
                 ShipCols);
      else
        copyBand(NorthPad, Pitch,
                 Padded[Grid.nodeId(Grid.neighbor(Here, Direction::North))]
                         .row(SR) +
                     ColBegin,
                 Pitch, B, ShipCols);

      // South pad <- south neighbor's topmost core rows (with pads).
      float *SouthPad = P.row(SR + B) + ColBegin;
      if (ZeroNS && Domain.globalRow(Here.Row) == Domain.GlobalRows - 1)
        copyBand(SouthPad, Pitch, nullptr, 0, B, ShipCols);
      else if (RemoteNS && Here.Row == Grid.rows() - 1)
        copyBand(SouthPad, Pitch, In.High.data() + BlockAt, ShipCols, B,
                 ShipCols);
      else
        copyBand(SouthPad, Pitch,
                 Padded[Grid.nodeId(Grid.neighbor(Here, Direction::South))]
                         .row(B) +
                     ColBegin,
                 Pitch, B, ShipCols);
    });
  }
  return Padded;
}
