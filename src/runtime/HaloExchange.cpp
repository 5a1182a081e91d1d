//===- runtime/HaloExchange.cpp -------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/HaloExchange.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include <algorithm>
#include <limits>
#include <mutex>

using namespace cmcc;

namespace {

/// Copies \p Rows rows of \p Width floats from \p Src to \p Dst (row
/// pitches in floats), or zero-fills them when \p Src is null. Every
/// pad band the exchange writes is one such call, with its source (zero
/// boundary, local neighbor or transport block) chosen once per band.
void copyBand(float *Dst, long DstPitch, const float *Src, long SrcPitch,
              int Rows, int Width) {
  for (int R = 0; R != Rows; ++R, Dst += DstPitch) {
    if (Src)
      std::copy_n(Src + R * SrcPitch, Width, Dst);
    else
      std::fill_n(Dst, Width, 0.0f);
  }
}

/// Writes NaN into the margin cells an exchange at \p B leaves unfilled:
/// the ring beyond \p B of the M-wide margin around \p Full's SR x SC
/// core, and the four B x B corners when they were not fetched.
void poisonUnfilled(SubgridRef Full, int M, int B, bool FetchCorners) {
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const int D = M - B; // Width of the ring beyond the border.
  const int Rows = Full.rows(), Cols = Full.cols();
  const int Corner = FetchCorners ? 0 : B;
  for (int R = 0; R != Rows; ++R) {
    float *Row = Full.row(R);
    if (R < D || R >= Rows - D) {
      std::fill_n(Row, Cols, Nan);
    } else if (R < D + B || R >= Rows - D - B) {
      std::fill_n(Row, D + Corner, Nan);
      std::fill_n(Row + Cols - D - Corner, D + Corner, Nan);
    } else if (D == 0) {
      R = Rows - B - 1; // Core rows have nothing to poison.
    } else {
      std::fill_n(Row, D, Nan);
      std::fill_n(Row + Cols - D, D, Nan);
    }
  }
}

} // namespace

std::vector<Array2D> cmcc::exchangeHalos(const DistributedArray &A,
                                         int Border,
                                         BoundaryKind BoundaryDim1,
                                         BoundaryKind BoundaryDim2,
                                         bool FetchCorners,
                                         ThreadPool *Pool) {
  // Step 1 into fresh storage: a copy of A whose margin is exactly the
  // border, which the in-place protocol then fills.
  DistributedArray Copy = [&] {
    CMCC_SPAN("halo.step1_copy");
    std::lock_guard<std::mutex> Hold(A.haloLock());
    return DistributedArray(A, Border, Pool);
  }();
  static obs::Counter &Bytes = obs::Registry::process().counter("halo.bytes");
  Bytes.add(static_cast<long>(A.grid().nodeCount()) * A.subRows() *
            A.subCols() * static_cast<long>(sizeof(float)));
  // The whole-grid domain never touches a transport, so the partitioned
  // protocol cannot fail here.
  Error E = exchangeHalosPartitioned(
      Copy, PartitionDomain::whole(A.grid().rows(), A.grid().cols()),
      /*Transport=*/nullptr, /*SourceIndex=*/0, Border, BoundaryDim1,
      BoundaryDim2, FetchCorners);
  assert(!E && "whole-grid halo exchange failed");
  (void)E;
  return std::move(Copy).takeStorage();
}

HaloFill cmcc::beginHaloFill(const DistributedArray &A, int Border,
                             BoundaryKind BoundaryDim1,
                             BoundaryKind BoundaryDim2, bool FetchCorners) {
  static obs::Counter &Exchanges =
      obs::Registry::process().counter("halo.exchanges");
  static obs::Counter &Bytes = obs::Registry::process().counter("halo.bytes");
  assert(Border >= 0 && Border <= A.subRows() && Border <= A.subCols() &&
         "border width exceeds the subgrid");
  Exchanges.add(1);
  // The bytes every node's fill will write, as the protocol counts them.
  const long ShipCols = FetchCorners ? A.subCols() + 2 * Border : A.subCols();
  Bytes.add(static_cast<long>(A.reserveMargin(Border)) +
            static_cast<long>(A.grid().nodeCount()) * 2 * Border *
                (A.subRows() + ShipCols) * static_cast<long>(sizeof(float)));
  return {&A, Border, BoundaryDim1, BoundaryDim2, FetchCorners};
}

void HaloFill::fillNode(int Id) const {
  const NodeGrid &Grid = A->grid();
  const int SR = A->subRows(), SC = A->subCols(), B = Border;
  const long Pitch = A->pitch();
  const NodeCoord Here = Grid.coordOf(Id);
  poisonUnfilled(A->halo(Here, A->margin()), A->margin(), B, FetchCorners);
  if (B == 0)
    return;
  // A neighbour's core at (row, col) offsets, or null (zeros) past a
  // Zero boundary. The grid is a torus, so a Circular edge wraps.
  const bool ZeroWE = BoundaryDim2 == BoundaryKind::Zero;
  const bool ZeroNS = BoundaryDim1 == BoundaryKind::Zero;
  const bool AtWest = Here.Col == 0, AtEast = Here.Col == Grid.cols() - 1;
  const bool AtNorth = Here.Row == 0, AtSouth = Here.Row == Grid.rows() - 1;
  auto Core = [&](int DRow, int DCol, bool Zero, int Row,
                  int Col) -> const float * {
    if (Zero)
      return nullptr;
    NodeCoord N = Here;
    if (DRow)
      N = Grid.neighbor(N, DRow < 0 ? Direction::North : Direction::South);
    if (DCol)
      N = Grid.neighbor(N, DCol < 0 ? Direction::West : Direction::East);
    return A->subgrid(N).row(Row) + Col;
  };
  float *Top = A->halo(Here, B).row(0);
  float *Mid = Top + B * Pitch;
  float *Bottom = Mid + SR * Pitch;
  const bool ZeroW = ZeroWE && AtWest, ZeroE = ZeroWE && AtEast;
  const bool ZeroN = ZeroNS && AtNorth, ZeroS = ZeroNS && AtSouth;
  copyBand(Mid, Pitch, Core(0, -1, ZeroW, 0, SC - B), Pitch, SR, B);
  copyBand(Mid + B + SC, Pitch, Core(0, 1, ZeroE, 0, 0), Pitch, SR, B);
  copyBand(Top + B, Pitch, Core(-1, 0, ZeroN, SR - B, 0), Pitch, B, SC);
  copyBand(Bottom + B, Pitch, Core(1, 0, ZeroS, 0, 0), Pitch, B, SC);
  if (!FetchCorners)
    return;
  // Corners straight from the diagonal neighbour: the two-hop step 3
  // relays exactly these cells, or zeros when either hop crosses a Zero
  // boundary.
  copyBand(Top, Pitch, Core(-1, -1, ZeroN || ZeroW, SR - B, SC - B), Pitch,
           B, B);
  copyBand(Top + B + SC, Pitch, Core(-1, 1, ZeroN || ZeroE, SR - B, 0),
           Pitch, B, B);
  copyBand(Bottom, Pitch, Core(1, -1, ZeroS || ZeroW, 0, SC - B), Pitch, B,
           B);
  copyBand(Bottom + B + SC, Pitch, Core(1, 1, ZeroS || ZeroE, 0, 0), Pitch,
           B, B);
}

Error cmcc::exchangeHalosPartitioned(const DistributedArray &A,
                                     const PartitionDomain &Domain,
                                     HaloTransport *Transport,
                                     int SourceIndex, int Border,
                                     BoundaryKind BoundaryDim1,
                                     BoundaryKind BoundaryDim2,
                                     bool FetchCorners) {
  CMCC_SPAN("halo.exchange");
  static obs::Counter &Exchanges =
      obs::Registry::process().counter("halo.exchanges");
  static obs::Counter &Bytes = obs::Registry::process().counter("halo.bytes");
  Exchanges.add(1);
  const NodeGrid &Grid = A.grid();
  assert(Grid.rows() == Domain.LocalRows && Grid.cols() == Domain.LocalCols &&
         "array grid does not match the partition domain's local block");
  const int SR = A.subRows();
  const int SC = A.subCols();
  const int B = Border;
  assert(B >= 0 && B <= SR && B <= SC &&
         "border width exceeds the subgrid");

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

  // Step 1, once per array: the margin the bands land in. Every row of
  // every padded subgrid lies Pitch floats after the previous one.
  long Written = static_cast<long>(A.reserveMargin(B));
  const long Pitch = A.pitch();
  auto Padded = [&](NodeCoord C) { return A.halo(C, B); };
  const int Nodes = Grid.nodeCount();
  for (int Id = 0; Id != Nodes; ++Id)
    poisonUnfilled(A.halo(Grid.coordOf(Id), A.margin()), A.margin(), B,
                   FetchCorners);
  if (B == 0) {
    Bytes.add(Written);
    return Error::success();
  }

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
        const size_t At = static_cast<size_t>(LR) * SR * B;
        copyBand(Out.Low.data() + At, B, A.subgrid({LR, 0}).row(0), Pitch,
                 SR, B);
        copyBand(Out.High.data() + At, B,
                 A.subgrid({LR, Grid.cols() - 1}).row(0) + SC - B, Pitch, SR,
                 B);
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
    for (int Id = 0; Id != Nodes; ++Id) {
      NodeCoord Here = Grid.coordOf(Id);
      float *Core = Padded(Here).row(B);
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
                 Pitch, SR, B);

      // East pad <- east neighbor's leftmost core columns.
      float *EastPad = Core + SC + B;
      if (ZeroWE && Domain.globalCol(Here.Col) == Domain.GlobalCols - 1)
        copyBand(EastPad, Pitch, nullptr, 0, SR, B);
      else if (RemoteWE && Here.Col == Grid.cols() - 1)
        copyBand(EastPad, Pitch, In.High.data() + BlockAt, B, SR, B);
      else
        copyBand(EastPad, Pitch,
                 A.subgrid(Grid.neighbor(Here, Direction::East)).row(0),
                 Pitch, SR, B);
    }
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
  // keeps the two disjoint), so the order of the nodes does not matter.
  const int ColBegin = FetchCorners ? 0 : B;
  const int ShipCols = FetchCorners ? SC + 2 * B : SC;
  {
    CMCC_SPAN("halo.step3_ns");
    HaloBlocks In;
    if (RemoteNS) {
      const size_t BlockFloats =
          static_cast<size_t>(Domain.LocalCols) * B * ShipCols;
      HaloBlocks Out;
      Out.Low.resize(BlockFloats);
      Out.High.resize(BlockFloats);
      for (int LC = 0; LC != Domain.LocalCols; ++LC) {
        const size_t At = static_cast<size_t>(LC) * B * ShipCols;
        copyBand(Out.Low.data() + At, ShipCols,
                 Padded({0, LC}).row(B) + ColBegin, Pitch, B, ShipCols);
        copyBand(Out.High.data() + At, ShipCols,
                 Padded({Grid.rows() - 1, LC}).row(SR) + ColBegin, Pitch, B,
                 ShipCols);
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
    for (int Id = 0; Id != Nodes; ++Id) {
      NodeCoord Here = Grid.coordOf(Id);
      SubgridRef P = Padded(Here);
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
                 Padded(Grid.neighbor(Here, Direction::North)).row(SR) +
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
                 Padded(Grid.neighbor(Here, Direction::South)).row(B) +
                     ColBegin,
                 Pitch, B, ShipCols);
    }
  }
  // The four bands of every node: SR x B each side, B x ShipCols above
  // and below.
  Written += static_cast<long>(Nodes) * 2 * B * (SR + ShipCols) *
             static_cast<long>(sizeof(float));
  Bytes.add(Written);
  return Error::success();
}
