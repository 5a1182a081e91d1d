//===- runtime/HaloExchange.cpp -------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/HaloExchange.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include <algorithm>
#include <cassert>
#include <limits>
#include <mutex>
#include <string>

using namespace cmcc;

namespace {

/// Where one pad band's cells come from: rows Pitch floats apart, or
/// zeros when Src is null (past a Zero boundary).
struct Band {
  const float *Src = nullptr;
  long Pitch = 0;

  /// The same band starting \p Rows rows further down.
  Band down(int Rows) const {
    return {Src ? Src + Rows * Pitch : nullptr, Pitch};
  }
};

/// Copies \p Rows rows of \p Width floats from \p From to \p Dst (row
/// pitch \p DstPitch). Every band the exchange writes or ships is one
/// such call.
void copyBand(float *Dst, long DstPitch, Band From, int Rows, int Width) {
  for (int R = 0; R != Rows; ++R, Dst += DstPitch) {
    if (From.Src)
      std::copy_n(From.Src + R * From.Pitch, Width, Dst);
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

/// The source of node \p N's pad at (\p DRow, \p DCol), each -1, 0 or 1
/// and not both 0: a West/East band of SR x B, a North/South band of
/// B x SC, or a B x B corner. Zeros past a Zero boundary; the transport
/// block at a split block edge; otherwise the neighbour's core. A corner
/// is the N/S neighbour's side band in the B rows facing this node, so
/// within the block it reads the diagonal neighbour's core — the cells
/// the two-hop relay delivers.
Band padSource(const HaloFill &F, NodeCoord N, int DRow, int DCol) {
  const DistributedArray &A = *F.A;
  const NodeGrid &Grid = A.grid();
  const PartitionDomain &D = F.Domain;
  const int SR = A.subRows(), SC = A.subCols(), B = F.Border;
  if (DRow != 0) {
    const bool North = DRow < 0;
    if (F.BoundaryDim1 == BoundaryKind::Zero &&
        D.globalRow(N.Row) == (North ? 0 : D.GlobalRows - 1))
      return {};
    if (!D.spansAllRows() && N.Row == (North ? 0 : Grid.rows() - 1)) {
      // Shipped rows: [west corner] core [east corner] per local column.
      const int Ship = F.FetchCorners ? SC + 2 * B : SC;
      const int CoreAt = F.FetchCorners ? B : 0;
      const int Col = DCol < 0 ? 0 : DCol == 0 ? CoreAt : CoreAt + SC;
      const std::vector<float> &Block =
          North ? F.NorthSouth.Low : F.NorthSouth.High;
      return {Block.data() + static_cast<size_t>(N.Col) * B * Ship + Col,
              Ship};
    }
    const NodeCoord M =
        Grid.neighbor(N, North ? Direction::North : Direction::South);
    const int Row = North ? SR - B : 0;
    if (DCol == 0)
      return {A.subgrid(M).row(Row), A.pitch()};
    return padSource(F, M, 0, DCol).down(Row);
  }
  const bool West = DCol < 0;
  if (F.BoundaryDim2 == BoundaryKind::Zero &&
      D.globalCol(N.Col) == (West ? 0 : D.GlobalCols - 1))
    return {};
  if (!D.spansAllCols() && N.Col == (West ? 0 : Grid.cols() - 1)) {
    const std::vector<float> &Block =
        West ? F.WestEast.Low : F.WestEast.High;
    return {Block.data() + static_cast<size_t>(N.Row) * SR * B, B};
  }
  const NodeCoord M =
      Grid.neighbor(N, West ? Direction::West : Direction::East);
  return {A.subgrid(M).row(0) + (West ? SC - B : 0), A.pitch()};
}

/// One transport call: ships \p Out and checks that both returned blocks
/// have its size.
Expected<HaloBlocks> exchangeBlocks(HaloTransport &Transport,
                                    int SourceIndex, HaloStep Step,
                                    const HaloBlocks &Out) {
  Expected<HaloBlocks> In = Transport.exchange(SourceIndex, Step, Out);
  if (In && (In->Low.size() != Out.Low.size() ||
             In->High.size() != Out.High.size()))
    return Error::transient("halo transport returned a " +
                            std::string(Step == HaloStep::WestEast
                                            ? "west/east"
                                            : "north/south") +
                            " block of the wrong size");
  return In;
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
  // The whole-grid domain never touches a transport, so the prologue
  // cannot fail here.
  Expected<HaloFill> Fill = beginHaloFill(
      Copy, PartitionDomain::whole(A.grid().rows(), A.grid().cols()),
      /*Transport=*/nullptr, /*SourceIndex=*/0, Border, BoundaryDim1,
      BoundaryDim2, FetchCorners);
  assert(Fill && "whole-grid halo exchange failed");
  for (int Id = 0; Id != A.grid().nodeCount(); ++Id)
    Fill->fillNode(Id);
  return std::move(Copy).takeStorage();
}

Expected<HaloFill>
cmcc::beginHaloFill(const DistributedArray &A, const PartitionDomain &Domain,
                    HaloTransport *Transport, int SourceIndex, int Border,
                    BoundaryKind BoundaryDim1, BoundaryKind BoundaryDim2,
                    bool FetchCorners) {
  CMCC_SPAN("halo.exchange");
  static obs::Counter &Exchanges =
      obs::Registry::process().counter("halo.exchanges");
  static obs::Counter &Bytes = obs::Registry::process().counter("halo.bytes");
  const NodeGrid &Grid = A.grid();
  const int SR = A.subRows(), SC = A.subCols(), B = Border;
  assert(Grid.rows() == Domain.LocalRows && Grid.cols() == Domain.LocalCols &&
         "array grid does not match the partition domain's local block");
  assert(B >= 0 && B <= SR && B <= SC && "border width exceeds the subgrid");
  assert((Domain.wholeGrid() || Transport) &&
         "split domain requires a transport");
  Exchanges.add(1);
  HaloFill F{&A, Domain, B, BoundaryDim1, BoundaryDim2, FetchCorners, {}, {}};
  // Step 1, once per array: the margin the bands land in.
  long Written = static_cast<long>(A.reserveMargin(B));

  // Step 2 across a split column axis: Low carries the west-edge nodes'
  // leftmost core columns, High the east-edge nodes' rightmost, one
  // SR x B row-major block per local node row.
  const long Pitch = A.pitch();
  if (B != 0 && !Domain.spansAllCols()) {
    HaloBlocks Out;
    const size_t Block = static_cast<size_t>(SR) * B;
    Out.Low.resize(Grid.rows() * Block);
    Out.High.resize(Grid.rows() * Block);
    for (int LR = 0; LR != Grid.rows(); ++LR) {
      copyBand(Out.Low.data() + LR * Block, B,
               {A.subgrid({LR, 0}).row(0), Pitch}, SR, B);
      copyBand(Out.High.data() + LR * Block, B,
               {A.subgrid({LR, Grid.cols() - 1}).row(0) + SC - B, Pitch}, SR,
               B);
    }
    Expected<HaloBlocks> In =
        exchangeBlocks(*Transport, SourceIndex, HaloStep::WestEast, Out);
    if (!In)
      return In.error();
    F.WestEast = In.takeValue();
  }

  // Step 3 across a split row axis: Low carries the north-edge nodes' top
  // B core rows, High the south-edge nodes' bottom B, one B x Ship block
  // per local node column. With corners the rows carry the side pads a
  // fill writes — read from the same sources, received blocks included —
  // so corner data crosses shards in two hops; cornerless rows carry the
  // core columns only and skipped corners never enter the blocks.
  const int Ship = FetchCorners ? SC + 2 * B : SC;
  if (B != 0 && !Domain.spansAllRows()) {
    auto Pack = [&](float *Dst, NodeCoord N, int Row) {
      if (FetchCorners) {
        copyBand(Dst, Ship, padSource(F, N, 0, -1).down(Row), B, B);
        copyBand(Dst + B + SC, Ship, padSource(F, N, 0, 1).down(Row), B, B);
        Dst += B;
      }
      copyBand(Dst, Ship, {A.subgrid(N).row(Row), Pitch}, B, SC);
    };
    HaloBlocks Out;
    const size_t Block = static_cast<size_t>(B) * Ship;
    Out.Low.resize(Grid.cols() * Block);
    Out.High.resize(Grid.cols() * Block);
    for (int LC = 0; LC != Grid.cols(); ++LC) {
      Pack(Out.Low.data() + LC * Block, {0, LC}, 0);
      Pack(Out.High.data() + LC * Block, {Grid.rows() - 1, LC}, SR - B);
    }
    Expected<HaloBlocks> In =
        exchangeBlocks(*Transport, SourceIndex, HaloStep::NorthSouth, Out);
    if (!In)
      return In.error();
    F.NorthSouth = In.takeValue();
  }

  // The four bands of every node: SR x B each side, B x Ship above and
  // below.
  Written += static_cast<long>(Grid.nodeCount()) * 2 * B * (SR + Ship) *
             static_cast<long>(sizeof(float));
  Bytes.add(Written);
  return F;
}

void HaloFill::fillNode(int Id) const {
  const NodeCoord Here = A->grid().coordOf(Id);
  const int SR = A->subRows(), SC = A->subCols(), B = Border;
  poisonUnfilled(A->halo(Here, A->margin()), A->margin(), B, FetchCorners);
  if (B == 0)
    return;
  const long Pitch = A->pitch();
  float *Top = A->halo(Here, B).row(0);
  float *Mid = Top + B * Pitch;
  float *Bottom = Mid + SR * Pitch;
  copyBand(Mid, Pitch, padSource(*this, Here, 0, -1), SR, B);
  copyBand(Mid + B + SC, Pitch, padSource(*this, Here, 0, 1), SR, B);
  copyBand(Top + B, Pitch, padSource(*this, Here, -1, 0), B, SC);
  copyBand(Bottom + B, Pitch, padSource(*this, Here, 1, 0), B, SC);
  if (!FetchCorners)
    return;
  copyBand(Top, Pitch, padSource(*this, Here, -1, -1), B, B);
  copyBand(Top + B + SC, Pitch, padSource(*this, Here, -1, 1), B, B);
  copyBand(Bottom, Pitch, padSource(*this, Here, 1, -1), B, B);
  copyBand(Bottom + B + SC, Pitch, padSource(*this, Here, 1, 1), B, B);
}
