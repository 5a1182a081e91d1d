//===- runtime/TimeTile.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/TimeTile.h"
#include <algorithm>
#include <cassert>
#include <string>

using namespace cmcc;
using namespace cmcc::timetile;

Error cmcc::timetile::validateTimeTile(const StencilSpec &Spec, int TimeTile,
                                       int SubRows, int SubCols) {
  if (TimeTile < 1)
    return makeError("time tile depth must be at least 1");
  if (TimeTile == 1)
    return Error::success();
  if (Spec.sourceCount() == 0)
    return makeError("time tiling requires a source array to chain "
                     "(the statement has no shifted-data terms)");
  if (Spec.sourceCount() > 1)
    return makeError("time tiling requires a single-source stencil: with "
                     "multiple sources it is ambiguous which input each "
                     "step's result feeds");
  const int Radius = Spec.borderWidths().maximum();
  const long Wide = static_cast<long>(TimeTile) * Radius;
  if (Wide > SubRows || Wide > SubCols)
    return makeError("time tile depth " + std::to_string(TimeTile) +
                     " widens the halo border to " + std::to_string(Wide) +
                     ", which exceeds the per-node subgrid; data would be "
                     "needed from beyond the four neighbors");
  return Error::success();
}

int cmcc::timetile::clampTimeTile(const StencilSpec &Spec, int TimeTile,
                                  int SubRows, int SubCols) {
  if (TimeTile <= 1)
    return 1;
  if (Spec.sourceCount() != 1)
    return 1;
  const int Radius = Spec.borderWidths().maximum();
  if (Radius == 0)
    return TimeTile;
  const int Fit = std::min(SubRows, SubCols) / Radius;
  return std::max(1, std::min(TimeTile, Fit));
}

std::vector<OwnerRegion> cmcc::timetile::ownerRegions(
    int SubRows, int SubCols, int POut, BoundaryKind BoundaryDim1,
    BoundaryKind BoundaryDim2, int GlobalRow, int GlobalRows, int GlobalCol,
    int GlobalCols) {
  assert(POut >= 0 && POut <= SubRows && POut <= SubCols &&
         "output extension exceeds the subgrid");
  std::vector<OwnerRegion> Regions;
  for (int DR = -1; DR <= 1; ++DR) {
    for (int DC = -1; DC <= 1; ++DC) {
      if (POut == 0 && (DR != 0 || DC != 0))
        continue;
      OwnerRegion Reg;
      Reg.DR = DR;
      Reg.DC = DC;
      // The slice of the owner's subgrid adjacent to this node: its
      // last POut rows for a northern owner, its first POut for a
      // southern one, the whole extent along an axis the region does
      // not cross.
      Reg.R0 = DR < 0 ? SubRows - POut : 0;
      Reg.R1 = DR > 0 ? POut : SubRows;
      Reg.C0 = DC < 0 ? SubCols - POut : 0;
      Reg.C1 = DC > 0 ? POut : SubCols;
      const bool CrossN = DR < 0 && GlobalRow == 0;
      const bool CrossS = DR > 0 && GlobalRow == GlobalRows - 1;
      const bool CrossW = DC < 0 && GlobalCol == 0;
      const bool CrossE = DC > 0 && GlobalCol == GlobalCols - 1;
      Reg.ZeroMasked =
          ((CrossN || CrossS) && BoundaryDim1 == BoundaryKind::Zero) ||
          ((CrossW || CrossE) && BoundaryDim2 == BoundaryKind::Zero);
      Regions.push_back(Reg);
    }
  }
  return Regions;
}
