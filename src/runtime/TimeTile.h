//===- runtime/TimeTile.h - Time-tiled execution geometry -----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared geometry of time-tiled execution (ROADMAP item 5): with a
/// tile depth of k, one halo exchange at border B = k x radius feeds k
/// fused, *chained* timesteps. Step s (1-based) consumes an input valid
/// to extension (k - s + 1) x radius beyond the subgrid and produces an
/// output valid to (k - s) x radius; the final step's extension is zero
/// — exactly the result subgrid. The paper's seismic workload unrolls
/// by 3 for the same reason: fusing steps amortizes communication.
///
/// Tiling is a cm2 cost-model extension: the cm2 backend (and sharded
/// cm2) replays, for every pad cell of an intermediate step, the
/// *owner* node's strip plan at owner-relative positions (the 3x3 owner
/// regions below), so tiled results are bitwise equal to step-by-step
/// simulated runs. Host backends run one step per exchange — there an
/// exchange is a memcpy and fusing steps buys nothing — and refuse
/// depths other than 1 (runtime/HostRun.h).
///
/// Zero-boundary semantics under wide halos: a cell whose *global*
/// position falls outside the global array is identically zero at every
/// step — the widened exchange zero-fills it at step one, and owner
/// regions across a Zero edge are written as zeros through the chain,
/// which is exactly what the per-step exchange of an untiled run would
/// deliver.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_TIMETILE_H
#define CMCC_RUNTIME_TIMETILE_H

#include "stencil/StencilSpec.h"
#include "support/Error.h"
#include <vector>

namespace cmcc {
namespace timetile {

/// Checks that \p Spec can run with tile depth \p TimeTile over
/// SubRows x SubCols subgrids: depth >= 1, exactly one source array for
/// depths > 1 (chaining a multi-source step is ambiguous — which input
/// does the result feed?), and the widened border k x radius fitting
/// the subgrid (the exchange protocol reaches only the four direct
/// neighbors).
Error validateTimeTile(const StencilSpec &Spec, int TimeTile, int SubRows,
                       int SubCols);

/// The largest depth in [1, \p TimeTile] that validateTimeTile accepts
/// — 1 whenever tiling is impossible (multi-source, no source). The
/// serving layer clamps requested/tuned depths with this so tiling is
/// an optimization, never a new failure mode.
int clampTimeTile(const StencilSpec &Spec, int TimeTile, int SubRows,
                  int SubCols);

/// One of the (up to) 3x3 owner regions of an intermediate step's
/// output: the block of cells owned — in the step-by-step execution —
/// by the neighbor node at offset (DR, DC). Coordinates are in *owner
/// subgrid space*; the owner's cell (r, c) lives at
/// (r + B + DR x SubRows, c + B + DC x SubCols) of this node's B-padded
/// scratch. The self region (0, 0) covers the whole subgrid; ring
/// regions cover the POut-deep slice nearest this node.
struct OwnerRegion {
  int DR = 0, DC = 0;
  /// Kept owner-space row/column windows [R0, R1) x [C0, C1).
  int R0 = 0, R1 = 0, C0 = 0, C1 = 0;
  /// True when the owner lies across a Zero (EOSHIFT) global edge: the
  /// region's cells are outside the global array and are identically
  /// zero — written as zeros, never computed.
  bool ZeroMasked = false;
};

/// The owner regions for one intermediate step with output extension
/// \p POut (> 0), for the node at global grid position (GlobalRow,
/// GlobalCol) of a GlobalRows x GlobalCols node grid. Returns the self
/// region plus the eight ring regions, in deterministic (DR, DC) order;
/// masking follows the Zero/Circular boundary kinds per dimension
/// (circular edges wrap to a real owner and are never masked).
std::vector<OwnerRegion> ownerRegions(int SubRows, int SubCols, int POut,
                                      BoundaryKind BoundaryDim1,
                                      BoundaryKind BoundaryDim2,
                                      int GlobalRow, int GlobalRows,
                                      int GlobalCol, int GlobalCols);

} // namespace timetile
} // namespace cmcc

#endif // CMCC_RUNTIME_TIMETILE_H
