//===- runtime/DistributedArray.h - Block-decomposed arrays ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A global array divided among the node grid exactly as Figure 1 of the
/// paper shows: nodes arranged in a 2-D grid, each containing an equal
/// rectangular subgrid of every array. Also provides the halo-filling
/// step of §5.1: a subgrid padded on all four sides by the maximum border
/// width, filled from the neighbors' subgrids (wraparound at the global
/// edges for CSHIFT, zeros for EOSHIFT), with the corner pads filled only
/// when the stencil needs diagonal data — skipped corners are poisoned
/// with NaN so that any schedule that touches data it did not fetch is
/// caught by the tests.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_DISTRIBUTEDARRAY_H
#define CMCC_RUNTIME_DISTRIBUTEDARRAY_H

#include "cm2/NodeGrid.h"
#include "runtime/Array2D.h"
#include "stencil/StencilSpec.h"
#include <string>
#include <vector>

namespace cmcc {

/// A global (SubRows*NodeRows) x (SubCols*NodeCols) array stored as one
/// subgrid per node.
class DistributedArray {
public:
  DistributedArray(const NodeGrid &Grid, int SubRows, int SubCols);

  int subRows() const { return SubRows; }
  int subCols() const { return SubCols; }
  int globalRows() const { return SubRows * Grid.rows(); }
  int globalCols() const { return SubCols * Grid.cols(); }
  const NodeGrid &grid() const { return Grid; }

  Array2D &subgrid(NodeCoord C);
  const Array2D &subgrid(NodeCoord C) const;

  /// Scatters \p Global (must match the global shape).
  void scatter(const Array2D &Global);
  /// Scatters globalRows() x globalCols() row-major floats at \p Global.
  void scatter(const float *Global);

  /// Gathers the subgrids back into one global array.
  Array2D gather() const;
  /// Gathers into globalRows() x globalCols() row-major floats at \p Global.
  void gather(float *Global) const;

  /// Global element access (for tests).
  float atGlobal(int R, int C) const;

  /// Renders the Figure-1 style block map, e.g. "A(1:64,1:64)" per node.
  std::string describeDecomposition(const std::string &Name) const;

private:
  NodeGrid Grid;
  int SubRows, SubCols;
  std::vector<Array2D> Subgrids;
};

/// The halo exchange of §5.1, for one node: returns the node's subgrid
/// padded by \p Border on all four sides. Data comes from the global
/// torus (neighbor subgrids; wraparound at edges) with EOSHIFT
/// dimensions zero-filled outside the global array. When \p FetchCorners
/// is false the four Border x Border corner pads are filled with NaN.
Array2D buildPaddedSubgrid(const DistributedArray &A, NodeCoord Node,
                           int Border, BoundaryKind BoundaryDim1,
                           BoundaryKind BoundaryDim2, bool FetchCorners);

} // namespace cmcc

#endif // CMCC_RUNTIME_DISTRIBUTEDARRAY_H
