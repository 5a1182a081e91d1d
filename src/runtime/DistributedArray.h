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
#include <mutex>
#include <string>
#include <vector>

namespace cmcc {

class ThreadPool;

/// A global (SubRows*NodeRows) x (SubCols*NodeCols) array stored as one
/// subgrid per node. Each subgrid lives inside a halo margin of
/// margin() cells on every side, as the paper's run-time library keeps
/// halo storage beside the node's data (§5.1): the exchange writes the
/// neighbors' border bands into the margin and kernels read them in
/// place. The margin starts at 0 and grows to the widest border any
/// exchange of the array has asked for; it never shrinks.
///
/// Margin cells are not part of the array's value. Exchanges write them
/// through a const array, serialized by haloLock(): a run holds the
/// lock of every array it touches from its exchange to its last kernel
/// read, because an exchange may re-lay out the storage (growing the
/// margin moves every subgrid once).
class DistributedArray {
public:
  DistributedArray(const NodeGrid &Grid, int SubRows, int SubCols);
  /// The array whose global value is the (SubRows * rows) x (SubCols *
  /// cols) row-major floats at \p RowMajor, which may sit at any byte
  /// alignment (a grid inside a received frame). Each node's storage is
  /// allocated unwritten and its rows are copied in: one pass over the
  /// data, where construction and scatter() would make two.
  DistributedArray(const NodeGrid &Grid, int SubRows, int SubCols,
                   const void *RowMajor);
  /// A copy of \p Src's subgrids inside a fresh NaN margin of \p Margin
  /// cells, the core rows copied over \p Pool when given.
  DistributedArray(const DistributedArray &Src, int Margin,
                   ThreadPool *Pool = nullptr);

  int subRows() const { return SubRows; }
  int subCols() const { return SubCols; }
  int globalRows() const { return SubRows * Grid.rows(); }
  int globalCols() const { return SubCols * Grid.cols(); }
  const NodeGrid &grid() const { return Grid; }

  /// Node \p C's subgrid in place; rows are pitch() floats apart.
  SubgridRef subgrid(NodeCoord C);
  ConstSubgridRef subgrid(NodeCoord C) const;

  /// The halo margin width, in cells on each side of every subgrid.
  int margin() const { return Margin; }
  /// Floats between the starts of two rows of one subgrid.
  long pitch() const { return SubCols + 2L * Margin; }
  /// Node \p C's subgrid extended \p Border <= margin() cells into its
  /// margin on every side — the exchange writes the extension, kernels
  /// read it.
  SubgridRef halo(NodeCoord C, int Border) const;
  /// Grows the margin to at least \p Border: each subgrid moves once
  /// into fresh storage whose margin is NaN. Returns the bytes copied
  /// (0 when the margin was already wide enough). The caller holds
  /// haloLock().
  size_t reserveMargin(int Border) const;
  /// Moves out each node's storage: (subRows() + 2 margin()) x
  /// (subCols() + 2 margin()) floats, indexed by NodeGrid::nodeId.
  std::vector<Array2D> takeStorage() &&;

  /// Serializes exchanges and storage re-layouts of this array.
  std::mutex &haloLock() const { return Lock.M; }

  /// Scatters \p Global (must match the global shape).
  void scatter(const Array2D &Global);
  /// Scatters the globalRows() x globalCols() row-major floats at
  /// \p RowMajor, which may sit at any byte alignment.
  void scatter(const void *RowMajor);

  /// Gathers the subgrids back into one global array.
  Array2D gather() const;
  /// Gathers into globalRows() x globalCols() row-major floats at
  /// \p RowMajor, which may sit at any byte alignment.
  void gather(void *RowMajor) const;

  /// Hands \p Append(const float *Piece, int Floats) the global array
  /// in row-major order: each global row as one piece per node column,
  /// read from the subgrids in place.
  template <typename AppendFn>
  void forEachGlobalRowPiece(AppendFn &&Append) const {
    for (int NR = 0; NR != Grid.rows(); ++NR)
      for (int R = 0; R != SubRows; ++R)
        for (int NC = 0; NC != Grid.cols(); ++NC)
          Append(subgrid({NR, NC}).row(R), SubCols);
  }

  /// Global element access (for tests).
  float atGlobal(int R, int C) const;

  /// Renders the Figure-1 style block map, e.g. "A(1:64,1:64)" per node.
  std::string describeDecomposition(const std::string &Name) const;

private:
  /// Every subgrid copied into fresh storage with a NaN margin of
  /// \p NewMargin cells.
  std::vector<Array2D> copyWithMargin(int NewMargin, ThreadPool *Pool) const;

  /// A mutex that copies as a fresh one, so arrays stay copyable.
  struct HaloMutex {
    HaloMutex() = default;
    HaloMutex(const HaloMutex &) {}
    HaloMutex &operator=(const HaloMutex &) { return *this; }
    std::mutex M;
  };

  NodeGrid Grid;
  int SubRows, SubCols;
  mutable int Margin = 0;
  /// One (SubRows + 2 Margin) x (SubCols + 2 Margin) block per node.
  mutable std::vector<Array2D> Storage;
  mutable HaloMutex Lock;
};

/// Holds the halo locks of a set of arrays for its lifetime, taken in
/// address order (each distinct array once) so that runs sharing
/// arrays never deadlock.
class HaloLocks {
public:
  HaloLocks() = default;
  explicit HaloLocks(std::vector<const DistributedArray *> Arrays);

private:
  std::vector<std::unique_lock<std::mutex>> Held;
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
