//===- runtime/HaloExchange.h - The §5.1 exchange protocol ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocessor communication step of §5.1. On the CM-2 every
/// node fetches its own borders:
///
///   1. halo storage is allocated, padded on all four sides by the
///      maximum border width, and the node's own subgrid moved in. The
///      storage is the array's resident margin (runtime/DistributedArray.h),
///      so this happens once per array, on its first exchange at a
///      border wider than its margin;
///   2. the West/East edge columns move between neighbours;
///   3. the North/South edge rows move *including the just-received side
///      pads*, so corner data reaches the diagonal neighbour in two hops
///      ("corner sections must be copied to two neighbors (and,
///      ultimately, to a diagonal neighbor as well)"). For cornerless
///      stencils only the core columns move and the corner pads are
///      poisoned (NaN), matching the §5.1 optimization.
///
/// Margin cells the exchange does not fill — skipped corners, and any
/// ring beyond the border when an earlier exchange grew the margin
/// wider — are rewritten with NaN on every exchange, so a kernel that
/// touches data it did not fetch is caught whatever ran before.
///
/// One implementation serves every caller. beginHaloFill is the serial
/// part: step 1, the counters, and — when the array holds only one
/// shard's block of the node grid (runtime/Partition.h) — the block-edge
/// traffic of steps 2 and 3 through a HaloTransport. HaloFill::fillNode
/// then writes one node's whole margin, and is the only code that writes
/// halo bands. Within the block a band is read straight from the
/// neighbour's core, and a corner from the diagonal neighbour's core,
/// which are the cells the two-hop relay delivers. At a split block edge
/// it is read from the transport's blocks. Fills of different nodes run
/// in any order, on any threads, with no barrier between them: they read
/// only cores and received blocks. In-process host runs fill each node
/// on the thread that computes it (runtime/HostRun.h), the cm2 Executor
/// and shard workers likewise, and the copying exchangeHalos fills a
/// fresh copy of the array. Every result is bit-identical to the direct
/// global-torus construction in buildPaddedSubgrid, a property the tests
/// enforce.
///
/// Each exchange adds the bytes it writes — the border bands, plus any
/// core rows it moves into new storage — to the `halo.bytes` counter.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_HALOEXCHANGE_H
#define CMCC_RUNTIME_HALOEXCHANGE_H

#include "runtime/DistributedArray.h"
#include "runtime/HaloTransport.h"
#include "runtime/Partition.h"
#include "support/Error.h"
#include <vector>

namespace cmcc {

class ThreadPool;

/// Performs the exchange for every node of \p A at once on a copy of
/// \p A, leaving \p A untouched. Returns one padded subgrid per node,
/// indexed by NodeGrid::nodeId. \p Pool, when given, fans the copy of the
/// cores out over nodes; results are bitwise identical for any thread
/// count.
std::vector<Array2D> exchangeHalos(const DistributedArray &A, int Border,
                                   BoundaryKind BoundaryDim1,
                                   BoundaryKind BoundaryDim2,
                                   bool FetchCorners,
                                   ThreadPool *Pool = nullptr);

/// One in-place exchange of an array over its node block, after the
/// serial prologue (beginHaloFill) and before the per-node fills.
struct HaloFill {
  const DistributedArray *A = nullptr;
  PartitionDomain Domain;
  int Border = 0;
  BoundaryKind BoundaryDim1 = BoundaryKind::Circular;
  BoundaryKind BoundaryDim2 = BoundaryKind::Circular;
  bool FetchCorners = false;
  /// The neighbouring shards' block-edge bands, as the transport returned
  /// them (HaloTransport.h); empty on an axis the domain spans.
  HaloBlocks WestEast;
  HaloBlocks NorthSouth;

  /// Writes node \p Id's margin and nothing else: the W/E/N/S bands, the
  /// corners (the two-hop relay's cells), the Zero boundaries, and NaN in
  /// skipped corners and in the ring beyond the border. A.halo(Node,
  /// Border) is then the node's padded subgrid. Reads only cores, which
  /// no fill writes, and the received blocks.
  void fillNode(int Id) const;
};

/// The serial prologue of an exchange of \p A at \p Border over the node
/// block \p Domain (A's grid shape must equal the domain's local shape):
/// grows the margin to \p Border if needed, adds to `halo.exchanges` and
/// `halo.bytes`, and — when an axis is split and the border nonzero —
/// moves the block-edge bands through \p Transport: one WestEast call,
/// then one NorthSouth call whose rows carry the side pads a fill would
/// write, so corners cross shards in two hops. \p SourceIndex tags the
/// transport calls so a multi-source job's exchanges stay matched across
/// shards. The whole-grid domain never consults the transport. Writes no
/// band: the caller fills every node (HaloFill::fillNode) while holding
/// A.haloLock(). Fails only on transport failures (lost worker, injected
/// fault); those are transient and leave every core cell unchanged.
Expected<HaloFill> beginHaloFill(const DistributedArray &A,
                                 const PartitionDomain &Domain,
                                 HaloTransport *Transport, int SourceIndex,
                                 int Border, BoundaryKind BoundaryDim1,
                                 BoundaryKind BoundaryDim2, bool FetchCorners);

} // namespace cmcc

#endif // CMCC_RUNTIME_HALOEXCHANGE_H
