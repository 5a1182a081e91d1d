//===- runtime/HaloExchange.h - The §5.1 exchange protocol ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocessor communication step of §5.1, implemented as the
/// protocol the paper describes rather than by global-index gathering:
///
///   1. halo storage is allocated, padded on all four sides by the
///      maximum border width, and the node's own subgrid moved in. The
///      storage is the array's resident margin (runtime/DistributedArray.h),
///      so this happens once per array, on its first exchange at a
///      border wider than its margin — every later exchange starts at
///      step 2;
///   2. data is exchanged with all four neighbors at once — the
///      West/East edge columns move first;
///   3. a second exchange moves the North/South edge rows *including
///      the just-received side pads*, so corner data reaches the
///      diagonal neighbor in two hops ("corner sections must be copied
///      to two neighbors (and, ultimately, to a diagonal neighbor as
///      well)"). For cornerless stencils this step ships only the core
///      columns and the corner pads are poisoned (NaN), matching the
///      §5.1 optimization.
///
/// Margin cells the exchange does not fill — skipped corners, and any
/// ring beyond the border when an earlier exchange grew the margin
/// wider — are rewritten with NaN on every exchange, so a kernel that
/// touches data it did not fetch is caught whatever ran before.
///
/// Every node performs the same steps simultaneously (the machine is
/// synchronous SIMD); exchangeHalosPartitioned runs steps 2 and 3 node
/// by node on the calling thread, since they move O(perimeter) data and
/// a pool dispatch costs more than the copies. The result is
/// bit-identical to the direct global-torus construction in
/// buildPaddedSubgrid — a property the tests enforce — but the data
/// really moves neighbor to neighbor here. The cm2 Executor and shard
/// workers run this protocol.
///
/// In-process host runs are owner-computes instead (runtime/HostRun.h):
/// beginHaloFill does step 1 and the counting serially, then each
/// node's owner writes that node's whole margin (HaloFill::fillNode)
/// just before computing it. In shared memory the corner a two-hop
/// relay would deliver is read straight from the diagonal neighbor's
/// core, bitwise the same cells.
///
/// The protocol also runs *partitioned*: a shard owning only a block of
/// the node grid (runtime/Partition.h) performs the same steps over its
/// local nodes and moves the block-edge traffic through a HaloTransport
/// instead of reading neighbor subgrids directly. The whole-grid domain
/// with no transport is exactly the in-process path, so the sharded
/// and unsharded exchanges are one implementation, not two that can
/// drift. The copying exchangeHalos runs that same implementation on a
/// fresh copy of the array.
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

/// Performs the three-step exchange for every node of \p A at once on a
/// copy of \p A, leaving \p A untouched. Returns one padded subgrid per
/// node, indexed by NodeGrid::nodeId. \p Pool, when given, fans the
/// copy of the cores out over nodes; results are bitwise identical for
/// any thread count.
std::vector<Array2D> exchangeHalos(const DistributedArray &A, int Border,
                                   BoundaryKind BoundaryDim1,
                                   BoundaryKind BoundaryDim2,
                                   bool FetchCorners,
                                   ThreadPool *Pool = nullptr);

/// The protocol in place over one shard's node block: grows \p A's
/// margin to \p Border if needed, then writes every margin cell within
/// \p Border of each subgrid, after which A.halo(Node, Border) is the
/// node's padded subgrid. \p A holds only
/// the local block (its grid shape must equal the domain's local
/// shape); axes the domain spans entirely wrap locally, split axes pack
/// their block edges and exchange them through \p Transport (one
/// WestEast call, then — when the border is nonzero — one NorthSouth
/// call, per source). \p SourceIndex tags the transport calls so a
/// multi-source job's exchanges stay matched across shards. Callers
/// that share \p A across threads hold A.haloLock(). Fails only on
/// transport failures (lost worker, injected fault); those are
/// transient, and leave the margin to be rewritten by the next
/// exchange.
Error exchangeHalosPartitioned(const DistributedArray &A,
                               const PartitionDomain &Domain,
                               HaloTransport *Transport, int SourceIndex,
                               int Border, BoundaryKind BoundaryDim1,
                               BoundaryKind BoundaryDim2, bool FetchCorners);

/// One in-place exchange of an array over the whole in-process node
/// grid, written node by node by each node's owner (beginHaloFill).
struct HaloFill {
  const DistributedArray *A = nullptr;
  int Border = 0;
  BoundaryKind BoundaryDim1 = BoundaryKind::Circular;
  BoundaryKind BoundaryDim2 = BoundaryKind::Circular;
  bool FetchCorners = false;

  /// Writes node \p Id's margin and nothing else: the W/E/N/S bands from
  /// the neighbours' cores, the corners straight from the diagonal
  /// neighbour's core (bitwise equal to step 3's two-hop relay in shared
  /// memory), the Zero boundaries, and NaN in skipped corners and in
  /// the ring beyond the border. A.halo(Node, Border) is then exactly
  /// what exchangeHalosPartitioned leaves. It reads only cores, which no
  /// fill writes, so fills of different nodes run concurrently with no
  /// barrier between them or the computes that read them.
  void fillNode(int Id) const;
};

/// The serial prologue of an owner-filled exchange of \p A at \p Border
/// over the whole in-process grid: grows the margin if needed and adds
/// to `halo.exchanges` and `halo.bytes` what exchangeHalosPartitioned
/// would. The caller holds A.haloLock() until every fill is done.
HaloFill beginHaloFill(const DistributedArray &A, int Border,
                       BoundaryKind BoundaryDim1, BoundaryKind BoundaryDim2,
                       bool FetchCorners);

} // namespace cmcc

#endif // CMCC_RUNTIME_HALOEXCHANGE_H
