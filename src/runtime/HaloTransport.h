//===- runtime/HaloTransport.h - Pluggable halo movement ------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport seam under the §5.1 exchange. Inside one shard, each
/// node's fill reads its neighbours' cores through shared memory; at the
/// shard's block edges the exchange prologue (beginHaloFill) hands a
/// packed edge-block pair to a HaloTransport and blocks until the
/// matching blocks from the two axis neighbours arrive. The fills then
/// read those blocks as they would a neighbour's core.
///
/// The two steps map onto two transport calls per source array:
///
///   * WestEast:  the shard's west-edge nodes' leftmost core columns
///     (Low) and east-edge nodes' rightmost core columns (High) go
///     out; the west neighbor's High and east neighbor's Low come
///     back and fill the side pads.
///   * NorthSouth: the shard's north-edge nodes' topmost core rows (Low)
///     and south-edge nodes' bottommost core rows (High) go out, each
///     row flanked by the side-pad values a fill writes there. Because
///     those include what the WestEast call received, corner data still
///     reaches the diagonal neighbor in two hops — across process
///     boundaries exactly as the paper moves it across node boundaries.
///     Cornerless stencils ship only the core columns, so skipped corner
///     pads never cross the wire and stay NaN-poisoned end to end.
///
/// Every shard of a job must make the same sequence of exchange calls
/// (the machines are synchronous by construction: all shards run the
/// same plan over same-shape blocks), so a transport may treat each
/// call as an all-shard rendezvous. LocalTransport is the in-process
/// reference implementation used by the transport-seam tests: P
/// endpoints over a mutex/condvar barrier, bitwise-equal to the
/// unsharded exchange by construction.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_HALOTRANSPORT_H
#define CMCC_RUNTIME_HALOTRANSPORT_H

#include "runtime/Partition.h"
#include "support/Error.h"
#include <memory>
#include <vector>

namespace cmcc {

/// Which exchange step a transport call serves.
enum class HaloStep : int {
  WestEast = 0,   ///< Step 2: edge columns.
  NorthSouth = 1, ///< Step 3: edge rows including side pads.
};

/// One axis's packed edge blocks. "Low" faces the lower coordinate
/// (West for columns, North for rows), "High" the higher. Outgoing
/// blocks hold this shard's edges; the returned pair holds the
/// neighbors' opposing edges (Low = what arrived from the low-side
/// neighbor, i.e. that neighbor's High block).
struct HaloBlocks {
  std::vector<float> Low;
  std::vector<float> High;
};

/// Moves block-edge halo data between shards. Calls are blocking
/// collectives: every shard calls with the same (SourceIndex, Step)
/// sequence, and each call completes only when the neighbors' blocks
/// are in hand. Failures are transient (a lost worker, an injected
/// fault) — the serving layer's retry ladder re-runs the whole job.
class HaloTransport {
public:
  virtual ~HaloTransport();

  virtual Expected<HaloBlocks> exchange(int SourceIndex, HaloStep Step,
                                        const HaloBlocks &Out) = 0;
};

/// The in-process reference transport: one endpoint per shard, all
/// backed by a shared rendezvous. Each exchange is a two-phase barrier
/// (post blocks; read neighbors' blocks; release), so an endpoint's
/// exchange() must be driven from its own thread. Endpoints keep the
/// shared state alive; the factory object may be destroyed first.
class LocalTransport {
public:
  explicit LocalTransport(ShardGrid SG);

  /// The transport endpoint shard \p Shard calls. Valid for the shared
  /// state's lifetime (endpoints co-own it).
  std::unique_ptr<HaloTransport> endpoint(int Shard);

  /// The shared rendezvous state (opaque; public so endpoint classes
  /// can co-own it).
  struct Rendezvous;

private:
  std::shared_ptr<Rendezvous> Shared;
};

} // namespace cmcc

#endif // CMCC_RUNTIME_HALOTRANSPORT_H
