//===- shard/ShmRing.h - Shared-memory bulk-data rings --------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bulk-data path between a shard coordinator and one worker
/// process: a shared-memory segment holding two single-producer /
/// single-consumer byte rings, one per direction. Control frames (the
/// Shard* messages in net/Wire.h) travel over the socketpair; float
/// payloads — scattered subgrids, halo edge blocks, gathered results —
/// stream through here, so a halo row never pays a copy through the
/// kernel socket buffers.
///
/// A transfer is announced by a frame first (which carries the byte
/// count), then streamed: the writer fills the ring as space frees and
/// the reader drains as data arrives, both sides pumping concurrently.
/// That makes payloads larger than the ring capacity safe by
/// construction — neither side ever waits for the whole payload to fit.
/// Progress waits are bounded by a deadline (CMCC_SHARD_TIMEOUT_MS, or
/// the configured default), and end early once the peer process is
/// gone: each sleep step of a wait checks it, and the wait fails only
/// if the ring, looked at again after the exit was seen, still shows no
/// progress, so bytes the peer wrote just before exiting are still
/// read. A worker that dies mid-transfer surfaces as a transient error
/// within a sleep step, not at the deadline.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SHARD_SHMRING_H
#define CMCC_SHARD_SHMRING_H

#include "runtime/Array2D.h"
#include "support/Error.h"
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sys/types.h>

namespace cmcc {
namespace shard {

/// Which of the two rings a transfer uses, named by direction.
enum class RingDir {
  ToWorker,      ///< Coordinator writes, worker reads.
  ToCoordinator, ///< Worker writes, coordinator reads.
};

/// One mapped segment with both rings. Create on the coordinator side
/// (a memfd, passed to the worker as an inherited fd), attach on the
/// worker side. Each ring is SPSC: exactly one process writes ToWorker
/// (the coordinator) and one reads it (the worker), and vice versa, so
/// the head/tail counters need only acquire/release ordering.
class ShmRing {
public:
  ShmRing() = default;
  ~ShmRing();
  ShmRing(ShmRing &&O) noexcept;
  ShmRing &operator=(ShmRing &&O) noexcept;
  ShmRing(const ShmRing &) = delete;
  ShmRing &operator=(const ShmRing &) = delete;

  /// Allocates and maps a fresh segment whose rings each hold
  /// \p RingBytes. Uses memfd_create, falling back to an unlinked
  /// temporary file; either way the segment lives exactly as long as
  /// the mappings.
  static Expected<ShmRing> create(size_t RingBytes, long TimeoutMs);

  /// Maps the segment behind an inherited \p Fd (validates the header).
  /// Does not take ownership of the fd. The peer is the parent process,
  /// the coordinator that spawned this worker.
  static Expected<ShmRing> attach(int Fd, long TimeoutMs);

  /// Names the process at the other end of the rings; a wait on them
  /// fails once it has exited. The coordinator names each worker after
  /// spawning it.
  void setPeer(pid_t Pid) { Peer = Pid; }

  /// The fd to hand to a spawned worker (-1 when attached or empty).
  int fd() const { return OwnedFd; }

  bool valid() const { return Base != nullptr; }

  /// Streams \p Len bytes into \p Dir, blocking as needed for space.
  /// Fails (transiently) if no progress beats the deadline.
  Error write(RingDir Dir, const void *Data, size_t Len);

  /// Streams \p Len bytes out of \p Dir, blocking as needed for data.
  Error read(RingDir Dir, void *Data, size_t Len);

  /// Float-array conveniences over write/read.
  Error writeFloats(RingDir Dir, const float *Data, size_t Count) {
    return write(Dir, Data, Count * sizeof(float));
  }
  Error readFloats(RingDir Dir, float *Data, size_t Count) {
    return read(Dir, Data, Count * sizeof(float));
  }

  /// A subgrid's rows in order, without the pitch padding between them:
  /// one transfer when the rows are contiguous (a subgrid with no halo
  /// margin), since each transfer pays a handshake with the peer.
  Error writeRows(RingDir Dir, ConstSubgridRef Sub) {
    if (Sub.pitch() == Sub.cols())
      return writeFloats(Dir, Sub.data(),
                         static_cast<size_t>(Sub.rows()) * Sub.cols());
    for (int R = 0; R != Sub.rows(); ++R)
      if (Error E = writeFloats(Dir, Sub.row(R), Sub.cols()))
        return E;
    return Error::success();
  }
  Error readRows(RingDir Dir, SubgridRef Sub) {
    if (Sub.pitch() == Sub.cols())
      return readFloats(Dir, Sub.data(),
                        static_cast<size_t>(Sub.rows()) * Sub.cols());
    for (int R = 0; R != Sub.rows(); ++R)
      if (Error E = readFloats(Dir, Sub.row(R), Sub.cols()))
        return E;
    return Error::success();
  }

  /// Reads and discards \p Len bytes (abort paths drain announced
  /// payloads so the ring stays clean for the next run).
  Error discard(RingDir Dir, size_t Len);

private:
  struct Region;
  struct Header;
  Region &region(RingDir Dir) const;
  uint8_t *data(RingDir Dir) const;

  void *Base = nullptr;
  size_t MapBytes = 0;
  size_t Capacity = 0;
  int OwnedFd = -1;
  long TimeoutMs = 120000;
  pid_t Peer = -1; ///< -1: no peer to watch.
};

/// The timeout every shard-side blocking operation uses:
/// CMCC_SHARD_TIMEOUT_MS from the environment, else 120000.
long shardTimeoutMs();

/// The per-direction ring capacity: CMCC_SHARD_RING_MB from the
/// environment (clamped to [1, 1024]), else 8 MiB.
size_t shardRingBytes();

} // namespace shard
} // namespace cmcc

#endif // CMCC_SHARD_SHMRING_H
