//===- shard/ShmRing.cpp --------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "shard/ShmRing.h"
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include <csignal>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace cmcc;
using namespace cmcc::shard;

namespace {
constexpr uint64_t RingMagic = 0x434D434352494E47ull; // "CMCCRING"
} // namespace

/// One direction's progress counters. Head and Tail count bytes ever
/// written/read (monotonic, wrapping modulo capacity only at the data
/// indexing step), on separate cache lines so the two sides' updates
/// do not bounce.
struct ShmRing::Region {
  alignas(64) std::atomic<uint64_t> Head;
  alignas(64) std::atomic<uint64_t> Tail;
};

struct ShmRing::Header {
  uint64_t Magic;
  uint64_t Capacity;
  Region ToWorker;
  Region ToCoordinator;
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "ring counters must be lock-free across processes");

ShmRing::~ShmRing() {
  if (Base)
    ::munmap(Base, MapBytes);
  if (OwnedFd >= 0)
    ::close(OwnedFd);
}

ShmRing::ShmRing(ShmRing &&O) noexcept
    : Base(O.Base), MapBytes(O.MapBytes), Capacity(O.Capacity),
      OwnedFd(O.OwnedFd), TimeoutMs(O.TimeoutMs), Peer(O.Peer) {
  O.Base = nullptr;
  O.OwnedFd = -1;
}

ShmRing &ShmRing::operator=(ShmRing &&O) noexcept {
  if (this != &O) {
    if (Base)
      ::munmap(Base, MapBytes);
    if (OwnedFd >= 0)
      ::close(OwnedFd);
    Base = O.Base;
    MapBytes = O.MapBytes;
    Capacity = O.Capacity;
    OwnedFd = O.OwnedFd;
    TimeoutMs = O.TimeoutMs;
    Peer = O.Peer;
    O.Base = nullptr;
    O.OwnedFd = -1;
  }
  return *this;
}

Expected<ShmRing> ShmRing::create(size_t RingBytes, long TimeoutMs) {
  if (RingBytes == 0)
    return makeError("shard ring capacity must be positive");
  const size_t Total = sizeof(Header) + 2 * RingBytes;

  int Fd = static_cast<int>(::memfd_create("cmcc-shard-ring", 0));
  if (Fd < 0) {
    // Fall back to an unlinked temporary file (same lifetime semantics:
    // the data exists only while mapped/open).
    char Path[] = "/tmp/cmcc-shard-ring-XXXXXX";
    Fd = ::mkstemp(Path);
    if (Fd < 0)
      return makeError("cannot create shard ring segment: " +
                       std::string(std::strerror(errno)));
    ::unlink(Path);
  }
  if (::ftruncate(Fd, static_cast<off_t>(Total)) != 0) {
    int E = errno;
    ::close(Fd);
    return makeError("cannot size shard ring segment: " +
                     std::string(std::strerror(E)));
  }
  void *Map =
      ::mmap(nullptr, Total, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  if (Map == MAP_FAILED) {
    int E = errno;
    ::close(Fd);
    return makeError("cannot map shard ring segment: " +
                     std::string(std::strerror(E)));
  }

  ShmRing R;
  R.Base = Map;
  R.MapBytes = Total;
  R.Capacity = RingBytes;
  R.OwnedFd = Fd;
  R.TimeoutMs = TimeoutMs;
  Header *H = new (Map) Header;
  H->Magic = RingMagic;
  H->Capacity = RingBytes;
  H->ToWorker.Head.store(0, std::memory_order_relaxed);
  H->ToWorker.Tail.store(0, std::memory_order_relaxed);
  H->ToCoordinator.Head.store(0, std::memory_order_relaxed);
  H->ToCoordinator.Tail.store(0, std::memory_order_relaxed);
  return R;
}

Expected<ShmRing> ShmRing::attach(int Fd, long TimeoutMs) {
  Header Probe;
  ssize_t N = ::pread(Fd, &Probe, sizeof(Probe), 0);
  if (N != static_cast<ssize_t>(sizeof(Probe)) || Probe.Magic != RingMagic)
    return makeError("shard ring fd does not hold a valid ring segment");
  const size_t Total = sizeof(Header) + 2 * Probe.Capacity;
  void *Map =
      ::mmap(nullptr, Total, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  if (Map == MAP_FAILED)
    return makeError("cannot map shard ring segment: " +
                     std::string(std::strerror(errno)));
  ShmRing R;
  R.Base = Map;
  R.MapBytes = Total;
  R.Capacity = Probe.Capacity;
  R.OwnedFd = -1;
  R.TimeoutMs = TimeoutMs;
  R.Peer = ::getppid();
  return R;
}

ShmRing::Region &ShmRing::region(RingDir Dir) const {
  Header *H = static_cast<Header *>(Base);
  return Dir == RingDir::ToWorker ? H->ToWorker : H->ToCoordinator;
}

uint8_t *ShmRing::data(RingDir Dir) const {
  uint8_t *D = static_cast<uint8_t *>(Base) + sizeof(Header);
  return Dir == RingDir::ToWorker ? D : D + Capacity;
}

namespace {

/// True once \p Peer has exited. A child of ours (a worker, seen from
/// its coordinator) is asked without reaping it, so its owner still
/// reaps it later; any other process (the coordinator, seen from a
/// worker) is gone once signalling it finds no such process.
bool peerGone(pid_t Peer) {
  siginfo_t Info{};
  if (::waitid(P_PID, static_cast<id_t>(Peer), &Info,
               WEXITED | WNOHANG | WNOWAIT) == 0)
    return Info.si_pid == Peer;
  return errno == ECHILD && ::kill(Peer, 0) != 0 && errno == ESRCH;
}

/// Progress wait: spin briefly, then sleep in short steps. The deadline
/// restarts on every byte of progress, so a slow peer is fine and only
/// a dead one fails: once its exit is seen (checked on each sleep step)
/// and a look at the ring made after that still finds no progress, or
/// else at the deadline. The peer may have written its last bytes just
/// before it exited; the caller's look after the exit picks them up.
class ProgressWaiter {
public:
  ProgressWaiter(long TimeoutMs, pid_t Peer)
      : Deadline(std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(TimeoutMs)),
        TimeoutMs(TimeoutMs), Peer(Peer) {}

  void madeProgress() {
    Spins = 0;
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(TimeoutMs);
  }

  /// Waits one step; an empty Error means wait again.
  Error waitOnce(const char *Op) {
    if (PeerExited)
      return Error::transient(std::string("shard ring ") + Op +
                              ": peer process exited");
    if (std::chrono::steady_clock::now() >= Deadline)
      return Error::transient(std::string("shard ring ") + Op +
                              " timed out (peer gone?)");
    if (++Spins < 1024) {
      std::this_thread::yield();
      return Error::success();
    }
    if (Peer > 0 && peerGone(Peer)) {
      PeerExited = true;
      return Error::success();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return Error::success();
  }

private:
  std::chrono::steady_clock::time_point Deadline;
  long TimeoutMs;
  pid_t Peer;
  bool PeerExited = false;
  int Spins = 0;
};

} // namespace

Error ShmRing::write(RingDir Dir, const void *Src, size_t Len) {
  assert(valid() && "write on an unmapped ring");
  Region &R = region(Dir);
  uint8_t *D = data(Dir);
  const uint8_t *In = static_cast<const uint8_t *>(Src);
  size_t Done = 0;
  ProgressWaiter Waiter(TimeoutMs, Peer);
  while (Done != Len) {
    const uint64_t Head = R.Head.load(std::memory_order_relaxed);
    const uint64_t Tail = R.Tail.load(std::memory_order_acquire);
    const size_t Free = Capacity - static_cast<size_t>(Head - Tail);
    if (Free == 0) {
      if (Error E = Waiter.waitOnce("write"))
        return E;
      continue;
    }
    size_t Chunk = std::min(Free, Len - Done);
    const size_t At = static_cast<size_t>(Head % Capacity);
    const size_t ToEnd = Capacity - At;
    if (Chunk <= ToEnd) {
      std::memcpy(D + At, In + Done, Chunk);
    } else {
      std::memcpy(D + At, In + Done, ToEnd);
      std::memcpy(D, In + Done + ToEnd, Chunk - ToEnd);
    }
    R.Head.store(Head + Chunk, std::memory_order_release);
    Done += Chunk;
    Waiter.madeProgress();
  }
  return Error::success();
}

Error ShmRing::read(RingDir Dir, void *Dst, size_t Len) {
  assert(valid() && "read on an unmapped ring");
  Region &R = region(Dir);
  const uint8_t *D = data(Dir);
  uint8_t *Out = static_cast<uint8_t *>(Dst);
  size_t Done = 0;
  ProgressWaiter Waiter(TimeoutMs, Peer);
  while (Done != Len) {
    const uint64_t Tail = R.Tail.load(std::memory_order_relaxed);
    const uint64_t Head = R.Head.load(std::memory_order_acquire);
    const size_t Avail = static_cast<size_t>(Head - Tail);
    if (Avail == 0) {
      if (Error E = Waiter.waitOnce("read"))
        return E;
      continue;
    }
    size_t Chunk = std::min(Avail, Len - Done);
    const size_t At = static_cast<size_t>(Tail % Capacity);
    const size_t ToEnd = Capacity - At;
    if (Out) {
      if (Chunk <= ToEnd) {
        std::memcpy(Out + Done, D + At, Chunk);
      } else {
        std::memcpy(Out + Done, D + At, ToEnd);
        std::memcpy(Out + Done + ToEnd, D, Chunk - ToEnd);
      }
    }
    R.Tail.store(Tail + Chunk, std::memory_order_release);
    Done += Chunk;
    Waiter.madeProgress();
  }
  return Error::success();
}

Error ShmRing::discard(RingDir Dir, size_t Len) {
  return read(Dir, nullptr, Len);
}

long cmcc::shard::shardTimeoutMs() {
  if (const char *Env = std::getenv("CMCC_SHARD_TIMEOUT_MS")) {
    long V = std::strtol(Env, nullptr, 10);
    if (V > 0)
      return V;
  }
  return 120000;
}

size_t cmcc::shard::shardRingBytes() {
  if (const char *Env = std::getenv("CMCC_SHARD_RING_MB")) {
    long MB = std::strtol(Env, nullptr, 10);
    if (MB >= 1 && MB <= 1024)
      return static_cast<size_t>(MB) << 20;
  }
  return 8u << 20;
}
