//===- net/Server.h - Poll-based StencilService network server -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front door (DESIGN.md §5h): a poll()-based multi-client
/// server that bridges TCP and Unix-domain-socket connections onto one
/// StencilService. One event-loop thread owns every socket; the
/// service's own workers do the compiling and executing, and their
/// completions re-enter the loop through a self-pipe — no
/// thread-per-connection, no thread-per-job, no blocking call anywhere
/// on the loop.
///
/// Per connection the server keeps a read buffer (frames are parsed as
/// bytes arrive; a frame split across a thousand 1-byte reads works)
/// and a write queue (responses flush as the socket drains). Requests
/// on one connection are independent: a client may pipeline many
/// submits and waits and receive the responses as each job finishes,
/// correlated by the request id it chose.
///
/// Admission is bounded at two layers: the server caps concurrent
/// connections (excess accepts are closed immediately, counted), and
/// the StencilService applies its queue cap and per-tenant quotas to
/// every submit, keyed by the tenant id in each frame header.
///
/// Draining: requestDrain() is async-signal-safe (an atomic store plus
/// a self-pipe write), so a SIGTERM handler may call it directly. A
/// draining server stops accepting, rejects new submits with
/// ErrDraining, serves every in-flight job to completion, flushes all
/// write queues, then exits the loop.
///
/// Fault sites (support/FaultInjection.h): net.accept drops a freshly
/// accepted connection, net.read and net.write fail the socket op and
/// drop the connection — the client-visible behavior of a flaky
/// network, injected deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_NET_SERVER_H
#define CMCC_NET_SERVER_H

#include "net/Protocol.h"
#include "service/StencilService.h"
#include "support/DefaultInitAllocator.h"
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cmcc {
namespace net {

/// A listening endpoint specification. Parseable from the cmcc_serve
/// --listen syntax: "unix:PATH" or "tcp:HOST:PORT" (port 0 picks an
/// ephemeral port; tcpPort() reports the one bound).
struct Endpoint {
  enum class Kind { Tcp, Unix };
  Kind Transport = Kind::Unix;
  std::string Host = "127.0.0.1"; ///< Tcp only.
  int Port = 0;                   ///< Tcp only; 0 = ephemeral.
  std::string Path;               ///< Unix only.

  static Expected<Endpoint> parse(const std::string &Spec);
  std::string str() const;
};

/// The server. start() spawns the event-loop thread; stop() drains and
/// joins. One server serves one StencilService, which must outlive it.
class Server {
public:
  struct Options {
    std::vector<Endpoint> Listen;
    /// Concurrent-connection bound; accepts beyond it are closed
    /// immediately (counted in net.rejected_overload).
    int MaxConnections = 256;
    /// Returned in HelloResponse::Banner (e.g. provenanceSummary()).
    std::string Banner;
  };

  /// Loop-owned observability snapshot (monotonic totals). The same
  /// numbers feed the process obs registry as net.* counters.
  struct Counters {
    long Accepted = 0;         ///< Connections accepted and served.
    long RejectedOverload = 0; ///< Accepts closed at MaxConnections.
    long DroppedFault = 0;     ///< Connections dropped by a net.* fault.
    long Closed = 0;           ///< Connections that ended any way.
    long FramesIn = 0;
    long FramesOut = 0;
    long DecodeErrors = 0;     ///< Malformed payloads answered ErrBadRequest.
    long ProtocolErrors = 0;   ///< Broken framing: connection closed.
  };

  Server(StencilService &Service, Options Opts);
  ~Server(); ///< Equivalent to stop().

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds every endpoint and spawns the event loop. Fails (binding
  /// nothing) if any endpoint cannot be bound.
  Error start();

  /// Drains (idempotent) and joins the loop thread.
  void stop();

  /// Begins a graceful drain. Async-signal-safe: callable from a
  /// SIGTERM handler.
  void requestDrain();

  /// True once the loop thread has exited (all jobs served, buffers
  /// flushed).
  bool finished() const { return LoopDone.load(std::memory_order_acquire); }

  /// The port actually bound for the first TCP endpoint (resolves
  /// ephemeral port 0), or -1 when no TCP endpoint is listening.
  int tcpPort() const { return BoundTcpPort; }

  /// Snapshot of the loop counters (safe from any thread).
  Counters counters() const;

private:
  struct Conn;
  struct JobRec;

  void loop();
  void acceptAll(int ListenFd);
  /// Reads until EAGAIN; false = drop the connection.
  bool readConn(Conn &C);
  /// Writes queued bytes until EAGAIN; false = drop the connection.
  bool writeConn(Conn &C);
  /// Parses and dispatches every complete frame in C's read buffer.
  /// False = framing is broken, close after flushing the error.
  bool parseFrames(Conn &C);
  void dispatch(Conn &C, const FrameHeader &H, const uint8_t *Payload);
  void handleSubmit(Conn &C, const FrameHeader &H, const uint8_t *Payload);
  void handleWait(Conn &C, const FrameHeader &H, const WaitRequest &M);
  /// Queues one response frame on \p C.
  void send(Conn &C, MsgType Type, uint64_t RequestId, uint32_t Tenant,
            std::vector<uint8_t> Payload);
  /// Answers the request \p H with \p M.
  template <typename Msg>
  void reply(Conn &C, const FrameHeader &H, MsgType Type, const Msg &M);
  void sendError(Conn &C, const FrameHeader &H, uint16_t Code,
                 const std::string &Message);
  /// Builds the WaitResponse for a finished job and queues it.
  void deliverResult(Conn &C, JobRec &J, uint64_t RequestId);
  /// Drains the finished-job queue fed by the service callback.
  void processFinished();
  void closeConn(uint64_t ConnId);
  /// True when draining with nothing left to serve or flush.
  bool drainComplete() const;

  StencilService &Service;
  Options Opts;

  //===--- Loop-owned state (no locks: only the loop thread touches it) ---===//
  /// A queued response: its header and the payload it announces, written
  /// side by side with sendFrameBytes(), never copied into one buffer.
  struct OutFrame {
    std::array<uint8_t, FrameHeaderBytes> Header;
    std::vector<uint8_t> Payload;
  };

  /// One live connection. Identified by a monotonically increasing id,
  /// never by fd (fds are recycled by the kernel; ids are not).
  struct Conn {
    uint64_t Id = 0;
    int Fd = -1;
    /// Grows for a read(2) without zeroing what the read overwrites.
    ByteBuffer In;
    std::deque<OutFrame> Out;
    size_t OutPos = 0; ///< Bytes of Out.front() (header first) written.
    bool Closing = false; ///< Close once Out flushes.
  };

  /// One job submitted over the wire: owns the bound arrays until the
  /// result is delivered (or discarded, when the submitter vanished).
  struct JobRec {
    StencilService::JobId Id = 0;
    uint64_t ConnId = 0; ///< Submitting connection (may be gone).
    uint32_t Tenant = 0;
    bool Finished = false;
    bool WantResult = false; ///< Bound arrays: gather + return the result.
    std::string ResultName;
    /// A waiter parked on this job (at most one; a second WaitRequest
    /// for the same job answers from the finished state).
    bool HasWaiter = false;
    uint64_t WaiterConn = 0;
    uint64_t WaiterRequestId = 0;
    /// When the (current) WaitRequest arrived; deliverResult observes
    /// the park-to-delivery latency into net.req_us.wait.
    uint64_t WaiterArrivedNs = 0;
    std::unique_ptr<StencilArguments> Args;
    std::vector<std::unique_ptr<DistributedArray>> Arrays;
  };

  std::map<uint64_t, Conn> Conns;
  std::map<StencilService::JobId, JobRec> Jobs;
  uint64_t NextConnId = 1;
  std::vector<int> ListenFds;
  int BoundTcpPort = -1;
  std::vector<std::string> UnixPaths; ///< Unlinked on shutdown.
  Counters Stats;

  //===--- Cross-thread state ---------------------------------------------===//
  /// Jobs the service finished, fed by its callback thread(s).
  std::mutex FinishedMutex;
  std::deque<StencilService::JobId> FinishedQueue;
  std::atomic<bool> Draining{false};
  std::atomic<bool> LoopDone{false};
  /// Self-pipe: [0] read end owned by poll(), [1] written by
  /// requestDrain() and the finished callback.
  int WakePipe[2] = {-1, -1};
  mutable std::mutex CountersMutex;
  Counters PublishedStats; ///< Copied from Stats each loop iteration.

  std::thread LoopThread;
};

} // namespace net
} // namespace cmcc

#endif // CMCC_NET_SERVER_H
