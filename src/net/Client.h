//===- net/Client.h - StencilService network client -----------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the cmcc network protocol: one blocking
/// connection to a Server, offering the StencilService verbs
/// (submit / poll / wait / cancel / stats) as simple calls plus the
/// raw send/receive primitives the load harness uses to pipeline many
/// requests down one connection.
///
/// Blocking convenience calls (submit(), wait(), ...) send one request
/// and read until its response arrives; any interleaved responses to
/// pipelined requests issued through the raw primitives would be
/// misdelivered, so a connection is EITHER used via the conveniences or
/// via sendRequest()/receive() — not both at once. All calls are
/// single-threaded per connection (one Client per thread is the model;
/// the struct holds no locks).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_NET_CLIENT_H
#define CMCC_NET_CLIENT_H

#include "net/Protocol.h"
#include "net/Server.h"
#include "support/DefaultInitAllocator.h"
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cmcc {
namespace net {

/// One connection to a cmcc network server.
class Client {
public:
  struct Options {
    Endpoint Target;
    /// Tenant id stamped on every frame this connection sends.
    uint32_t Tenant = 0;
  };

  /// Connects (blocking). Fails with the connect(2) diagnostic.
  static Expected<std::unique_ptr<Client>> connect(const Options &Opts);

  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  //===--- Blocking conveniences ------------------------------------------===//

  Expected<HelloResponse> hello(const std::string &ClientName);
  Expected<SubmitResponse> submit(const SubmitRequest &Req);
  Expected<PollResponse> poll(int64_t JobId);
  Expected<WaitResponse> wait(int64_t JobId);
  Expected<CancelResponse> cancel(int64_t JobId);
  Expected<StatsResponse> stats();
  /// Per-job event timeline of a recently finished job.
  Expected<TimelineResponse> timeline(int64_t JobId);
  /// The server's flight-recorder JSON.
  Expected<DumpResponse> dump();

  //===--- Pipelining primitives ------------------------------------------===//

  /// A fresh request id (monotonic per connection).
  uint64_t nextRequestId() { return NextRequestId++; }

  /// Writes one request frame (blocking until fully written).
  Error sendRequest(MsgType Type, uint64_t RequestId,
                    const std::vector<uint8_t> &Payload);

  /// One response frame, header decoded, payload raw.
  struct RawResponse {
    FrameHeader Header;
    /// Sized for the read without zeroing what the read overwrites.
    ByteBuffer Payload;
  };

  /// Reads the next response frame (blocking). Fails on EOF, a socket
  /// error, or a malformed frame.
  Expected<RawResponse> receive();

  uint32_t tenant() const { return Tenant; }

private:
  Client(int Fd, uint32_t Tenant) : Fd(Fd), Tenant(Tenant) {}

  /// Sends \p Req and reads to its response, expecting \p WantType.
  /// An ErrorResponse for our request id becomes a failure carrying
  /// the server's message.
  Expected<RawResponse> roundTrip(MsgType Type, uint64_t RequestId,
                                  const std::vector<uint8_t> &Payload,
                                  MsgType WantType);

  int Fd = -1;
  uint32_t Tenant = 0;
  uint64_t NextRequestId = 1;
};

} // namespace net
} // namespace cmcc

#endif // CMCC_NET_CLIENT_H
