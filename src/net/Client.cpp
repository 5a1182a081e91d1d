//===- net/Client.cpp -----------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cmcc;
using namespace cmcc::net;

namespace {

/// read(2) until exactly \p Len bytes arrived; EOF mid-message fails.
Error readFull(int Fd, uint8_t *Data, size_t Len) {
  size_t Done = 0;
  while (Done < Len) {
    const ssize_t N = ::read(Fd, Data + Done, Len - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Error::failure(std::string("socket read: ") + std::strerror(errno));
    }
    if (N == 0)
      return Error::failure("connection closed by server");
    Done += static_cast<size_t>(N);
  }
  return Error::success();
}

} // namespace

Expected<std::unique_ptr<Client>> Client::connect(const Options &Opts) {
  int Fd = -1;
  if (Opts.Target.Transport == Endpoint::Kind::Unix) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return Error::failure(std::string("socket(AF_UNIX): ") + std::strerror(errno));
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.Target.Path.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      const int E = errno;
      ::close(Fd);
      return Error::failure("connect(" + Opts.Target.Path +
                   "): " + std::strerror(E));
    }
  } else {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return Error::failure(std::string("socket(AF_INET): ") + std::strerror(errno));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.Target.Port));
    if (::inet_pton(AF_INET, Opts.Target.Host.c_str(), &Addr.sin_addr) != 1) {
      ::close(Fd);
      return Error::failure("bad server host '" + Opts.Target.Host + "'");
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      const int E = errno;
      ::close(Fd);
      return Error::failure("connect(" + Opts.Target.str() +
                   "): " + std::strerror(E));
    }
    const int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  }
  return std::unique_ptr<Client>(new Client(Fd, Opts.Tenant));
}

Client::~Client() {
  if (Fd >= 0)
    ::close(Fd);
}

Error Client::sendRequest(MsgType Type, uint64_t RequestId,
                          const std::vector<uint8_t> &Payload) {
  if (Error E = writeFrame(Fd, Type, RequestId, Tenant, Payload))
    return Error::failure("socket write: " + E.message());
  return Error::success();
}

Expected<Client::RawResponse> Client::receive() {
  uint8_t Header[FrameHeaderBytes];
  if (Error E = readFull(Fd, Header, sizeof(Header)))
    return E;
  Expected<FrameHeader> H = decodeFrameHeader(Header, sizeof(Header));
  if (!H)
    return H.error();
  RawResponse R;
  R.Header = *H;
  R.Payload.resize(H->PayloadBytes);
  if (H->PayloadBytes)
    if (Error E = readFull(Fd, R.Payload.data(), R.Payload.size()))
      return E;
  return R;
}

Expected<Client::RawResponse>
Client::roundTrip(MsgType Type, uint64_t RequestId,
                  const std::vector<uint8_t> &Payload, MsgType WantType) {
  if (Error E = sendRequest(Type, RequestId, Payload))
    return E;
  // With no pipelined requests outstanding, the next responses are
  // ours (or stale responses to requests an earlier convenience call
  // abandoned on error — skipped by request id).
  while (true) {
    Expected<RawResponse> R = receive();
    if (!R)
      return R.error();
    if (R->Header.RequestId != RequestId)
      continue;
    if (R->Header.Type == MsgType::ErrorResponse) {
      Expected<ErrorResponse> E =
          decodeErrorResponse(R->Payload.data(), R->Payload.size());
      return Error::failure(E ? "server error: " + E->Message
                     : "server error (undecodable ErrorResponse)");
    }
    if (R->Header.Type != WantType)
      return Error::failure("unexpected response type " +
                   std::to_string(static_cast<int>(R->Header.Type)));
    return R;
  }
}

Expected<HelloResponse> Client::hello(const std::string &ClientName) {
  HelloRequest M;
  M.ClientName = ClientName;
  Expected<RawResponse> R = roundTrip(MsgType::HelloRequest, nextRequestId(),
                                      encode(M), MsgType::HelloResponse);
  if (!R)
    return R.error();
  return decodeHelloResponse(R->Payload.data(), R->Payload.size());
}

Expected<SubmitResponse> Client::submit(const SubmitRequest &Req) {
  Expected<RawResponse> R = roundTrip(MsgType::SubmitRequest, nextRequestId(),
                                      encode(Req), MsgType::SubmitResponse);
  if (!R)
    return R.error();
  return decodeSubmitResponse(R->Payload.data(), R->Payload.size());
}

Expected<PollResponse> Client::poll(int64_t JobId) {
  PollRequest M;
  M.JobId = JobId;
  Expected<RawResponse> R = roundTrip(MsgType::PollRequest, nextRequestId(),
                                      encode(M), MsgType::PollResponse);
  if (!R)
    return R.error();
  return decodePollResponse(R->Payload.data(), R->Payload.size());
}

Expected<WaitResponse> Client::wait(int64_t JobId) {
  WaitRequest M;
  M.JobId = JobId;
  Expected<RawResponse> R = roundTrip(MsgType::WaitRequest, nextRequestId(),
                                      encode(M), MsgType::WaitResponse);
  if (!R)
    return R.error();
  return decodeWaitResponse(R->Payload.data(), R->Payload.size());
}

Expected<CancelResponse> Client::cancel(int64_t JobId) {
  CancelRequest M;
  M.JobId = JobId;
  Expected<RawResponse> R = roundTrip(MsgType::CancelRequest, nextRequestId(),
                                      encode(M), MsgType::CancelResponse);
  if (!R)
    return R.error();
  return decodeCancelResponse(R->Payload.data(), R->Payload.size());
}

Expected<StatsResponse> Client::stats() {
  Expected<RawResponse> R =
      roundTrip(MsgType::StatsRequest, nextRequestId(), encode(StatsRequest{}),
                MsgType::StatsResponse);
  if (!R)
    return R.error();
  return decodeStatsResponse(R->Payload.data(), R->Payload.size());
}

Expected<TimelineResponse> Client::timeline(int64_t JobId) {
  TimelineRequest M;
  M.JobId = JobId;
  Expected<RawResponse> R = roundTrip(MsgType::TimelineRequest,
                                      nextRequestId(), encode(M),
                                      MsgType::TimelineResponse);
  if (!R)
    return R.error();
  return decodeTimelineResponse(R->Payload.data(), R->Payload.size());
}

Expected<DumpResponse> Client::dump() {
  Expected<RawResponse> R =
      roundTrip(MsgType::DumpRequest, nextRequestId(), encode(DumpRequest{}),
                MsgType::DumpResponse);
  if (!R)
    return R.error();
  return decodeDumpResponse(R->Payload.data(), R->Payload.size());
}
