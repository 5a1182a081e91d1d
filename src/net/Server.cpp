//===- net/Server.cpp -----------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"
#include "cm2/NodeGrid.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cmcc;
using namespace cmcc::net;

//===----------------------------------------------------------------------===//
// Endpoint
//===----------------------------------------------------------------------===//

Expected<Endpoint> Endpoint::parse(const std::string &Spec) {
  Endpoint E;
  if (Spec.rfind("unix:", 0) == 0) {
    E.Transport = Kind::Unix;
    E.Path = Spec.substr(5);
    if (E.Path.empty())
      return Error::failure("empty unix socket path in '" + Spec + "'");
    if (E.Path.size() >= sizeof(sockaddr_un{}.sun_path))
      return Error::failure("unix socket path too long: '" + E.Path + "'");
    return E;
  }
  if (Spec.rfind("tcp:", 0) == 0) {
    E.Transport = Kind::Tcp;
    const std::string Rest = Spec.substr(4);
    const size_t Colon = Rest.rfind(':');
    if (Colon == std::string::npos)
      return Error::failure("expected tcp:HOST:PORT, got '" + Spec + "'");
    E.Host = Rest.substr(0, Colon);
    if (E.Host.empty())
      E.Host = "127.0.0.1";
    const std::string PortStr = Rest.substr(Colon + 1);
    char *End = nullptr;
    const long Port = std::strtol(PortStr.c_str(), &End, 10);
    if (PortStr.empty() || *End != '\0' || Port < 0 || Port > 65535)
      return Error::failure("bad tcp port in '" + Spec + "'");
    E.Port = static_cast<int>(Port);
    return E;
  }
  return Error::failure("expected unix:PATH or tcp:HOST:PORT, got '" + Spec + "'");
}

std::string Endpoint::str() const {
  if (Transport == Kind::Unix)
    return "unix:" + Path;
  return "tcp:" + Host + ":" + std::to_string(Port);
}

//===----------------------------------------------------------------------===//
// Socket helpers
//===----------------------------------------------------------------------===//

namespace {

bool setNonBlocking(int Fd) {
  const int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Binds + listens on \p E; returns the fd or a failure. For TCP,
/// \p BoundPort receives the actual port (resolving ephemeral 0).
Expected<int> openListener(const Endpoint &E, int &BoundPort) {
  if (E.Transport == Endpoint::Kind::Unix) {
    const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return Error::failure(std::string("socket(AF_UNIX): ") + std::strerror(errno));
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, E.Path.c_str(), sizeof(Addr.sun_path) - 1);
    // A stale socket file from a previous run would make bind fail;
    // removing it is safe because two live servers on one path was
    // never a supported configuration.
    ::unlink(E.Path.c_str());
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      const int E2 = errno;
      ::close(Fd);
      return Error::failure("bind(" + E.Path + "): " + std::strerror(E2));
    }
    if (::listen(Fd, 128) != 0 || !setNonBlocking(Fd)) {
      const int E2 = errno;
      ::close(Fd);
      return Error::failure("listen(" + E.Path + "): " + std::strerror(E2));
    }
    return Fd;
  }

  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Error::failure(std::string("socket(AF_INET): ") + std::strerror(errno));
  const int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(E.Port));
  if (E.Host == "0.0.0.0")
    Addr.sin_addr.s_addr = htonl(INADDR_ANY);
  else if (::inet_pton(AF_INET, E.Host.c_str(), &Addr.sin_addr) != 1) {
    ::close(Fd);
    return Error::failure("bad tcp host '" + E.Host + "' (dotted quad expected)");
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    const int E2 = errno;
    ::close(Fd);
    return Error::failure("bind(" + E.str() + "): " + std::strerror(E2));
  }
  if (::listen(Fd, 128) != 0 || !setNonBlocking(Fd)) {
    const int E2 = errno;
    ::close(Fd);
    return Error::failure("listen(" + E.str() + "): " + std::strerror(E2));
  }
  sockaddr_in Bound{};
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &BoundLen) == 0)
    BoundPort = ntohs(Bound.sin_port);
  return Fd;
}

//===--- Wire histograms --------------------------------------------------===//
// Process-registry histograms for the wire path. Function-local statics
// so the references resolve once (thread-safe init) and the loop pays
// only the observe() itself.

obs::Histogram &frameBytesIn() {
  static obs::Histogram &H = obs::Registry::process().histogram(
      "net.frame_bytes_in", obs::Histogram::byteBounds());
  return H;
}

obs::Histogram &frameBytesOut() {
  static obs::Histogram &H = obs::Registry::process().histogram(
      "net.frame_bytes_out", obs::Histogram::byteBounds());
  return H;
}

/// Per-message-type request latency, dispatch to response queued (for
/// waits: request arrival to result delivery, park time included).
obs::Histogram &reqHistogram(MsgType T) {
  obs::Registry &Reg = obs::Registry::process();
  switch (T) {
  case MsgType::HelloRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.hello");
    return H;
  }
  case MsgType::SubmitRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.submit");
    return H;
  }
  case MsgType::PollRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.poll");
    return H;
  }
  case MsgType::WaitRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.wait");
    return H;
  }
  case MsgType::CancelRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.cancel");
    return H;
  }
  case MsgType::StatsRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.stats");
    return H;
  }
  case MsgType::TimelineRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.timeline");
    return H;
  }
  case MsgType::DumpRequest: {
    static obs::Histogram &H = Reg.histogram("net.req_us.dump");
    return H;
  }
  default: {
    static obs::Histogram &H = Reg.histogram("net.req_us.other");
    return H;
  }
  }
}

using FR = obs::FlightRecorder;

} // namespace

//===----------------------------------------------------------------------===//
// Server lifecycle
//===----------------------------------------------------------------------===//

Server::Server(StencilService &Service, Options Opts)
    : Service(Service), Opts(std::move(Opts)) {}

Server::~Server() { stop(); }

Error Server::start() {
  if (Opts.Listen.empty())
    return Error::failure("server started with no endpoints to listen on");
  if (::pipe(WakePipe) != 0)
    return Error::failure(std::string("pipe(): ") + std::strerror(errno));
  setNonBlocking(WakePipe[0]);
  setNonBlocking(WakePipe[1]);

  for (const Endpoint &E : Opts.Listen) {
    int Port = -1;
    Expected<int> Fd = openListener(E, Port);
    if (!Fd) {
      for (int F : ListenFds)
        ::close(F);
      ListenFds.clear();
      ::close(WakePipe[0]);
      ::close(WakePipe[1]);
      WakePipe[0] = WakePipe[1] = -1;
      return Fd.error();
    }
    ListenFds.push_back(*Fd);
    if (E.Transport == Endpoint::Kind::Unix)
      UnixPaths.push_back(E.Path);
    else if (BoundTcpPort < 0)
      BoundTcpPort = Port;
  }

  // The completion bridge: service workers push finished ids and poke
  // the pipe; only the loop thread consumes.
  Service.setJobFinishedCallback([this](StencilService::JobId Id) {
    {
      std::lock_guard<std::mutex> Lock(FinishedMutex);
      FinishedQueue.push_back(Id);
    }
    const char Byte = 'f';
    [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &Byte, 1);
  });

  FR::process().record(FR::EventKind::ServerStart, "server",
                       static_cast<uint64_t>(ListenFds.size()),
                       static_cast<uint64_t>(Opts.MaxConnections));
  LoopThread = std::thread([this] { loop(); });
  return Error::success();
}

void Server::requestDrain() {
  // Async-signal-safe: one atomic store and one write(2). The loop
  // notices Draining on its next wake-up.
  Draining.store(true, std::memory_order_release);
  if (WakePipe[1] >= 0) {
    const char Byte = 'd';
    [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &Byte, 1);
  }
}

void Server::stop() {
  if (!LoopThread.joinable())
    return;
  requestDrain();
  LoopThread.join();
  Service.setJobFinishedCallback(nullptr);
  for (int Fd : ListenFds)
    ::close(Fd);
  ListenFds.clear();
  for (const std::string &P : UnixPaths)
    ::unlink(P.c_str());
  UnixPaths.clear();
  if (WakePipe[0] >= 0) {
    ::close(WakePipe[0]);
    ::close(WakePipe[1]);
    WakePipe[0] = WakePipe[1] = -1;
  }
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> Lock(CountersMutex);
  return PublishedStats;
}

bool Server::drainComplete() const {
  // Every submitted job must have finished (drain never abandons
  // work), but a finished result nobody waited for does not hold the
  // shutdown hostage.
  for (const auto &[Id, J] : Jobs)
    if (!J.Finished)
      return false;
  for (const auto &[Id, C] : Conns)
    if (!C.Out.empty())
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// The event loop
//===----------------------------------------------------------------------===//

void Server::loop() {
  obs::Registry &Reg = obs::Registry::process();
  obs::Counter &CtrAccepted = Reg.counter("net.accepted");
  obs::Counter &CtrOverload = Reg.counter("net.rejected_overload");
  obs::Counter &CtrDropped = Reg.counter("net.dropped_fault");
  obs::Counter &CtrFramesIn = Reg.counter("net.frames_in");
  obs::Counter &CtrFramesOut = Reg.counter("net.frames_out");
  obs::Counter &CtrDecodeErrors = Reg.counter("net.decode_errors");
  Counters Mirrored; // Last values pushed into the registry.

  bool AcceptingClosed = false;
  while (true) {
    const bool Drain = Draining.load(std::memory_order_acquire);
    if (Drain && !AcceptingClosed) {
      FR::process().record(FR::EventKind::DrainBegin, "server",
                           static_cast<uint64_t>(Conns.size()),
                           static_cast<uint64_t>(Jobs.size()));
      for (int Fd : ListenFds)
        ::close(Fd);
      ListenFds.clear();
      for (const std::string &P : UnixPaths)
        ::unlink(P.c_str());
      AcceptingClosed = true;
    }
    if (Drain && drainComplete())
      break;

    std::vector<pollfd> Fds;
    Fds.push_back({WakePipe[0], POLLIN, 0});
    const size_t FirstListener = Fds.size();
    for (int Fd : ListenFds)
      Fds.push_back({Fd, POLLIN, 0});
    const size_t FirstConn = Fds.size();
    std::vector<uint64_t> ConnIds;
    for (auto &[Id, C] : Conns) {
      short Events = C.Closing ? 0 : POLLIN;
      if (!C.Out.empty())
        Events |= POLLOUT;
      Fds.push_back({C.Fd, Events, 0});
      ConnIds.push_back(Id);
    }

    const int N = ::poll(Fds.data(), Fds.size(), 500);
    if (N < 0 && errno != EINTR)
      break;

    if (Fds[0].revents & POLLIN) {
      char Buf[256];
      while (::read(WakePipe[0], Buf, sizeof(Buf)) > 0)
        ;
    }
    processFinished();

    for (size_t I = FirstListener; I != FirstConn; ++I)
      if (Fds[I].revents & POLLIN)
        acceptAll(Fds[I].fd);

    for (size_t I = FirstConn; I != Fds.size(); ++I) {
      const uint64_t Id = ConnIds[I - FirstConn];
      auto It = Conns.find(Id);
      if (It == Conns.end())
        continue; // Closed by an earlier event this iteration.
      Conn &C = It->second;
      const short Re = Fds[I].revents;
      if (Re & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with readable data still pending is delivered with
        // POLLIN on Linux; by the time only POLLHUP remains the peer
        // is gone for good.
        if (!(Re & POLLIN)) {
          closeConn(Id);
          continue;
        }
      }
      if (Re & POLLIN) {
        if (!readConn(C) || !parseFrames(C)) {
          closeConn(Id);
          continue;
        }
      }
      if (Re & POLLOUT) {
        if (!writeConn(C)) {
          closeConn(Id);
          continue;
        }
      }
      if (C.Closing && C.Out.empty())
        closeConn(Id);
    }

    // Publish counters: the deltas feed the process registry, the
    // totals feed counters() for tests and the serve tool.
    CtrAccepted.add(Stats.Accepted - Mirrored.Accepted);
    CtrOverload.add(Stats.RejectedOverload - Mirrored.RejectedOverload);
    CtrDropped.add(Stats.DroppedFault - Mirrored.DroppedFault);
    CtrFramesIn.add(Stats.FramesIn - Mirrored.FramesIn);
    CtrFramesOut.add(Stats.FramesOut - Mirrored.FramesOut);
    CtrDecodeErrors.add(Stats.DecodeErrors - Mirrored.DecodeErrors);
    Mirrored = Stats;
    {
      std::lock_guard<std::mutex> Lock(CountersMutex);
      PublishedStats = Stats;
    }
  }

  for (auto &[Id, C] : Conns)
    ::close(C.Fd);
  Conns.clear();
  Jobs.clear();
  {
    std::lock_guard<std::mutex> Lock(CountersMutex);
    PublishedStats = Stats;
  }
  FR::process().record(FR::EventKind::ServerStop, "server",
                       static_cast<uint64_t>(Stats.Accepted),
                       static_cast<uint64_t>(Stats.FramesIn));
  LoopDone.store(true, std::memory_order_release);
}

void Server::acceptAll(int ListenFd) {
  while (true) {
    const int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or a transient accept error: poll again.
    if (fault::probe("net.accept")) {
      ++Stats.DroppedFault;
      ::close(Fd);
      continue;
    }
    if (static_cast<int>(Conns.size()) >= Opts.MaxConnections) {
      // Bounded accept: shedding beyond the cap beats collapsing
      // under it. The client sees a clean close before any frame.
      ++Stats.RejectedOverload;
      FR::process().record(FR::EventKind::ConnRejected, "overload",
                           static_cast<uint64_t>(Conns.size()));
      ::close(Fd);
      continue;
    }
    setNonBlocking(Fd);
    const int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    Conn C;
    C.Id = NextConnId++;
    C.Fd = Fd;
    ++Stats.Accepted;
    FR::process().record(FR::EventKind::ConnAccepted, nullptr, C.Id);
    Conns.emplace(C.Id, std::move(C));
  }
}

bool Server::readConn(Conn &C) {
  if (fault::probe("net.read")) {
    ++Stats.DroppedFault;
    return false;
  }
  // Read straight into the buffer's tail: at least 64 KiB a call, or all
  // the room the buffer already has, which a connection sending large
  // frames grows to a frame's size.
  while (true) {
    const size_t Have = C.In.size();
    const size_t Room = std::max<size_t>(64 * 1024, C.In.capacity() - Have);
    C.In.resize(Have + Room);
    const ssize_t N = ::read(C.Fd, C.In.data() + Have, Room);
    C.In.resize(Have + static_cast<size_t>(std::max<ssize_t>(N, 0)));
    if (N > 0) {
      if (static_cast<size_t>(N) < Room)
        return true;
      continue;
    }
    if (N == 0)
      return false; // Peer closed.
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

bool Server::writeConn(Conn &C) {
  if (fault::probe("net.write")) {
    ++Stats.DroppedFault;
    return false;
  }
  while (!C.Out.empty()) {
    const OutFrame &Front = C.Out.front();
    const ssize_t N =
        sendFrameBytes(C.Fd, Front.Header.data(), Front.Payload.data(),
                       Front.Payload.size(), C.OutPos);
    if (N < 0)
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    C.OutPos += static_cast<size_t>(N);
    if (C.OutPos == FrameHeaderBytes + Front.Payload.size()) {
      C.Out.pop_front();
      C.OutPos = 0;
    }
  }
  return true;
}

void Server::closeConn(uint64_t ConnId) {
  auto It = Conns.find(ConnId);
  if (It == Conns.end())
    return;
  ::close(It->second.Fd);
  Conns.erase(It);
  ++Stats.Closed;
  FR::process().record(FR::EventKind::ConnClosed, nullptr, ConnId);
  // Jobs this connection submitted stay alive — the service is already
  // running them and tearing down their arrays mid-execution would be
  // a use-after-free. Their results are discarded at completion.
  for (auto &[Id, J] : Jobs)
    if (J.HasWaiter && J.WaiterConn == ConnId)
      J.HasWaiter = false;
}

//===----------------------------------------------------------------------===//
// Frame parsing and dispatch
//===----------------------------------------------------------------------===//

bool Server::parseFrames(Conn &C) {
  size_t Pos = 0;
  while (C.In.size() - Pos >= FrameHeaderBytes) {
    Expected<FrameHeader> H =
        decodeFrameHeader(C.In.data() + Pos, C.In.size() - Pos);
    if (!H) {
      // Broken framing (a frame of another protocol version included):
      // there is no way to find the next frame boundary, so answer once
      // and close.
      ++Stats.ProtocolErrors;
      ErrorResponse E;
      E.Code = ErrBadRequest;
      E.Message = H.error().message();
      send(C, MsgType::ErrorResponse, 0, 0, encode(E));
      C.Closing = true;
      break;
    }
    if (C.In.size() - Pos < FrameHeaderBytes + H->PayloadBytes)
      break; // Frame incomplete; wait for more bytes.
    ++Stats.FramesIn;
    frameBytesIn().observe(
        static_cast<double>(FrameHeaderBytes + H->PayloadBytes));
    dispatch(C, *H, C.In.data() + Pos + FrameHeaderBytes);
    Pos += FrameHeaderBytes + H->PayloadBytes;
  }
  if (Pos)
    C.In.erase(C.In.begin(), C.In.begin() + static_cast<long>(Pos));
  // Flush eagerly: most responses fit the socket buffer, and waiting
  // for the next poll() round-trip would add latency for nothing.
  return writeConn(C);
}

void Server::send(Conn &C, MsgType Type, uint64_t RequestId, uint32_t Tenant,
                  std::vector<uint8_t> Payload) {
  const uint32_t Bytes = static_cast<uint32_t>(Payload.size());
  C.Out.push_back(
      {frameHeader(Type, RequestId, Tenant, Bytes), std::move(Payload)});
  frameBytesOut().observe(static_cast<double>(FrameHeaderBytes + Bytes));
  ++Stats.FramesOut;
}

template <typename Msg>
void Server::reply(Conn &C, const FrameHeader &H, MsgType Type, const Msg &M) {
  send(C, Type, H.RequestId, H.Tenant, encode(M));
}

void Server::sendError(Conn &C, const FrameHeader &H, uint16_t Code,
                       const std::string &Message) {
  ErrorResponse E;
  E.Code = Code;
  E.Message = Message;
  if (Code == ErrBadRequest) {
    ++Stats.DecodeErrors;
    FR::process().record(FR::EventKind::DecodeError, "bad_request",
                         static_cast<uint64_t>(H.Type), H.RequestId);
  }
  reply(C, H, MsgType::ErrorResponse, E);
}

void Server::dispatch(Conn &C, const FrameHeader &H, const uint8_t *Payload) {
  // Dispatch-to-response-queued latency per message type. Waits are the
  // exception: a parked wait's latency runs until deliverResult, so the
  // timer stays disarmed here and deliverResult observes instead.
  struct ReqTimer {
    obs::Histogram &Hist;
    uint64_t StartNs;
    bool Armed;
    ~ReqTimer() {
      if (Armed)
        Hist.observe(
            static_cast<double>(obs::detail::nowNs() - StartNs) / 1000.0);
    }
  } Timer{reqHistogram(H.Type), obs::detail::nowNs(),
          H.Type != MsgType::WaitRequest};
  switch (H.Type) {
  case MsgType::HelloRequest: {
    Expected<HelloRequest> M = decodeHelloRequest(Payload, H.PayloadBytes);
    if (!M)
      return sendError(C, H, ErrBadRequest, M.error().message());
    HelloResponse R;
    R.Banner = Opts.Banner;
    R.Machine = Service.machine().summary();
    reply(C, H, MsgType::HelloResponse, R);
    return;
  }
  case MsgType::SubmitRequest:
    return handleSubmit(C, H, Payload);
  case MsgType::PollRequest: {
    Expected<PollRequest> M = decodePollRequest(Payload, H.PayloadBytes);
    if (!M)
      return sendError(C, H, ErrBadRequest, M.error().message());
    PollResponse R;
    R.State = static_cast<uint8_t>(Service.poll(M->JobId));
    reply(C, H, MsgType::PollResponse, R);
    return;
  }
  case MsgType::WaitRequest: {
    Expected<WaitRequest> M = decodeWaitRequest(Payload, H.PayloadBytes);
    if (!M)
      return sendError(C, H, ErrBadRequest, M.error().message());
    return handleWait(C, H, *M);
  }
  case MsgType::CancelRequest: {
    Expected<CancelRequest> M = decodeCancelRequest(Payload, H.PayloadBytes);
    if (!M)
      return sendError(C, H, ErrBadRequest, M.error().message());
    CancelResponse R;
    R.Cancelled = Service.cancel(M->JobId) ? 1 : 0;
    reply(C, H, MsgType::CancelResponse, R);
    return;
  }
  case MsgType::StatsRequest: {
    Expected<StatsRequest> M = decodeStatsRequest(Payload, H.PayloadBytes);
    if (!M)
      return sendError(C, H, ErrBadRequest, M.error().message());
    const ServiceStats S = Service.stats();
    StatsResponse R;
    R.Json = S.json();
    R.Table = S.str();
    R.NetJson = obs::Registry::process().json("net.");
    R.NetTable = obs::Registry::process().table("net.");
    reply(C, H, MsgType::StatsResponse, R);
    return;
  }
  case MsgType::TimelineRequest: {
    Expected<TimelineRequest> M =
        decodeTimelineRequest(Payload, H.PayloadBytes);
    if (!M)
      return sendError(C, H, ErrBadRequest, M.error().message());
    TimelineResponse R;
    R.Json = Service.timelineJson(M->JobId);
    R.Found = R.Json.empty() ? 0 : 1;
    reply(C, H, MsgType::TimelineResponse, R);
    return;
  }
  case MsgType::DumpRequest: {
    Expected<DumpRequest> M = decodeDumpRequest(Payload, H.PayloadBytes);
    if (!M)
      return sendError(C, H, ErrBadRequest, M.error().message());
    DumpResponse R;
    R.Json = obs::FlightRecorder::process().json();
    reply(C, H, MsgType::DumpResponse, R);
    return;
  }
  default:
    // A response type arriving at the server is a confused client.
    return sendError(C, H, ErrBadRequest,
                     "unexpected message type " +
                         std::to_string(static_cast<int>(H.Type)));
  }
}

//===----------------------------------------------------------------------===//
// Submit: wire grids -> distributed arrays -> service job
//===----------------------------------------------------------------------===//

void Server::handleSubmit(Conn &C, const FrameHeader &H,
                          const uint8_t *Payload) {
  Expected<SubmitView> M = decodeSubmitRequest(Payload, H.PayloadBytes);
  if (!M)
    return sendError(C, H, ErrBadRequest, M.error().message());
  if (Draining.load(std::memory_order_acquire))
    return sendError(C, H, ErrDraining,
                     "server is draining; resubmit elsewhere");

  // Adopt the client-minted trace context for the dispatch itself, so
  // the server's submit span nests under the client's in a merged
  // Perfetto trace; the ids then travel into the service job.
  obs::ScopedTraceContext TraceScope(M->TraceId, M->ParentSpan);
  CMCC_SPAN("server.submit");

  JobRec J;
  J.ConnId = C.Id;
  J.Tenant = H.Tenant;
  J.ResultName = M->ResultName.empty() ? "RESULT" : M->ResultName;

  StencilService::JobRequest Req;
  if (M->Kind > static_cast<uint8_t>(StencilService::SourceKind::Fingerprint))
    return sendError(C, H, ErrBadRequest,
                     "unknown source kind " + std::to_string(M->Kind));
  Req.Kind = static_cast<StencilService::SourceKind>(M->Kind);
  Req.Source = M->Source;
  Req.Fingerprint = M->Fingerprint;
  Req.Tenant = H.Tenant;
  Req.TraceId = M->TraceId;
  Req.ParentSpan = M->ParentSpan;
  Req.Iterations = static_cast<int>(M->Iterations);
  if (Req.Iterations <= 0)
    return sendError(C, H, ErrBadRequest, "iterations must be positive");

  const NodeGrid Grid(Service.machine());
  if (M->Grids.empty()) {
    // Timing-only job.
    if (M->SubRows == 0 || M->SubCols == 0 || M->SubRows > 1u << 16 ||
        M->SubCols > 1u << 16)
      return sendError(C, H, ErrBadRequest, "bad timing-only subgrid shape");
    Req.SubRows = static_cast<int>(M->SubRows);
    Req.SubCols = static_cast<int>(M->SubCols);
  } else {
    if (M->Grids[0].Kind != SubmitView::Role::Source)
      return sendError(C, H, ErrBadRequest,
                       "the first grid must be the source array");
    J.WantResult = true;
    J.Args = std::make_unique<StencilArguments>();
    int SubRows = 0, SubCols = 0;
    for (size_t I = 0; I != M->Grids.size(); ++I) {
      const SubmitView::BoundGrid &B = M->Grids[I];
      const GridView &G = B.Grid;
      if (G.Rows == 0 || G.Cols == 0 ||
          G.Rows % static_cast<uint32_t>(Grid.rows()) != 0 ||
          G.Cols % static_cast<uint32_t>(Grid.cols()) != 0)
        return sendError(C, H, ErrBadRequest,
                         "grid '" + G.Name + "' (" + std::to_string(G.Rows) +
                             "x" + std::to_string(G.Cols) +
                             ") does not decompose over the " +
                             std::to_string(Grid.rows()) + "x" +
                             std::to_string(Grid.cols()) + " node grid");
      // The view holds Rows * Cols checked floats: copy them straight
      // from the frame into the job's array.
      auto A = std::make_unique<DistributedArray>(
          Grid, static_cast<int>(G.Rows) / Grid.rows(),
          static_cast<int>(G.Cols) / Grid.cols(), G.Bytes);
      switch (B.Kind) {
      case SubmitView::Role::Source:
        if (J.Args->Source)
          return sendError(C, H, ErrBadRequest, "duplicate source grid");
        J.Args->Source = A.get();
        SubRows = A->subRows();
        SubCols = A->subCols();
        break;
      case SubmitView::Role::Coefficient:
        J.Args->Coefficients[G.Name] = A.get();
        break;
      case SubmitView::Role::ExtraSource:
        J.Args->ExtraSources[G.Name] = A.get();
        break;
      }
      J.Arrays.push_back(std::move(A));
    }
    auto Result = std::make_unique<DistributedArray>(Grid, SubRows, SubCols);
    J.Args->Result = Result.get();
    J.Arrays.push_back(std::move(Result));
    Req.Args = J.Args.get();
    Req.SubRows = SubRows;
    Req.SubCols = SubCols;
  }

  // The finished callback may fire for this id before submit()
  // returns (a born-rejected job); the queued notification is only
  // consumed by this same thread, so registering the JobRec after
  // submit() and marking it from the queued notification is race-free.
  const StencilService::JobId Id = Service.submit(std::move(Req));
  J.Id = Id;
  Jobs.emplace(Id, std::move(J));

  SubmitResponse R;
  R.JobId = Id;
  reply(C, H, MsgType::SubmitResponse, R);
}

//===----------------------------------------------------------------------===//
// Wait and completion delivery
//===----------------------------------------------------------------------===//

void Server::handleWait(Conn &C, const FrameHeader &H, const WaitRequest &M) {
  auto It = Jobs.find(M.JobId);
  if (It == Jobs.end()) {
    // Not a job this server submitted (or its result was already
    // delivered). Answer the way the service answers a bad id.
    WaitResponse R;
    R.Ok = 0;
    R.Status = static_cast<uint8_t>(StencilService::JobStatus::BadJobId);
    R.Message = "wait on unknown job id " + std::to_string(M.JobId);
    reply(C, H, MsgType::WaitResponse, R);
    return;
  }
  JobRec &J = It->second;
  if (J.Finished) {
    J.WaiterArrivedNs = obs::detail::nowNs();
    deliverResult(C, J, H.RequestId);
    Jobs.erase(It);
    return;
  }
  if (J.HasWaiter)
    return sendError(C, H, ErrBadRequest,
                     "job " + std::to_string(M.JobId) +
                         " already has a waiter");
  J.HasWaiter = true;
  J.WaiterConn = C.Id;
  J.WaiterRequestId = H.RequestId;
  J.WaiterArrivedNs = obs::detail::nowNs();
}

void Server::deliverResult(Conn &C, JobRec &J, uint64_t RequestId) {
  // The job is finished, so this wait() returns without blocking.
  StencilService::JobResult Res = Service.wait(J.Id);
  WaitResponse R;
  R.Ok = Res.Ok ? 1 : 0;
  R.Status = static_cast<uint8_t>(Res.Status);
  R.Message = Res.Message;
  R.Fingerprint = Res.Fingerprint;
  R.CacheHit = Res.CacheHit ? 1 : 0;
  R.Coalesced = Res.Coalesced ? 1 : 0;
  R.CompileSeconds = Res.CompileSeconds;
  R.ExecuteSeconds = Res.ExecuteSeconds;
  R.Retries = static_cast<uint32_t>(Res.Retries);
  R.FellBack = Res.FellBack ? 1 : 0;
  R.setReport(Res.Report);
  const bool WithResult = Res.Ok && J.WantResult && J.Args && J.Args->Result;
  if (WithResult) {
    R.HasResult = 1;
    R.Result.Name = J.ResultName;
  }
  // A result is gathered straight into the reply's payload.
  send(C, MsgType::WaitResponse, RequestId, J.Tenant,
       WithResult ? encode(R, *J.Args->Result) : encode(R));
  if (J.WaiterArrivedNs)
    reqHistogram(MsgType::WaitRequest)
        .observe(static_cast<double>(obs::detail::nowNs() -
                                     J.WaiterArrivedNs) /
                 1000.0);
}

void Server::processFinished() {
  std::deque<StencilService::JobId> Batch;
  {
    std::lock_guard<std::mutex> Lock(FinishedMutex);
    Batch.swap(FinishedQueue);
  }
  for (StencilService::JobId Id : Batch) {
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      continue; // Already delivered (finished-before-wait path).
    JobRec &J = It->second;
    J.Finished = true;
    if (!J.HasWaiter) {
      if (Conns.find(J.ConnId) == Conns.end())
        Jobs.erase(It); // Orphan: submitter gone, discard the result.
      continue;
    }
    auto CIt = Conns.find(J.WaiterConn);
    if (CIt == Conns.end()) {
      J.HasWaiter = false;
      continue;
    }
    const uint64_t WaiterConn = J.WaiterConn;
    deliverResult(CIt->second, J, J.WaiterRequestId);
    Jobs.erase(It);
    if (!writeConn(CIt->second))
      closeConn(WaiterConn);
  }
}
