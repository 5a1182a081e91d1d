//===- tests/net_server_test.cpp - Network front door end to end -*-C++-*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the network front door (DESIGN.md §5h) over real
/// loopback sockets: a Server bridging a StencilService, talked to by
/// the Client library. The core contract under test is transparency —
/// a job served over the wire returns bitwise what the same job returns
/// in process (timing reports and result grids alike) — plus the
/// multi-tenant admission story, cancel, graceful drain, bounded
/// accept, and survival of malformed traffic.
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "service/StencilService.h"
#include "support/FaultInjection.h"
#include <cstring>
#include <filesystem>
#include <gtest/gtest.h>
#include <memory>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace cmcc;
using cmcc::net::decodeErrorResponse;
using cmcc::net::decodeFrameHeader;
using cmcc::net::decodeSubmitResponse;
using cmcc::net::decodeWaitResponse;

namespace {

constexpr const char *CrossSource = "R = C1*CSHIFT(X,1,-1) + C2*X";

MachineConfig machine() { return MachineConfig::withNodeGrid(2, 2); }

/// A unique, short (sun_path is 108 bytes) socket path per call.
std::string socketPath() {
  static int Counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("cmcc_net_t" + std::to_string(::getpid()) + "_" +
           std::to_string(++Counter) + ".sock"))
      .string();
}

/// Server counters are published once per event-loop iteration, so a
/// client can observe an effect (EOF, a response frame) a beat before
/// the totals land. Poll until the predicate holds or 2 s pass.
template <typename Pred>
net::Server::Counters waitForCounters(const net::Server &S, Pred Want) {
  net::Server::Counters C = S.counters();
  for (int I = 0; I < 200 && !Want(C); ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    C = S.counters();
  }
  return C;
}

/// One service + one server on a fresh unix socket.
struct Harness {
  MachineConfig M = machine();
  std::unique_ptr<StencilService> Service;
  std::unique_ptr<net::Server> Server;
  net::Endpoint Ep;

  explicit Harness(StencilService::Options SOpts = {},
                   net::Server::Options NOpts = {}) {
    Service = std::make_unique<StencilService>(M, SOpts);
    Ep.Transport = net::Endpoint::Kind::Unix;
    Ep.Path = socketPath();
    NOpts.Listen.push_back(Ep);
    NOpts.Banner = "net_server_test";
    Server = std::make_unique<net::Server>(*Service, NOpts);
    Error E = Server->start();
    EXPECT_FALSE(E) << E.message();
  }

  ~Harness() {
    Server->stop();
    std::filesystem::remove(Ep.Path);
  }

  std::unique_ptr<net::Client> client(uint32_t Tenant = 0) {
    net::Client::Options Opts;
    Opts.Target = Ep;
    Opts.Tenant = Tenant;
    Expected<std::unique_ptr<net::Client>> C = net::Client::connect(Opts);
    EXPECT_TRUE(C) << (C ? "" : C.error().message());
    return C ? C.takeValue() : nullptr;
  }
};

/// The wire form of a functional cross-stencil job: global source plus
/// the two coefficient grids, all deterministically seeded.
net::SubmitRequest dataJob(const Harness &H, int Sub, uint64_t Seed,
                           int Iterations = 1) {
  const int Rows = Sub * H.M.NodeRows, Cols = Sub * H.M.NodeCols;
  net::SubmitRequest Req;
  Req.Kind = static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
  Req.Source = CrossSource;
  Req.Iterations = static_cast<uint32_t>(Iterations);
  Req.ResultName = "R";
  auto AddGrid = [&](const char *Name, net::SubmitRequest::Role Role,
                     uint64_t S) {
    net::SubmitRequest::BoundGrid B;
    B.Kind = Role;
    B.Grid.Name = Name;
    B.Grid.Rows = static_cast<uint32_t>(Rows);
    B.Grid.Cols = static_cast<uint32_t>(Cols);
    Array2D G(Rows, Cols);
    G.fillRandom(S);
    B.Grid.Data.assign(G.data(), G.data() + static_cast<size_t>(Rows) * Cols);
    Req.Grids.push_back(std::move(B));
  };
  AddGrid("X", net::SubmitRequest::Role::Source, Seed);
  AddGrid("C1", net::SubmitRequest::Role::Coefficient, Seed + 1000);
  AddGrid("C2", net::SubmitRequest::Role::Coefficient, Seed + 1001);
  return Req;
}

/// The same job run in process against its own service; returns the
/// gathered result.
Array2D dataJobInProcess(const MachineConfig &M, int Sub, uint64_t Seed,
                         int Iterations = 1) {
  StencilService Service(M, {});
  NodeGrid Grid(M);
  DistributedArray Result(Grid, Sub, Sub), Source(Grid, Sub, Sub);
  DistributedArray C1(Grid, Sub, Sub), C2(Grid, Sub, Sub);
  const int Rows = Result.globalRows(), Cols = Result.globalCols();
  auto Scatter = [&](DistributedArray &A, uint64_t S) {
    Array2D G(Rows, Cols);
    G.fillRandom(S);
    A.scatter(G);
  };
  Scatter(Source, Seed);
  Scatter(C1, Seed + 1000);
  Scatter(C2, Seed + 1001);
  StencilArguments Args;
  Args.Result = &Result;
  Args.Source = &Source;
  Args.Coefficients["C1"] = &C1;
  Args.Coefficients["C2"] = &C2;
  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = CrossSource;
  Req.Args = &Args;
  Req.Iterations = Iterations;
  StencilService::JobResult R = Service.wait(Service.submit(Req));
  EXPECT_TRUE(R.Ok) << R.Message;
  return Result.gather();
}

fault::Rule delayRule(const char *Site, long DelayMs, long MaxFires) {
  fault::Rule R;
  R.Site = Site;
  R.Rate = 1.0;
  R.MaxFires = MaxFires;
  R.Kind = fault::Action::Delay;
  R.DelayMs = DelayMs;
  return R;
}

/// A bare unix-socket connection to \p Path, for frames the Client never
/// sends (broken framing, other protocol versions). -1 on failure.
int rawConnect(const std::string &Path) {
  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

class NetServerTest : public ::testing::Test {
protected:
  void SetUp() override { fault::Registry::process().reset(); }
  void TearDown() override { fault::Registry::process().reset(); }
};

} // namespace

TEST_F(NetServerTest, HelloReportsVersionBannerAndMachine) {
  Harness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  Expected<net::HelloResponse> R = C->hello("test");
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ(R->Version, net::ProtocolVersion);
  EXPECT_EQ(R->Banner, "net_server_test");
  EXPECT_EQ(R->Machine, H.M.summary());
}

TEST_F(NetServerTest, TimingJobOverWireMatchesInProcessBitwise) {
  Harness H;
  auto C = H.client();
  ASSERT_TRUE(C);

  net::SubmitRequest Req;
  Req.Kind = static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
  Req.Source = CrossSource;
  Req.SubRows = 16;
  Req.SubCols = 32;
  Req.Iterations = 50;
  Expected<net::SubmitResponse> S = C->submit(Req);
  ASSERT_TRUE(S) << S.error().message();
  Expected<net::WaitResponse> W = C->wait(S->JobId);
  ASSERT_TRUE(W) << W.error().message();
  ASSERT_TRUE(W->Ok) << W->Message;
  EXPECT_FALSE(W->HasResult); // Timing-only: no grids crossed the wire.

  // The identical job in process. Simulated cm2 timing is a pure
  // function of the plan and shape, so every cycle count and both
  // derived rates must agree exactly — the wire adds nothing, loses
  // nothing.
  StencilService Local(H.M, {});
  StencilService::JobRequest LReq;
  LReq.Kind = StencilService::SourceKind::FortranAssignment;
  LReq.Source = CrossSource;
  LReq.SubRows = 16;
  LReq.SubCols = 32;
  LReq.Iterations = 50;
  StencilService::JobResult LR = Local.wait(Local.submit(LReq));
  ASSERT_TRUE(LR.Ok) << LR.Message;

  EXPECT_EQ(W->Fingerprint, LR.Fingerprint);
  const TimingReport Wire = W->report(), Proc = LR.Report;
  EXPECT_EQ(Wire.Cycles.Compute, Proc.Cycles.Compute);
  EXPECT_EQ(Wire.Cycles.PipeReversal, Proc.Cycles.PipeReversal);
  EXPECT_EQ(Wire.Cycles.LineOverhead, Proc.Cycles.LineOverhead);
  EXPECT_EQ(Wire.Cycles.StripStartup, Proc.Cycles.StripStartup);
  EXPECT_EQ(Wire.Cycles.Communication, Proc.Cycles.Communication);
  EXPECT_EQ(Wire.elapsedSeconds(), Proc.elapsedSeconds());
  EXPECT_EQ(Wire.measuredMflops(), Proc.measuredMflops());
}

TEST_F(NetServerTest, DataJobOverWireMatchesInProcessBitwise) {
  Harness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  constexpr int Sub = 8;
  constexpr uint64_t Seed = 4242;

  Expected<net::SubmitResponse> S = C->submit(dataJob(H, Sub, Seed));
  ASSERT_TRUE(S) << S.error().message();
  Expected<net::WaitResponse> W = C->wait(S->JobId);
  ASSERT_TRUE(W) << W.error().message();
  ASSERT_TRUE(W->Ok) << W->Message;
  ASSERT_TRUE(W->HasResult);
  EXPECT_EQ(W->Result.Name, "R");

  const Array2D Local = dataJobInProcess(H.M, Sub, Seed);
  ASSERT_EQ(W->Result.Rows, static_cast<uint32_t>(Local.rows()));
  ASSERT_EQ(W->Result.Cols, static_cast<uint32_t>(Local.cols()));
  // Bitwise: raw IEEE floats over the wire, checksummed, equal to the
  // in-process gather byte for byte.
  EXPECT_EQ(std::memcmp(W->Result.Data.data(), Local.data(),
                        W->Result.Data.size() * sizeof(float)),
            0);
}

TEST_F(NetServerTest, TenantOverQuotaIsRejectedWhileOthersProceed) {
  StencilService::Options SOpts;
  SOpts.Workers = 1;
  SOpts.TenantQuotas[7] = {/*MaxInFlight=*/1, /*MaxQueued=*/0};
  Harness H(SOpts);

  // Hold the greedy tenant's first job in execution long enough to
  // prove the quota math runs against live in-flight state.
  fault::Registry &Reg = fault::Registry::process();
  Reg.reset();
  Reg.arm(delayRule("backend.cm2.run", /*DelayMs=*/700, /*MaxFires=*/1));

  auto Greedy = H.client(/*Tenant=*/7);
  auto Modest = H.client(/*Tenant=*/8);
  ASSERT_TRUE(Greedy && Modest);

  net::SubmitRequest Job;
  Job.Kind = static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
  Job.Source = CrossSource;
  Job.Iterations = 1;

  Expected<net::SubmitResponse> First = Greedy->submit(Job);
  ASSERT_TRUE(First) << First.error().message();
  // While the first is in flight, the second exceeds MaxInFlight=1 and
  // must be rejected at admission — a definite QueueFull answer, not a
  // block, so the greedy tenant cannot starve the queue.
  Expected<net::SubmitResponse> Second = Greedy->submit(Job);
  ASSERT_TRUE(Second) << Second.error().message();
  Expected<net::WaitResponse> SecondResult = Greedy->wait(Second->JobId);
  ASSERT_TRUE(SecondResult) << SecondResult.error().message();
  EXPECT_FALSE(SecondResult->Ok);
  EXPECT_EQ(static_cast<StencilService::JobStatus>(SecondResult->Status),
            StencilService::JobStatus::QueueFull);

  // The modest tenant is not collateral damage.
  Expected<net::SubmitResponse> Other = Modest->submit(Job);
  ASSERT_TRUE(Other) << Other.error().message();
  Expected<net::WaitResponse> OtherResult = Modest->wait(Other->JobId);
  ASSERT_TRUE(OtherResult) << OtherResult.error().message();
  EXPECT_TRUE(OtherResult->Ok) << OtherResult->Message;

  Expected<net::WaitResponse> FirstResult = Greedy->wait(First->JobId);
  ASSERT_TRUE(FirstResult) << FirstResult.error().message();
  EXPECT_TRUE(FirstResult->Ok) << FirstResult->Message;

  // The rejection is counted against the right tenant in the stats
  // that ship over the wire.
  ServiceStats Stats = H.Service->stats();
  bool Saw7 = false, Saw8 = false;
  for (const ServiceStats::TenantRow &T : Stats.Tenants) {
    if (T.Tenant == 7) {
      Saw7 = true;
      EXPECT_EQ(T.Rejected, 1);
      EXPECT_EQ(T.Completed, 1);
    }
    if (T.Tenant == 8) {
      Saw8 = true;
      EXPECT_EQ(T.Rejected, 0);
      EXPECT_EQ(T.Completed, 1);
    }
  }
  EXPECT_TRUE(Saw7);
  EXPECT_TRUE(Saw8);
}

TEST_F(NetServerTest, CancelOverTheWire) {
  StencilService::Options SOpts;
  SOpts.Workers = 1;
  Harness H(SOpts);
  fault::Registry &Reg = fault::Registry::process();
  Reg.reset();
  Reg.arm(delayRule("backend.cm2.run", /*DelayMs=*/500, /*MaxFires=*/1));

  auto C = H.client();
  ASSERT_TRUE(C);
  net::SubmitRequest Job;
  Job.Kind = static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
  Job.Source = CrossSource;

  // First job occupies the single worker; the second sits in the queue
  // where cancel() can still reach it.
  Expected<net::SubmitResponse> Busy = C->submit(Job);
  ASSERT_TRUE(Busy) << Busy.error().message();
  Expected<net::SubmitResponse> Queued = C->submit(Job);
  ASSERT_TRUE(Queued) << Queued.error().message();

  Expected<net::CancelResponse> Cancelled = C->cancel(Queued->JobId);
  ASSERT_TRUE(Cancelled) << Cancelled.error().message();
  EXPECT_TRUE(Cancelled->Cancelled);

  Expected<net::WaitResponse> W = C->wait(Queued->JobId);
  ASSERT_TRUE(W) << W.error().message();
  EXPECT_FALSE(W->Ok);
  EXPECT_EQ(static_cast<StencilService::JobStatus>(W->Status),
            StencilService::JobStatus::Cancelled);

  Expected<net::WaitResponse> BusyResult = C->wait(Busy->JobId);
  ASSERT_TRUE(BusyResult) << BusyResult.error().message();
  EXPECT_TRUE(BusyResult->Ok) << BusyResult->Message;
}

TEST_F(NetServerTest, MalformedPayloadAnsweredAndConnectionSurvives) {
  Harness H;
  auto C = H.client();
  ASSERT_TRUE(C);

  // A valid frame whose SubmitRequest payload is garbage: the server
  // answers ErrorResponse and keeps the connection serving.
  std::vector<uint8_t> Garbage = {0xde, 0xad, 0xbe, 0xef};
  const uint64_t Id = C->nextRequestId();
  ASSERT_FALSE(C->sendRequest(net::MsgType::SubmitRequest, Id, Garbage));
  Expected<net::Client::RawResponse> R = C->receive();
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ(R->Header.Type, net::MsgType::ErrorResponse);
  EXPECT_EQ(R->Header.RequestId, Id);
  Expected<net::ErrorResponse> E =
      decodeErrorResponse(R->Payload.data(), R->Payload.size());
  ASSERT_TRUE(E);
  EXPECT_EQ(E->Code, net::ErrBadRequest);

  // Same connection, next request: still served.
  Expected<net::HelloResponse> Hello = C->hello("still-alive");
  EXPECT_TRUE(Hello) << (Hello ? "" : Hello.error().message());

  net::Server::Counters Counters = H.Server->counters();
  EXPECT_GE(Counters.DecodeErrors, 1);
}

TEST_F(NetServerTest, CorruptGridRefusedBeforeAnyJobExists) {
  // The server copies a grid out of the frame only once its CRC32C has
  // matched. One flipped byte of the source grid's floats is refused
  // with ErrBadRequest, no job reaches the service, and the connection
  // then serves a good job.
  Harness H;
  auto C = H.client();
  ASSERT_TRUE(C);
  constexpr int Sub = 8;
  constexpr uint64_t Seed = 77;
  const net::SubmitRequest Good = dataJob(H, Sub, Seed);
  std::vector<uint8_t> Bad = net::encode(Good);
  // The first grid's floats follow the job fields, the grid count, its
  // role byte, its name and its rows, cols and float count.
  const size_t FirstFloat = 1 + 4 + Good.Source.size() + 8 + 3 * 4 + 4 +
                            Good.ResultName.size() + 4 + 1 + 4 +
                            Good.Grids[0].Grid.Name.size() + 3 * 4;
  float First;
  std::memcpy(&First, Bad.data() + FirstFloat, sizeof(First));
  ASSERT_EQ(First, Good.Grids[0].Grid.Data[0]);
  Bad[FirstFloat + 2] ^= 0x10;

  const long SubmittedBefore = H.Service->stats().JobsSubmitted;
  const uint64_t Id = C->nextRequestId();
  ASSERT_FALSE(C->sendRequest(net::MsgType::SubmitRequest, Id, Bad));
  Expected<net::Client::RawResponse> R = C->receive();
  ASSERT_TRUE(R) << R.error().message();
  EXPECT_EQ(R->Header.Type, net::MsgType::ErrorResponse);
  EXPECT_EQ(R->Header.RequestId, Id);
  Expected<net::ErrorResponse> E =
      decodeErrorResponse(R->Payload.data(), R->Payload.size());
  ASSERT_TRUE(E);
  EXPECT_EQ(E->Code, net::ErrBadRequest);
  EXPECT_EQ(H.Service->stats().JobsSubmitted, SubmittedBefore);

  Expected<net::SubmitResponse> S = C->submit(Good);
  ASSERT_TRUE(S) << S.error().message();
  Expected<net::WaitResponse> W = C->wait(S->JobId);
  ASSERT_TRUE(W) << W.error().message();
  ASSERT_TRUE(W->Ok) << W->Message;
  ASSERT_TRUE(W->HasResult);
  EXPECT_EQ(H.Service->stats().JobsSubmitted, SubmittedBefore + 1);
  const Array2D Local = dataJobInProcess(H.M, Sub, Seed);
  ASSERT_EQ(W->Result.Data.size(),
            static_cast<size_t>(Local.rows()) * Local.cols());
  EXPECT_EQ(std::memcmp(W->Result.Data.data(), Local.data(),
                        W->Result.Data.size() * sizeof(float)),
            0);
}

TEST_F(NetServerTest, BrokenFramingClosesThatConnectionOnly) {
  Harness H;
  // Each vandal gets exactly one ErrorResponse, at the current version,
  // then EOF, because there is no way to resynchronize a byte stream
  // with broken framing. 28 bytes of 0xFF are a hopeless header; a
  // well-formed frame of any other protocol version is refused the same
  // way, never translated.
  struct Vandal {
    std::vector<uint8_t> Bytes;
    std::string Want; ///< Text the error must contain.
  };
  std::vector<Vandal> Vandals = {
      {std::vector<uint8_t>(net::FrameHeaderBytes, 0xFF), "magic"}};
  for (uint16_t V : {1, 2, 4}) {
    const std::vector<uint8_t> Payload = encode(net::HelloRequest{"old"});
    net::FrameHeader Hdr;
    Hdr.Version = V;
    Hdr.Type = net::MsgType::HelloRequest;
    Hdr.PayloadBytes = static_cast<uint32_t>(Payload.size());
    std::vector<uint8_t> Frame(net::FrameHeaderBytes);
    net::encodeFrameHeader(Hdr, Frame.data());
    Frame.insert(Frame.end(), Payload.begin(), Payload.end());
    Vandals.push_back({Frame, "version " + std::to_string(V)});
  }
  for (const Vandal &Vd : Vandals) {
    SCOPED_TRACE(Vd.Want);
    const int Fd = rawConnect(H.Ep.Path);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(::send(Fd, Vd.Bytes.data(), Vd.Bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Vd.Bytes.size()));
    std::vector<uint8_t> Answer;
    uint8_t Buf[512];
    ssize_t N;
    while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
      Answer.insert(Answer.end(), Buf, Buf + N);
    ::close(Fd);
    Expected<net::FrameHeader> Hdr =
        decodeFrameHeader(Answer.data(), Answer.size());
    ASSERT_TRUE(Hdr) << Hdr.error().message();
    EXPECT_EQ(Hdr->Version, net::ProtocolVersion);
    EXPECT_EQ(Hdr->Type, net::MsgType::ErrorResponse);
    ASSERT_EQ(Answer.size(), net::FrameHeaderBytes + Hdr->PayloadBytes);
    Expected<net::ErrorResponse> E = decodeErrorResponse(
        Answer.data() + net::FrameHeaderBytes, Hdr->PayloadBytes);
    ASSERT_TRUE(E);
    EXPECT_EQ(E->Code, net::ErrBadRequest);
    EXPECT_NE(E->Message.find(Vd.Want), std::string::npos) << E->Message;
  }

  // The server shrugged them off: a well-behaved client still works.
  auto C = H.client();
  ASSERT_TRUE(C);
  EXPECT_TRUE(C->hello("after-vandal"));
  const long Vandalised = static_cast<long>(Vandals.size());
  EXPECT_EQ(waitForCounters(*H.Server,
                            [&](const net::Server::Counters &Now) {
                              return Now.ProtocolErrors >= Vandalised;
                            })
                .ProtocolErrors,
            Vandalised);
}

TEST_F(NetServerTest, DrainServesInFlightAndRejectsNewSubmits) {
  StencilService::Options SOpts;
  SOpts.Workers = 1;
  Harness H(SOpts);
  fault::Registry &Reg = fault::Registry::process();
  Reg.reset();
  Reg.arm(delayRule("backend.cm2.run", /*DelayMs=*/500, /*MaxFires=*/1));

  auto C = H.client();
  ASSERT_TRUE(C);
  net::SubmitRequest Job;
  Job.Kind = static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
  Job.Source = CrossSource;

  // Pipeline on the raw primitives: submit, get the id, park a wait,
  // then drain, then try another submit on the same connection.
  const uint64_t SubmitId = C->nextRequestId();
  ASSERT_FALSE(C->sendRequest(net::MsgType::SubmitRequest, SubmitId,
                              encode(Job)));
  Expected<net::Client::RawResponse> SubmitR = C->receive();
  ASSERT_TRUE(SubmitR) << SubmitR.error().message();
  ASSERT_EQ(SubmitR->Header.Type, net::MsgType::SubmitResponse);
  Expected<net::SubmitResponse> S =
      decodeSubmitResponse(SubmitR->Payload.data(), SubmitR->Payload.size());
  ASSERT_TRUE(S);

  net::WaitRequest WReq;
  WReq.JobId = S->JobId;
  const uint64_t WaitId = C->nextRequestId();
  ASSERT_FALSE(C->sendRequest(net::MsgType::WaitRequest, WaitId,
                              encode(WReq)));

  H.Server->requestDrain();
  // Give the drain a moment to take effect before the late submit.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t LateId = C->nextRequestId();
  ASSERT_FALSE(C->sendRequest(net::MsgType::SubmitRequest, LateId,
                              encode(Job)));

  // Two frames are owed: the parked wait's result (the in-flight job
  // is served to completion) and an ErrDraining for the late submit.
  bool SawResult = false, SawDraining = false;
  for (int I = 0; I != 2; ++I) {
    Expected<net::Client::RawResponse> R = C->receive();
    ASSERT_TRUE(R) << R.error().message();
    if (R->Header.RequestId == WaitId) {
      ASSERT_EQ(R->Header.Type, net::MsgType::WaitResponse);
      Expected<net::WaitResponse> W =
          decodeWaitResponse(R->Payload.data(), R->Payload.size());
      ASSERT_TRUE(W);
      EXPECT_TRUE(W->Ok) << W->Message;
      SawResult = true;
    } else if (R->Header.RequestId == LateId) {
      ASSERT_EQ(R->Header.Type, net::MsgType::ErrorResponse);
      Expected<net::ErrorResponse> E =
          decodeErrorResponse(R->Payload.data(), R->Payload.size());
      ASSERT_TRUE(E);
      EXPECT_EQ(E->Code, net::ErrDraining);
      SawDraining = true;
    }
  }
  EXPECT_TRUE(SawResult);
  EXPECT_TRUE(SawDraining);

  // With the job served and buffers flushed the loop must exit by
  // itself — drain means done, not "until stop() shoots it".
  for (int I = 0; I != 200 && !H.Server->finished(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(H.Server->finished());
}

TEST_F(NetServerTest, ConnectionCapShedsExcessAccepts) {
  net::Server::Options NOpts;
  NOpts.MaxConnections = 2;
  Harness H({}, NOpts);

  auto A = H.client();
  auto B = H.client();
  ASSERT_TRUE(A && B);
  // Hello round trips prove both are fully accepted before the third
  // arrives.
  ASSERT_TRUE(A->hello("a"));
  ASSERT_TRUE(B->hello("b"));

  // The third connect() succeeds at the kernel (listen backlog) but the
  // server closes it on accept: the first read sees EOF.
  auto Shed = H.client();
  ASSERT_TRUE(Shed);
  Expected<net::HelloResponse> R = Shed->hello("c");
  EXPECT_FALSE(R);

  net::Server::Counters Counters = waitForCounters(
      *H.Server, [](const net::Server::Counters &C) {
        return C.RejectedOverload >= 1;
      });
  EXPECT_EQ(Counters.RejectedOverload, 1);
  EXPECT_EQ(Counters.Accepted, 2);
}

TEST_F(NetServerTest, CountersFlowIntoProcessObsRegistry) {
  const long FramesBefore =
      obs::Registry::process().counter("net.frames_in").value();
  Harness H;
  auto C = H.client();
  ASSERT_TRUE(C);

  // The frame-size histograms count header plus payload of every frame.
  obs::Registry &Reg = obs::Registry::process();
  obs::Histogram &In =
      Reg.histogram("net.frame_bytes_in", obs::Histogram::byteBounds());
  obs::Histogram &Out =
      Reg.histogram("net.frame_bytes_out", obs::Histogram::byteBounds());
  const double InBefore = In.sum(), OutBefore = Out.sum();
  const std::vector<uint8_t> Hello = encode(net::HelloRequest{"obs"});
  ASSERT_FALSE(
      C->sendRequest(net::MsgType::HelloRequest, C->nextRequestId(), Hello));
  Expected<net::Client::RawResponse> Answer = C->receive();
  ASSERT_TRUE(Answer) << Answer.error().message();
  ASSERT_EQ(Answer->Header.Type, net::MsgType::HelloResponse);
  EXPECT_EQ(In.sum() - InBefore,
            static_cast<double>(net::FrameHeaderBytes + Hello.size()));
  EXPECT_EQ(Out.sum() - OutBefore,
            static_cast<double>(net::FrameHeaderBytes +
                                Answer->Payload.size()));

  Expected<net::StatsResponse> Stats = C->stats();
  ASSERT_TRUE(Stats) << Stats.error().message();
  EXPECT_NE(Stats->Json.find("jobs_submitted"), std::string::npos);

  net::Server::Counters Counters = waitForCounters(
      *H.Server, [](const net::Server::Counters &C) {
        return C.FramesIn >= 2 && C.FramesOut >= 2;
      });
  EXPECT_GE(Counters.FramesIn, 2);
  EXPECT_GE(Counters.FramesOut, 2);
  EXPECT_EQ(Counters.Accepted, 1);

  // The same numbers feed the process-wide obs registry, where
  // --metrics-json picks them up.
  C.reset();
  H.Server->stop();
  EXPECT_GE(obs::Registry::process().counter("net.frames_in").value(),
            FramesBefore + 2);
}
