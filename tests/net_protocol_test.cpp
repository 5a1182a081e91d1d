//===- tests/net_protocol_test.cpp - Wire-codec robustness ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decode half of the network protocol is the part of the system a
/// hostile or broken peer talks to directly, so it gets the harshest
/// contract in the repo (net/Wire.h): any byte stream — truncated,
/// bit-flipped, random — must produce a clean decode failure or a valid
/// message, never a crash, never an over-read, never an allocation
/// sized by an unvalidated length. These tests sweep that contract:
/// round trips for every message, every truncation prefix, single-byte
/// corruption across entire frames, and random-byte storms through
/// every decoder.
///
//===----------------------------------------------------------------------===//

#include "net/Protocol.h"
#include "net/Wire.h"
#include "support/Fnv1a.h"
#include "support/Random.h"
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cmcc;
using namespace cmcc::net;

namespace {

/// A representative instance of every message, with every field off its
/// default so round trips actually prove the codecs move the bytes.
HelloRequest sampleHelloRequest() {
  HelloRequest M;
  M.ClientName = "net_protocol_test";
  return M;
}

HelloResponse sampleHelloResponse() {
  HelloResponse M;
  M.Banner = "gcc 0.0; flags: -Otest";
  M.Machine = "16 nodes (4x4)";
  return M;
}

GridPayload sampleGrid(const char *Name, uint32_t Rows, uint32_t Cols,
                       uint64_t Seed) {
  GridPayload G;
  G.Name = Name;
  G.Rows = Rows;
  G.Cols = Cols;
  SplitMix64 R(Seed);
  G.Data.resize(static_cast<size_t>(Rows) * Cols);
  for (float &F : G.Data)
    F = static_cast<float>(R.nextBelow(1000)) / 500.0f - 1.0f;
  return G;
}

SubmitRequest sampleSubmitRequest() {
  SubmitRequest M;
  M.Kind = 1;
  M.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  M.Fingerprint = 0xdeadbeefcafef00dull;
  M.SubRows = 8;
  M.SubCols = 16;
  M.Iterations = 3;
  M.ResultName = "R";
  SubmitRequest::BoundGrid Src;
  Src.Kind = SubmitRequest::Role::Source;
  Src.Grid = sampleGrid("X", 16, 32, 1);
  M.Grids.push_back(std::move(Src));
  SubmitRequest::BoundGrid Coeff;
  Coeff.Kind = SubmitRequest::Role::Coefficient;
  Coeff.Grid = sampleGrid("C1", 16, 32, 2);
  M.Grids.push_back(std::move(Coeff));
  return M;
}

WaitResponse sampleWaitResponse() {
  WaitResponse M;
  M.Ok = 1;
  M.Status = 0;
  M.Fingerprint = 0x123456789abcdef0ull;
  M.CacheHit = 1;
  M.CompileSeconds = 0.125;
  M.ExecuteSeconds = 2.5;
  M.Retries = 2;
  M.FellBack = 1;
  M.CyclesCompute = 7777;
  M.CyclesPipeReversal = 11;
  M.CyclesLineOverhead = 22;
  M.CyclesStripStartup = 33;
  M.CyclesCommunication = 44;
  M.UsefulFlopsPerNodePerIteration = 1234;
  M.Iterations = 100;
  M.HostSecondsPerIteration = 0.001;
  M.Nodes = 16;
  M.ClockMHz = 7.0;
  M.HasResult = 1;
  M.Result = sampleGrid("R", 8, 8, 3);
  return M;
}

StatsResponse sampleStatsResponse() {
  StatsResponse M;
  M.Json = "{\"jobs_submitted\": 3}";
  M.Table = "jobs submitted    3\n";
  M.NetJson = "{\"net.req_us.submit\": {\"count\": 4}}";
  M.NetTable = "net.req_us.submit  p50 12us\n";
  return M;
}

ErrorResponse sampleErrorResponse() {
  ErrorResponse M;
  M.Code = ErrBadRequest;
  M.Message = "that was not a frame";
  return M;
}

/// One message kind for the sweeps: a valid sample payload with every
/// field off its default, and its decoder behind a uniform signature.
struct AnyMessage {
  std::vector<uint8_t> Sample;
  bool (*Decode)(const uint8_t *, size_t);
};

template <auto DecodeFn, typename Msg> AnyMessage message(const Msg &M) {
  return {encode(M),
          [](const uint8_t *D, size_t N) { return !!DecodeFn(D, N); }};
}

/// Every message the protocol defines, so sweeps can storm all decoders
/// with the same bytes and cut every sample short.
const std::vector<AnyMessage> &allMessages() {
  static const std::vector<AnyMessage> All = [] {
    SubmitResponse Submitted;
    Submitted.JobId = -12345;
    PollRequest Poll;
    Poll.JobId = 77;
    PollResponse Polled;
    Polled.State = 3;
    WaitRequest Wait;
    Wait.JobId = 78;
    CancelRequest Cancel;
    Cancel.JobId = 79;
    CancelResponse Cancelled;
    Cancelled.Cancelled = 1;
    TimelineRequest Timeline;
    Timeline.JobId = 4242;
    TimelineResponse Timed;
    Timed.Found = 1;
    Timed.Json = "{\"id\": 4242, \"events\": []}";
    DumpResponse Dumped;
    Dumped.Json = "{\"events\": [{\"kind\": \"server_start\"}]}";
    SubmitRequest Traced = sampleSubmitRequest();
    Traced.TraceId = 0x0123456789abcdefull;
    Traced.ParentSpan = 0xfedcba9876543210ull;
    return std::vector<AnyMessage>{
        message<decodeHelloRequest>(sampleHelloRequest()),
        message<decodeHelloResponse>(sampleHelloResponse()),
        message<decodeSubmitRequest>(Traced),
        message<decodeSubmitResponse>(Submitted),
        message<decodePollRequest>(Poll),
        message<decodePollResponse>(Polled),
        message<decodeWaitRequest>(Wait),
        message<decodeWaitResponse>(sampleWaitResponse()),
        message<decodeCancelRequest>(Cancel),
        message<decodeCancelResponse>(Cancelled),
        message<decodeStatsRequest>(StatsRequest{}),
        message<decodeStatsResponse>(sampleStatsResponse()),
        message<decodeErrorResponse>(sampleErrorResponse()),
        message<decodeTimelineRequest>(Timeline),
        message<decodeTimelineResponse>(Timed),
        message<decodeDumpRequest>(DumpRequest{}),
        message<decodeDumpResponse>(Dumped),
    };
  }();
  return All;
}

/// The float block of \p G encoded by encodeGrid: its offset after the
/// name (u32 length + bytes), rows, cols and count, and its length.
size_t floatsStart(const GridPayload &G) { return 4 + G.Name.size() + 12; }
size_t floatsBytes(const GridPayload &G) {
  return G.Data.size() * sizeof(float);
}

/// True when \p Bytes decode as one whole grid.
bool gridDecodes(const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes.data(), Bytes.size());
  GridPayload Out;
  return decodeGrid(R, Out) && R.exhausted();
}

std::vector<uint8_t> encodedGrid(const GridPayload &G) {
  ByteWriter W;
  encodeGrid(W, G);
  return W.take();
}

/// Flips bit \p Bit of \p Bytes, counting from bit 0 of byte \p At and
/// least significant bit first: the order in which a reflected CRC
/// consumes them, so a burst here is a burst to the CRC.
void flipBit(std::vector<uint8_t> &Bytes, size_t At, size_t Bit) {
  Bytes[At + Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
}

/// Flips a burst of \p Len bits starting at bit \p First: its end bits
/// always, each inner bit when the matching bit of \p Inner is set.
void flipBurst(std::vector<uint8_t> &Bytes, size_t At, size_t First,
               size_t Len, uint32_t Inner) {
  flipBit(Bytes, At, First);
  for (size_t I = 1; I + 1 < Len; ++I)
    if (Inner >> I & 1u)
      flipBit(Bytes, At, First + I);
  if (Len > 1)
    flipBit(Bytes, At, First + Len - 1);
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame header
//===----------------------------------------------------------------------===//

TEST(NetWireTest, FrameHeaderRoundTrip) {
  FrameHeader H;
  H.Type = MsgType::SubmitRequest;
  H.Tenant = 42;
  H.RequestId = 0x1122334455667788ull;
  H.PayloadBytes = 1000;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> Back = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Version, ProtocolVersion);
  EXPECT_EQ(Back->Type, MsgType::SubmitRequest);
  EXPECT_EQ(Back->Tenant, 42u);
  EXPECT_EQ(Back->RequestId, 0x1122334455667788ull);
  EXPECT_EQ(Back->PayloadBytes, 1000u);
}

TEST(NetWireTest, FrameHeaderRejectsEveryTruncation) {
  FrameHeader H;
  H.Type = MsgType::HelloRequest;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  for (size_t Len = 0; Len != FrameHeaderBytes; ++Len)
    EXPECT_FALSE(decodeFrameHeader(Buf, Len)) << "length " << Len;
}

TEST(NetWireTest, FrameHeaderRejectsEverySingleByteFlip) {
  // The checksum covers bytes [0, 24) and the flip of a checksum byte
  // breaks the comparison itself, so *every* single-byte corruption of
  // a valid header must be rejected.
  FrameHeader H;
  H.Type = MsgType::WaitRequest;
  H.Tenant = 7;
  H.RequestId = 99;
  H.PayloadBytes = 16;
  uint8_t Good[FrameHeaderBytes];
  encodeFrameHeader(H, Good);
  for (size_t I = 0; I != FrameHeaderBytes; ++I) {
    uint8_t Bad[FrameHeaderBytes];
    std::memcpy(Bad, Good, sizeof(Good));
    Bad[I] ^= 0x5A;
    EXPECT_FALSE(decodeFrameHeader(Bad, sizeof(Bad))) << "byte " << I;
  }
}

TEST(NetWireTest, FrameHeaderRejectsWrongVersionAndUnknownType) {
  // Flipping bytes in place trips the checksum first, so wrong-version
  // and unknown-type headers are built whole (valid checksum) to prove
  // their own checks fire. Every version but the current one is
  // refused, older ones included: there is no compatibility window.
  static_assert(ProtocolVersion == 3, "update the refused versions");
  FrameHeader H;
  H.Type = MsgType::HelloRequest;
  uint8_t Buf[FrameHeaderBytes];
  for (uint16_t V : {0, 1, 2, 4}) {
    H.Version = V;
    encodeFrameHeader(H, Buf);
    Expected<FrameHeader> R = decodeFrameHeader(Buf, sizeof(Buf));
    ASSERT_FALSE(R) << "version " << V;
    EXPECT_NE(R.error().message().find("version " + std::to_string(V)),
              std::string::npos)
        << R.error().message();
  }

  H.Version = ProtocolVersion;
  H.Type = static_cast<MsgType>(999);
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> R = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("type"), std::string::npos);
}

TEST(NetWireTest, FrameHeaderRejectsOversizedPayloadLength) {
  // A header honestly declaring a payload past the cap must be refused
  // before anything trusts the length — this is the anti-balloon check.
  FrameHeader H;
  H.Type = MsgType::SubmitRequest;
  H.PayloadBytes = MaxPayloadBytes + 1;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> R = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("payload"), std::string::npos);
}

TEST(NetWireTest, BuildFrameMatchesHeaderPlusPayload) {
  // A frame goes out as its header and payload side by side; resumed at
  // any offset, as after a partial write, the bytes that arrive are
  // exactly the rest of header + payload.
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  const auto Header = frameHeader(MsgType::PollRequest, /*RequestId=*/5,
                                  /*Tenant=*/3, Payload.size());
  Expected<FrameHeader> H = decodeFrameHeader(Header.data(), Header.size());
  ASSERT_TRUE(H);
  EXPECT_EQ(H->Type, MsgType::PollRequest);
  EXPECT_EQ(H->RequestId, 5u);
  EXPECT_EQ(H->Tenant, 3u);
  EXPECT_EQ(H->PayloadBytes, Payload.size());

  std::vector<uint8_t> Frame(Header.begin(), Header.end());
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  for (size_t Sent = 0; Sent != Frame.size(); ++Sent) {
    const ssize_t N = sendFrameBytes(Fds[0], Header.data(), Payload.data(),
                                     Payload.size(), Sent);
    ASSERT_EQ(N, static_cast<ssize_t>(Frame.size() - Sent)) << Sent;
    std::vector<uint8_t> Got(Frame.size() - Sent);
    ASSERT_EQ(::read(Fds[1], Got.data(), Got.size()), N);
    EXPECT_EQ(Got, std::vector<uint8_t>(Frame.begin() + Sent, Frame.end()))
        << "resumed at byte " << Sent;
  }
  ::close(Fds[0]);
  ::close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// Message round trips
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, HelloRoundTrip) {
  std::vector<uint8_t> B = encode(sampleHelloRequest());
  Expected<HelloRequest> Req = decodeHelloRequest(B.data(), B.size());
  ASSERT_TRUE(Req);
  EXPECT_EQ(Req->ClientName, "net_protocol_test");

  B = encode(sampleHelloResponse());
  Expected<HelloResponse> Res = decodeHelloResponse(B.data(), B.size());
  ASSERT_TRUE(Res);
  EXPECT_EQ(Res->Version, ProtocolVersion);
  EXPECT_EQ(Res->Banner, "gcc 0.0; flags: -Otest");
  EXPECT_EQ(Res->Machine, "16 nodes (4x4)");
}

TEST(NetProtocolTest, SubmitRoundTripKeepsGridsBitwise) {
  const SubmitRequest M = sampleSubmitRequest();
  std::vector<uint8_t> B = encode(M);
  Expected<SubmitView> Back = decodeSubmitRequest(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Kind, M.Kind);
  EXPECT_EQ(Back->Source, M.Source);
  EXPECT_EQ(Back->Fingerprint, M.Fingerprint);
  EXPECT_EQ(Back->SubRows, M.SubRows);
  EXPECT_EQ(Back->SubCols, M.SubCols);
  EXPECT_EQ(Back->Iterations, M.Iterations);
  EXPECT_EQ(Back->ResultName, M.ResultName);
  ASSERT_EQ(Back->Grids.size(), M.Grids.size());
  for (size_t I = 0; I != M.Grids.size(); ++I) {
    EXPECT_EQ(Back->Grids[I].Kind, M.Grids[I].Kind);
    EXPECT_EQ(Back->Grids[I].Grid.Name, M.Grids[I].Grid.Name);
    EXPECT_EQ(Back->Grids[I].Grid.Rows, M.Grids[I].Grid.Rows);
    EXPECT_EQ(Back->Grids[I].Grid.Cols, M.Grids[I].Grid.Cols);
    // Bitwise, not approximately: floats cross the wire as raw IEEE
    // bit patterns, and the view reads them where they arrived.
    const uint8_t *Floats = Back->Grids[I].Grid.Bytes;
    ASSERT_TRUE(Floats >= B.data() && Floats < B.data() + B.size());
    EXPECT_EQ(std::memcmp(Floats, M.Grids[I].Grid.Data.data(),
                          M.Grids[I].Grid.Data.size() * sizeof(float)),
              0);
  }
}

TEST(NetProtocolTest, WaitResponseRoundTripKeepsTimingExact) {
  const WaitResponse M = sampleWaitResponse();
  std::vector<uint8_t> B = encode(M);
  Expected<WaitResponse> Back = decodeWaitResponse(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Ok, M.Ok);
  EXPECT_EQ(Back->Fingerprint, M.Fingerprint);
  EXPECT_EQ(Back->CacheHit, M.CacheHit);
  EXPECT_EQ(Back->Retries, M.Retries);
  EXPECT_EQ(Back->FellBack, M.FellBack);
  EXPECT_EQ(Back->CompileSeconds, M.CompileSeconds);
  EXPECT_EQ(Back->ExecuteSeconds, M.ExecuteSeconds);
  // The reconstructed TimingReport must agree on every derived number:
  // rates a client computes match the server bit for bit.
  const TimingReport A = M.report(), C = Back->report();
  EXPECT_EQ(A.elapsedSeconds(), C.elapsedSeconds());
  EXPECT_EQ(A.measuredMflops(), C.measuredMflops());
  ASSERT_EQ(Back->HasResult, 1);
  EXPECT_EQ(std::memcmp(Back->Result.Data.data(), M.Result.Data.data(),
                        M.Result.Data.size() * sizeof(float)),
            0);
}

TEST(NetProtocolTest, SmallMessagesRoundTrip) {
  {
    SubmitResponse M;
    M.JobId = -12345;
    std::vector<uint8_t> B = encode(M);
    Expected<SubmitResponse> R = decodeSubmitResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->JobId, -12345);
  }
  {
    PollRequest M;
    M.JobId = 77;
    std::vector<uint8_t> B = encode(M);
    Expected<PollRequest> R = decodePollRequest(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->JobId, 77);
  }
  {
    PollResponse M;
    M.State = 3;
    std::vector<uint8_t> B = encode(M);
    Expected<PollResponse> R = decodePollResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->State, 3);
  }
  {
    CancelResponse M;
    M.Cancelled = 1;
    std::vector<uint8_t> B = encode(M);
    Expected<CancelResponse> R = decodeCancelResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Cancelled, 1);
  }
  {
    std::vector<uint8_t> B = encode(StatsRequest{});
    EXPECT_TRUE(B.empty());
    EXPECT_TRUE(decodeStatsRequest(B.data(), B.size()));
  }
  {
    const StatsResponse M = sampleStatsResponse();
    std::vector<uint8_t> B = encode(M);
    Expected<StatsResponse> R = decodeStatsResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Json, M.Json);
    EXPECT_EQ(R->Table, M.Table);
    EXPECT_EQ(R->NetJson, M.NetJson);
    EXPECT_EQ(R->NetTable, M.NetTable);
  }
  {
    const ErrorResponse M = sampleErrorResponse();
    std::vector<uint8_t> B = encode(M);
    Expected<ErrorResponse> R = decodeErrorResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Code, ErrBadRequest);
    EXPECT_EQ(R->Message, M.Message);
  }
}

TEST(NetProtocolTest, StatsResponseCarriesNetMetricsAndDecodesV1) {
  StatsResponse M = sampleStatsResponse();
  M.NetJson = "{\"net.req_us.wait\": {\"count\": 9}}";
  M.NetTable = "net.req_us.wait  p50 40us\n";
  std::vector<uint8_t> B = encode(M);
  Expected<StatsResponse> Back = decodeStatsResponse(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Json, M.Json);
  EXPECT_EQ(Back->Table, M.Table);
  EXPECT_EQ(Back->NetJson, M.NetJson);
  EXPECT_EQ(Back->NetTable, M.NetTable);

  // Empty net fields still travel as two length-prefixed strings.
  StatsResponse Quiet = sampleStatsResponse();
  Quiet.NetJson.clear();
  Quiet.NetTable.clear();
  std::vector<uint8_t> BQ = encode(Quiet);
  Expected<StatsResponse> BackQuiet =
      decodeStatsResponse(BQ.data(), BQ.size());
  ASSERT_TRUE(BackQuiet);
  EXPECT_TRUE(BackQuiet->NetJson.empty());
  EXPECT_TRUE(BackQuiet->NetTable.empty());

  // A v1-shaped payload ends after Table. The net fields are mandatory
  // now, so it is refused rather than read with empty net fields.
  std::vector<uint8_t> B1 = BQ;
  B1.resize(B1.size() - 8); // Two empty trailing strings.
  EXPECT_FALSE(decodeStatsResponse(B1.data(), B1.size()));
}

//===----------------------------------------------------------------------===//
// Robustness sweeps
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, EveryTruncationPrefixFailsCleanly) {
  // Chop every message's payload at every length short of full: each
  // prefix must decode to a clean error. A prefix of a valid message is
  // never itself valid — every codec ends with an exhaustion check, and
  // every field is mandatory — so this also proves no decoder quietly
  // ignores missing tail fields.
  for (const AnyMessage &M : allMessages())
    for (size_t Len = 0; Len != M.Sample.size(); ++Len)
      EXPECT_FALSE(M.Decode(M.Sample.data(), Len))
          << "prefix " << Len << " of " << M.Sample.size();
}

TEST(NetProtocolTest, SubmitRoundTripCarriesTraceContext) {
  SubmitRequest M = sampleSubmitRequest();
  M.TraceId = 0x0123456789abcdefull;
  M.ParentSpan = 0xfedcba9876543210ull;
  std::vector<uint8_t> B = encode(M);
  Expected<SubmitView> Back = decodeSubmitRequest(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->TraceId, M.TraceId);
  EXPECT_EQ(Back->ParentSpan, M.ParentSpan);
}

TEST(NetProtocolTest, TimelineAndDumpRoundTrip) {
  {
    TimelineRequest M;
    M.JobId = 4242;
    std::vector<uint8_t> B = encode(M);
    Expected<TimelineRequest> R = decodeTimelineRequest(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->JobId, 4242);
  }
  {
    TimelineResponse M;
    M.Found = 1;
    M.Json = "{\"id\": 4242, \"events\": []}";
    std::vector<uint8_t> B = encode(M);
    Expected<TimelineResponse> R = decodeTimelineResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Found, 1);
    EXPECT_EQ(R->Json, M.Json);
  }
  {
    std::vector<uint8_t> B = encode(DumpRequest{});
    EXPECT_TRUE(B.empty());
    EXPECT_TRUE(decodeDumpRequest(B.data(), B.size()));
  }
  {
    DumpResponse M;
    M.Json = "{\"events\": [{\"kind\": \"server_start\"}]}";
    std::vector<uint8_t> B = encode(M);
    Expected<DumpResponse> R = decodeDumpResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Json, M.Json);
  }
}

TEST(NetProtocolTest, SamplePayloadBytesArePinned) {
  // The FNV-1a64 of every sample payload, in allMessages() order. Any
  // change to these bytes is a layout change: bump ProtocolVersion and
  // these values together, never one without the other.
  static_assert(ProtocolVersion == 3, "re-pin the payloads of the new version");
  const uint64_t Pinned[] = {
      0x33524737e6562e49ull, 0x9344542a1bfe787cull, 0x0f67f140b2246f54ull,
      0x45c11fec7bd25825ull, 0xc46a0f9004baa068ull, 0xaf63be4c8601b992ull,
      0x215a64ab25887ecbull, 0x6dd76a2b5808cfa5ull, 0x025f9da21a9934aaull,
      0xaf63bc4c8601b62cull, 0xcbf29ce484222325ull, 0x156def3067572909ull,
      0x1d6975fd624af6d7ull, 0xfea5c2b5475552e7ull, 0xd4f71e4eacd4cc5aull,
      0xcbf29ce484222325ull, 0xdf48b81a21455298ull,
  };
  const std::vector<AnyMessage> &All = allMessages();
  ASSERT_EQ(All.size(), std::size(Pinned));
  for (size_t I = 0; I != All.size(); ++I)
    EXPECT_EQ(fnv1a(All[I].Sample.data(), All[I].Sample.size()), Pinned[I])
        << "message " << I;
}

TEST(NetProtocolTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> B = encode(sampleSubmitRequest());
  B.push_back(0);
  EXPECT_FALSE(decodeSubmitRequest(B.data(), B.size()));
  B = encode(sampleWaitResponse());
  B.push_back(0xFF);
  EXPECT_FALSE(decodeWaitResponse(B.data(), B.size()));
}

TEST(NetProtocolTest, SingleByteCorruptionNeverCrashes) {
  // Flip one byte at every offset of the big message: any outcome but a
  // crash/over-read is acceptable (a flip in a string body decodes fine;
  // sanitizer builds catch the rest) — except a grid that decodes with
  // different data.
  const SubmitRequest M = sampleSubmitRequest();
  const std::vector<uint8_t> B = encode(M);
  long Rejected = 0;
  for (size_t I = 0; I != B.size(); ++I) {
    std::vector<uint8_t> Bad = B;
    Bad[I] ^= 0xA5;
    Expected<SubmitView> Back = decodeSubmitRequest(Bad.data(), Bad.size());
    if (!Back) {
      ++Rejected;
      continue;
    }
    ASSERT_EQ(Back->Grids.size(), M.Grids.size()) << "byte " << I;
    for (size_t G = 0; G != M.Grids.size(); ++G) {
      const GridView &Got = Back->Grids[G].Grid;
      const std::vector<float> &Want = M.Grids[G].Grid.Data;
      EXPECT_TRUE(static_cast<size_t>(Got.Rows) * Got.Cols == Want.size() &&
                  std::memcmp(Got.Bytes, Want.data(),
                              Want.size() * sizeof(float)) == 0)
          << "byte " << I << " changed grid " << G << " undetected";
    }
  }
  // The structured regions (lengths, counts, checksums) dominate the
  // payload, so most flips must be caught.
  EXPECT_GT(Rejected, static_cast<long>(B.size() / 2));
}

TEST(NetProtocolTest, GridDataCorruptionIsCaughtByChecksum) {
  // Every flipped bit inside the float block must fail the payload
  // checksum — results never arrive silently wrong.
  const GridPayload G = sampleGrid("X", 8, 8, 9);
  const std::vector<uint8_t> B = encodedGrid(G);
  ASSERT_TRUE(gridDecodes(B));
  for (size_t Bit = 0; Bit != 8 * floatsBytes(G); ++Bit) {
    std::vector<uint8_t> Bad = B;
    flipBit(Bad, floatsStart(G), Bit);
    EXPECT_FALSE(gridDecodes(Bad)) << "bit " << Bit;
  }
}

TEST(NetProtocolTest, Crc32cCatchesEveryBurstUpTo32Bits) {
  // CRC32C detects every error burst of up to 32 bits. Exhaustive over
  // start bit and length on a small grid (all-ones and a seeded interior
  // per burst), sampled on a 256x256 grid.
  SplitMix64 Gen(0xb025);
  {
    const GridPayload G = sampleGrid("X", 8, 8, 21);
    const std::vector<uint8_t> B = encodedGrid(G);
    const size_t Bits = 8 * floatsBytes(G);
    long Rejected = 0, Tried = 0;
    for (size_t Len = 1; Len <= 32; ++Len)
      for (size_t First = 0; First + Len <= Bits; ++First)
        for (uint32_t Inner : {~0u, static_cast<uint32_t>(Gen.next())}) {
          std::vector<uint8_t> Bad = B;
          flipBurst(Bad, floatsStart(G), First, Len, Inner);
          ++Tried;
          Rejected += !gridDecodes(Bad);
        }
    EXPECT_EQ(Rejected, Tried);
  }
  {
    const GridPayload G = sampleGrid("BIG", 256, 256, 22);
    const std::vector<uint8_t> B = encodedGrid(G);
    const size_t Bits = 8 * floatsBytes(G);
    for (int Sample = 0; Sample != 1000; ++Sample) {
      const size_t Len = 1 + Gen.nextBelow(32);
      const size_t First = Gen.nextBelow(Bits - Len + 1);
      std::vector<uint8_t> Bad = B;
      flipBurst(Bad, floatsStart(G), First, Len,
                static_cast<uint32_t>(Gen.next()));
      EXPECT_FALSE(gridDecodes(Bad))
          << "burst of " << Len << " bits at bit " << First;
    }
  }
}

TEST(NetProtocolTest, GridRejectsShapeMismatchAndHostileCounts) {
  // Rows*Cols must equal the element count.
  GridPayload G = sampleGrid("X", 4, 4, 10);
  G.Rows = 5;
  ByteWriter W;
  encodeGrid(W, G);
  std::vector<uint8_t> B = W.take();
  ByteReader R(B.data(), B.size());
  GridPayload Out;
  EXPECT_FALSE(decodeGrid(R, Out));

  // A hand-built payload whose count field claims 2^24 floats backed by
  // 4 actual bytes: the reader must refuse before allocating, not
  // resize a 64 MB vector and crawl off the buffer.
  ByteWriter W2;
  W2.str("X");
  W2.u32(4096);
  W2.u32(4096);
  W2.u32(16777216); // The floats-block count field.
  W2.u32(0xdeadbeef);
  std::vector<uint8_t> Hostile = W2.take();
  ByteReader R2(Hostile.data(), Hostile.size());
  EXPECT_FALSE(decodeGrid(R2, Out));
}

TEST(NetProtocolTest, RandomByteStormsNeverCrashAnyDecoder) {
  // Deterministic random buffers of many lengths through every decoder:
  // nothing to assert about the outcome except that we survive to return
  // (and under ASan, that nothing over-read).
  SplitMix64 Gen(0xf022ull);
  for (size_t Len : {0u, 1u, 3u, 7u, 16u, 27u, 64u, 255u, 1024u, 65536u}) {
    std::vector<uint8_t> Buf(Len);
    for (uint8_t &V : Buf)
      V = static_cast<uint8_t>(Gen.next());
    for (const AnyMessage &M : allMessages())
      (void)M.Decode(Buf.data(), Buf.size());
    // The same bytes as a frame header candidate.
    (void)decodeFrameHeader(Buf.data(), Buf.size());
  }
}
