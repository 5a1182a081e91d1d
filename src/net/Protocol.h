//===- net/Protocol.h - Request/response message codecs -------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message-level half of the cmcc network protocol: plain structs
/// for every request and response the StencilService front door speaks,
/// with encode functions producing frame payloads and decode functions
/// that accept arbitrary bytes and fail cleanly (see net/Wire.h for the
/// byte-level contract).
///
/// The request/response pairs mirror the StencilService API one to one
/// (submit / poll / wait / cancel / stats) plus a Hello handshake.
/// Grids cross the wire as *global* arrays — the client never needs to
/// know the server's node decomposition — and WaitResponse carries the
/// full TimingReport field by field, so a result reconstructed client
/// side is bitwise identical to what an in-process wait() returns.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_NET_PROTOCOL_H
#define CMCC_NET_PROTOCOL_H

#include "net/Wire.h"
#include "runtime/DistributedArray.h"
#include "service/StencilService.h"
#include <cstdint>
#include <string>
#include <vector>

namespace cmcc {
namespace net {

/// One named global array on the wire (raw f32 data + checksum, via
/// ByteWriter::floats).
struct GridPayload {
  std::string Name;
  uint32_t Rows = 0;
  uint32_t Cols = 0;
  std::vector<float> Data; ///< Row-major, Rows*Cols elements.
};

/// A grid decoded in place: Rows x Cols row-major floats at Bytes,
/// inside the payload it was decoded from and valid as long as that is,
/// at whatever byte alignment the payload puts them. A view exists only
/// once the grid's CRC32C has matched and its dimensions describe
/// exactly the floats that arrived.
struct GridView {
  std::string Name;
  uint32_t Rows = 0;
  uint32_t Cols = 0;
  const uint8_t *Bytes = nullptr;
};

/// The grid codec. The owning decode copies the view's floats out.
void encodeGrid(ByteWriter &W, const GridPayload &G);
bool decodeGrid(ByteReader &R, GridView &G);
bool decodeGrid(ByteReader &R, GridPayload &G);

//===--- Hello ------------------------------------------------------------===//

/// Opens a connection: the client names itself, the server answers with
/// its identity. Optional — the server serves requests without it — but
/// it is the cheap way to verify version compatibility up front.
struct HelloRequest {
  std::string ClientName;
};

struct HelloResponse {
  uint16_t Version = ProtocolVersion;
  std::string Banner;  ///< Server provenance (compiler identity, flags).
  std::string Machine; ///< MachineConfig::summary() of the served machine.
};

//===--- Submit -----------------------------------------------------------===//

/// A StencilService::JobRequest on the wire, apart from its grids.
/// Tenant travels in the frame header, not here. When a submit carries
/// no grids the job is timing-only for SubRows x SubCols; otherwise the
/// first grid is the source array and ResultName names the output, with
/// coefficient / extra-source arrays following (Role tells the server
/// where each one binds).
struct SubmitFields {
  uint8_t Kind = 0; ///< StencilService::SourceKind as its integer value.
  std::string Source;
  uint64_t Fingerprint = 0;
  uint32_t SubRows = 64;
  uint32_t SubCols = 64;
  uint32_t Iterations = 1;
  std::string ResultName; ///< Empty for timing-only jobs.
  enum class Role : uint8_t { Source = 0, Coefficient = 1, ExtraSource = 2 };
  /// Client-minted trace context, after the grids. Zero means "not
  /// traced".
  uint64_t TraceId = 0;
  uint64_t ParentSpan = 0;
};

/// A submit as a client builds it: each grid owns its floats.
struct SubmitRequest : SubmitFields {
  struct BoundGrid {
    Role Kind = Role::Source;
    GridPayload Grid;
  };
  std::vector<BoundGrid> Grids;
};

/// A submit as the server decodes it: each grid is a checked view into
/// the frame, so the server copies it once, into the job's array.
struct SubmitView : SubmitFields {
  struct BoundGrid {
    Role Kind = Role::Source;
    GridView Grid;
  };
  std::vector<BoundGrid> Grids;
};

struct SubmitResponse {
  int64_t JobId = 0;
};

//===--- Poll -------------------------------------------------------------===//

struct PollRequest {
  int64_t JobId = 0;
};

struct PollResponse {
  uint8_t State = 0; ///< StencilService::JobState as its integer value.
};

//===--- Wait -------------------------------------------------------------===//

struct WaitRequest {
  int64_t JobId = 0;
};

/// A StencilService::JobResult on the wire, TimingReport included so
/// rates computed client side match the server exactly. Result (when
/// present) is the gathered global output grid.
struct WaitResponse {
  uint8_t Ok = 0;
  uint8_t Status = 0; ///< StencilService::JobStatus as its integer value.
  std::string Message;
  uint64_t Fingerprint = 0;
  uint8_t CacheHit = 0;
  uint8_t Coalesced = 0;
  double CompileSeconds = 0.0;
  double ExecuteSeconds = 0.0;
  uint32_t Retries = 0;
  uint8_t FellBack = 0;
  // TimingReport, field by field.
  int64_t CyclesCompute = 0;
  int64_t CyclesPipeReversal = 0;
  int64_t CyclesLineOverhead = 0;
  int64_t CyclesStripStartup = 0;
  int64_t CyclesCommunication = 0;
  int64_t UsefulFlopsPerNodePerIteration = 0;
  int64_t Iterations = 1;
  double HostSecondsPerIteration = 0.0;
  uint32_t Nodes = 1;
  double ClockMHz = 7.0;
  uint8_t HasResult = 0;
  GridPayload Result;

  /// Rebuilds the TimingReport this response carries.
  TimingReport report() const;
  /// Captures \p R into the timing fields.
  void setReport(const TimingReport &R);
};

//===--- Cancel -----------------------------------------------------------===//

struct CancelRequest {
  int64_t JobId = 0;
};

struct CancelResponse {
  uint8_t Cancelled = 0; ///< StencilService::cancel()'s return.
};

//===--- Stats ------------------------------------------------------------===//

struct StatsRequest {};

struct StatsResponse {
  std::string Json;  ///< ServiceStats::json().
  std::string Table; ///< ServiceStats::str().
  /// The server's net.* wire metrics (request latency and frame-size
  /// histograms).
  std::string NetJson;  ///< Registry::json("net.").
  std::string NetTable; ///< Registry::table("net.").
};

//===--- Timeline ---------------------------------------------------------===//

/// Asks for the per-job event timeline (admitted, queued, compile
/// begin/end, execute attempts, retries, fallback, completion) of a
/// recently finished job, from the service's bounded ring.
struct TimelineRequest {
  int64_t JobId = 0;
};

struct TimelineResponse {
  uint8_t Found = 0;
  std::string Json; ///< StencilService::timelineJson() when Found.
};

//===--- Dump -------------------------------------------------------------===//

/// Asks for the process flight recorder (obs::FlightRecorder JSON):
/// black-box forensics over the wire, the remote twin of SIGUSR1.
struct DumpRequest {};

struct DumpResponse {
  std::string Json;
};

//===--- Error ------------------------------------------------------------===//

/// The server's answer to any request it could not serve at the
/// protocol level (malformed payload, unknown job binding, draining).
/// Service-level failures (compile errors, quota rejections) travel in
/// their normal responses instead.
struct ErrorResponse {
  uint16_t Code = 0; ///< ErrBadRequest / ErrDraining / ErrInternal.
  std::string Message;
};

constexpr uint16_t ErrBadRequest = 1;
constexpr uint16_t ErrDraining = 2;
constexpr uint16_t ErrInternal = 3;

//===--- Codecs -----------------------------------------------------------===//
// encode() returns the frame *payload*; each decode accepts raw payload
// bytes and fails cleanly on anything malformed, truncated, or
// trailing-garbage.

std::vector<uint8_t> encode(const HelloRequest &M);
std::vector<uint8_t> encode(const HelloResponse &M);
std::vector<uint8_t> encode(const SubmitRequest &M);
std::vector<uint8_t> encode(const SubmitResponse &M);
std::vector<uint8_t> encode(const PollRequest &M);
std::vector<uint8_t> encode(const PollResponse &M);
std::vector<uint8_t> encode(const WaitRequest &M);
std::vector<uint8_t> encode(const WaitResponse &M);
/// encode(M) with the result grid gathered from \p Result straight into
/// the payload, named M.Result.Name; M.Result's own shape and floats
/// are not read.
std::vector<uint8_t> encode(const WaitResponse &M,
                            const DistributedArray &Result);
std::vector<uint8_t> encode(const CancelRequest &M);
std::vector<uint8_t> encode(const CancelResponse &M);
std::vector<uint8_t> encode(const StatsRequest &M);
std::vector<uint8_t> encode(const StatsResponse &M);
std::vector<uint8_t> encode(const ErrorResponse &M);
std::vector<uint8_t> encode(const TimelineRequest &M);
std::vector<uint8_t> encode(const TimelineResponse &M);
std::vector<uint8_t> encode(const DumpRequest &M);
std::vector<uint8_t> encode(const DumpResponse &M);

Expected<HelloRequest> decodeHelloRequest(const uint8_t *Data, size_t Len);
Expected<HelloResponse> decodeHelloResponse(const uint8_t *Data, size_t Len);
/// The views point into \p Data.
Expected<SubmitView> decodeSubmitRequest(const uint8_t *Data, size_t Len);
Expected<SubmitResponse> decodeSubmitResponse(const uint8_t *Data, size_t Len);
Expected<PollRequest> decodePollRequest(const uint8_t *Data, size_t Len);
Expected<PollResponse> decodePollResponse(const uint8_t *Data, size_t Len);
Expected<WaitRequest> decodeWaitRequest(const uint8_t *Data, size_t Len);
Expected<WaitResponse> decodeWaitResponse(const uint8_t *Data, size_t Len);
Expected<CancelRequest> decodeCancelRequest(const uint8_t *Data, size_t Len);
Expected<CancelResponse> decodeCancelResponse(const uint8_t *Data, size_t Len);
Expected<StatsRequest> decodeStatsRequest(const uint8_t *Data, size_t Len);
Expected<StatsResponse> decodeStatsResponse(const uint8_t *Data, size_t Len);
Expected<ErrorResponse> decodeErrorResponse(const uint8_t *Data, size_t Len);
Expected<TimelineRequest>
decodeTimelineRequest(const uint8_t *Data, size_t Len);
Expected<TimelineResponse>
decodeTimelineResponse(const uint8_t *Data, size_t Len);
Expected<DumpRequest> decodeDumpRequest(const uint8_t *Data, size_t Len);
Expected<DumpResponse> decodeDumpResponse(const uint8_t *Data, size_t Len);

} // namespace net
} // namespace cmcc

#endif // CMCC_NET_PROTOCOL_H
