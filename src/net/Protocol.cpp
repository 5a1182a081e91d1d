//===- net/Protocol.cpp ---------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Protocol.h"
#include <cstring>

using namespace cmcc;
using namespace cmcc::net;

namespace {

/// The grid layout: name, rows, cols, then the float block of \p Count
/// floats that \p Append writes (see ByteWriter::floats). The count is
/// written as given, so a grid whose shape disagrees with its floats
/// encodes as it is, for the decoder to refuse.
template <typename AppendFn>
void encodeGrid(ByteWriter &W, const std::string &Name, uint32_t Rows,
                uint32_t Cols, size_t Count, AppendFn &&Append) {
  W.str(Name);
  W.u32(Rows);
  W.u32(Cols);
  W.floats(Count, Append);
}

} // namespace

void net::encodeGrid(ByteWriter &W, const GridPayload &G) {
  ::encodeGrid(W, G.Name, G.Rows, G.Cols, G.Data.size(), [&] {
    W.bytes(G.Data.data(), G.Data.size() * sizeof(float));
  });
}

bool net::decodeGrid(ByteReader &R, GridView &G) {
  GridView V;
  uint32_t Count = 0;
  if (!R.str(V.Name) || !R.u32(V.Rows) || !R.u32(V.Cols) ||
      !R.floats(V.Bytes, Count) ||
      // The dimensions must describe exactly the floats that arrived.
      static_cast<uint64_t>(V.Rows) * V.Cols != Count)
    return false;
  G = std::move(V);
  return true;
}

bool net::decodeGrid(ByteReader &R, GridPayload &G) {
  GridView V;
  if (!decodeGrid(R, V))
    return false;
  G.Name = std::move(V.Name);
  G.Rows = V.Rows;
  G.Cols = V.Cols;
  G.Data.resize(static_cast<size_t>(V.Rows) * V.Cols);
  if (!G.Data.empty())
    std::memcpy(G.Data.data(), V.Bytes, G.Data.size() * sizeof(float));
  return true;
}

TimingReport WaitResponse::report() const {
  TimingReport T;
  T.Cycles.Compute = CyclesCompute;
  T.Cycles.PipeReversal = CyclesPipeReversal;
  T.Cycles.LineOverhead = CyclesLineOverhead;
  T.Cycles.StripStartup = CyclesStripStartup;
  T.Cycles.Communication = CyclesCommunication;
  T.UsefulFlopsPerNodePerIteration = UsefulFlopsPerNodePerIteration;
  T.Iterations = Iterations;
  T.HostSecondsPerIteration = HostSecondsPerIteration;
  T.Nodes = static_cast<int>(Nodes);
  T.ClockMHz = ClockMHz;
  return T;
}

void WaitResponse::setReport(const TimingReport &R) {
  CyclesCompute = R.Cycles.Compute;
  CyclesPipeReversal = R.Cycles.PipeReversal;
  CyclesLineOverhead = R.Cycles.LineOverhead;
  CyclesStripStartup = R.Cycles.StripStartup;
  CyclesCommunication = R.Cycles.Communication;
  UsefulFlopsPerNodePerIteration = R.UsefulFlopsPerNodePerIteration;
  Iterations = R.Iterations;
  HostSecondsPerIteration = R.HostSecondsPerIteration;
  Nodes = static_cast<uint32_t>(R.Nodes);
  ClockMHz = R.ClockMHz;
}

namespace {

/// Bytes encodeGrid() appends for a grid named \p Name of \p Count
/// floats.
size_t gridBytes(const std::string &Name, size_t Count) {
  return ByteWriter::strBytes(Name) + 8 + ByteWriter::floatsBytes(Count);
}

/// Shared tail of every decode: the payload must parse and be consumed
/// exactly.
template <typename T>
Expected<T> finish(ByteReader &R, T &&M, const char *What) {
  if (!R.exhausted())
    return Error::failure(std::string("malformed ") + What + " payload");
  return std::move(M);
}

} // namespace

//===--- Hello ------------------------------------------------------------===//

std::vector<uint8_t> net::encode(const HelloRequest &M) {
  ByteWriter W;
  W.str(M.ClientName);
  return W.take();
}

Expected<HelloRequest> net::decodeHelloRequest(const uint8_t *Data,
                                               size_t Len) {
  ByteReader R(Data, Len);
  HelloRequest M;
  R.str(M.ClientName);
  return finish(R, std::move(M), "HelloRequest");
}

std::vector<uint8_t> net::encode(const HelloResponse &M) {
  ByteWriter W;
  W.u16(M.Version);
  W.str(M.Banner);
  W.str(M.Machine);
  return W.take();
}

Expected<HelloResponse> net::decodeHelloResponse(const uint8_t *Data,
                                                 size_t Len) {
  ByteReader R(Data, Len);
  HelloResponse M;
  R.u16(M.Version);
  R.str(M.Banner);
  R.str(M.Machine);
  return finish(R, std::move(M), "HelloResponse");
}

//===--- Submit -----------------------------------------------------------===//

std::vector<uint8_t> net::encode(const SubmitRequest &M) {
  ByteWriter W;
  // Field sizes in the order written below, so the grids append to a
  // buffer that never reallocates.
  size_t Bytes = 1 + ByteWriter::strBytes(M.Source) + 8 + 3 * 4 +
                 ByteWriter::strBytes(M.ResultName) + 4 + 2 * 8;
  for (const SubmitRequest::BoundGrid &B : M.Grids)
    Bytes += 1 + gridBytes(B.Grid.Name, B.Grid.Data.size());
  W.reserve(Bytes);
  W.u8(M.Kind);
  W.str(M.Source);
  W.u64(M.Fingerprint);
  W.u32(M.SubRows);
  W.u32(M.SubCols);
  W.u32(M.Iterations);
  W.str(M.ResultName);
  W.u32(static_cast<uint32_t>(M.Grids.size()));
  for (const SubmitRequest::BoundGrid &B : M.Grids) {
    W.u8(static_cast<uint8_t>(B.Kind));
    encodeGrid(W, B.Grid);
  }
  W.u64(M.TraceId);
  W.u64(M.ParentSpan);
  return W.take();
}

Expected<SubmitView> net::decodeSubmitRequest(const uint8_t *Data,
                                              size_t Len) {
  ByteReader R(Data, Len);
  SubmitView M;
  uint32_t NGrids = 0;
  bool Ok = R.u8(M.Kind) && R.str(M.Source) && R.u64(M.Fingerprint) &&
            R.u32(M.SubRows) && R.u32(M.SubCols) && R.u32(M.Iterations) &&
            R.str(M.ResultName) && R.u32(NGrids);
  // Each grid costs at least a dozen bytes on the wire, so a count that
  // exceeds the remaining payload is bogus — reject before reserving.
  if (!Ok || NGrids > R.remaining())
    return Error::failure("malformed SubmitRequest payload");
  for (uint32_t I = 0; I != NGrids; ++I) {
    SubmitView::BoundGrid B;
    uint8_t Role = 0;
    if (!R.u8(Role) || Role > 2 || !decodeGrid(R, B.Grid))
      return Error::failure("malformed SubmitRequest payload");
    B.Kind = static_cast<SubmitView::Role>(Role);
    M.Grids.push_back(std::move(B));
  }
  R.u64(M.TraceId);
  R.u64(M.ParentSpan);
  return finish(R, std::move(M), "SubmitRequest");
}

std::vector<uint8_t> net::encode(const SubmitResponse &M) {
  ByteWriter W;
  W.i64(M.JobId);
  return W.take();
}

Expected<SubmitResponse> net::decodeSubmitResponse(const uint8_t *Data,
                                                   size_t Len) {
  ByteReader R(Data, Len);
  SubmitResponse M;
  R.i64(M.JobId);
  return finish(R, std::move(M), "SubmitResponse");
}

//===--- Poll -------------------------------------------------------------===//

std::vector<uint8_t> net::encode(const PollRequest &M) {
  ByteWriter W;
  W.i64(M.JobId);
  return W.take();
}

Expected<PollRequest> net::decodePollRequest(const uint8_t *Data, size_t Len) {
  ByteReader R(Data, Len);
  PollRequest M;
  R.i64(M.JobId);
  return finish(R, std::move(M), "PollRequest");
}

std::vector<uint8_t> net::encode(const PollResponse &M) {
  ByteWriter W;
  W.u8(M.State);
  return W.take();
}

Expected<PollResponse> net::decodePollResponse(const uint8_t *Data,
                                               size_t Len) {
  ByteReader R(Data, Len);
  PollResponse M;
  R.u8(M.State);
  return finish(R, std::move(M), "PollResponse");
}

//===--- Wait -------------------------------------------------------------===//

std::vector<uint8_t> net::encode(const WaitRequest &M) {
  ByteWriter W;
  W.i64(M.JobId);
  return W.take();
}

Expected<WaitRequest> net::decodeWaitRequest(const uint8_t *Data, size_t Len) {
  ByteReader R(Data, Len);
  WaitRequest M;
  R.i64(M.JobId);
  return finish(R, std::move(M), "WaitRequest");
}

namespace {

/// The WaitResponse codec; a result grid of \p ResultCount floats
/// (when M.HasResult) is appended by \p AppendResult.
template <typename AppendFn>
std::vector<uint8_t> encodeWait(const WaitResponse &M, size_t ResultCount,
                                AppendFn &&AppendResult) {
  ByteWriter W;
  // Field sizes in the order written below (see encode(SubmitRequest)).
  W.reserve(2 + ByteWriter::strBytes(M.Message) + 8 + 2 + 2 * 8 + 4 + 1 +
            7 * 8 + 8 + 4 + 8 + 1 +
            (M.HasResult ? gridBytes(M.Result.Name, ResultCount) : 0));
  W.u8(M.Ok);
  W.u8(M.Status);
  W.str(M.Message);
  W.u64(M.Fingerprint);
  W.u8(M.CacheHit);
  W.u8(M.Coalesced);
  W.f64(M.CompileSeconds);
  W.f64(M.ExecuteSeconds);
  W.u32(M.Retries);
  W.u8(M.FellBack);
  W.i64(M.CyclesCompute);
  W.i64(M.CyclesPipeReversal);
  W.i64(M.CyclesLineOverhead);
  W.i64(M.CyclesStripStartup);
  W.i64(M.CyclesCommunication);
  W.i64(M.UsefulFlopsPerNodePerIteration);
  W.i64(M.Iterations);
  W.f64(M.HostSecondsPerIteration);
  W.u32(M.Nodes);
  W.f64(M.ClockMHz);
  W.u8(M.HasResult);
  if (M.HasResult)
    AppendResult(W);
  return W.take();
}

} // namespace

std::vector<uint8_t> net::encode(const WaitResponse &M) {
  return encodeWait(M, M.Result.Data.size(),
                    [&](ByteWriter &W) { encodeGrid(W, M.Result); });
}

std::vector<uint8_t> net::encode(const WaitResponse &M,
                                 const DistributedArray &Result) {
  const size_t Count =
      static_cast<size_t>(Result.globalRows()) * Result.globalCols();
  return encodeWait(M, Count, [&](ByteWriter &W) {
    ::encodeGrid(W, M.Result.Name, static_cast<uint32_t>(Result.globalRows()),
                 static_cast<uint32_t>(Result.globalCols()), Count, [&] {
                   Result.forEachGlobalRowPiece(
                       [&](const float *Piece, int Floats) {
                         W.bytes(Piece,
                                 static_cast<size_t>(Floats) * sizeof(float));
                       });
                 });
  });
}

Expected<WaitResponse> net::decodeWaitResponse(const uint8_t *Data,
                                               size_t Len) {
  ByteReader R(Data, Len);
  WaitResponse M;
  bool Ok = R.u8(M.Ok) && R.u8(M.Status) && R.str(M.Message) &&
            R.u64(M.Fingerprint) && R.u8(M.CacheHit) && R.u8(M.Coalesced) &&
            R.f64(M.CompileSeconds) && R.f64(M.ExecuteSeconds) &&
            R.u32(M.Retries) && R.u8(M.FellBack) && R.i64(M.CyclesCompute) &&
            R.i64(M.CyclesPipeReversal) && R.i64(M.CyclesLineOverhead) &&
            R.i64(M.CyclesStripStartup) && R.i64(M.CyclesCommunication) &&
            R.i64(M.UsefulFlopsPerNodePerIteration) && R.i64(M.Iterations) &&
            R.f64(M.HostSecondsPerIteration) && R.u32(M.Nodes) &&
            R.f64(M.ClockMHz) && R.u8(M.HasResult);
  if (!Ok || (M.HasResult && !decodeGrid(R, M.Result)))
    return Error::failure("malformed WaitResponse payload");
  return finish(R, std::move(M), "WaitResponse");
}

//===--- Cancel -----------------------------------------------------------===//

std::vector<uint8_t> net::encode(const CancelRequest &M) {
  ByteWriter W;
  W.i64(M.JobId);
  return W.take();
}

Expected<CancelRequest> net::decodeCancelRequest(const uint8_t *Data,
                                                 size_t Len) {
  ByteReader R(Data, Len);
  CancelRequest M;
  R.i64(M.JobId);
  return finish(R, std::move(M), "CancelRequest");
}

std::vector<uint8_t> net::encode(const CancelResponse &M) {
  ByteWriter W;
  W.u8(M.Cancelled);
  return W.take();
}

Expected<CancelResponse> net::decodeCancelResponse(const uint8_t *Data,
                                                   size_t Len) {
  ByteReader R(Data, Len);
  CancelResponse M;
  R.u8(M.Cancelled);
  return finish(R, std::move(M), "CancelResponse");
}

//===--- Stats ------------------------------------------------------------===//

std::vector<uint8_t> net::encode(const StatsRequest &) { return {}; }

Expected<StatsRequest> net::decodeStatsRequest(const uint8_t *Data,
                                               size_t Len) {
  ByteReader R(Data, Len);
  return finish(R, StatsRequest{}, "StatsRequest");
}

std::vector<uint8_t> net::encode(const StatsResponse &M) {
  ByteWriter W;
  W.str(M.Json);
  W.str(M.Table);
  W.str(M.NetJson);
  W.str(M.NetTable);
  return W.take();
}

Expected<StatsResponse> net::decodeStatsResponse(const uint8_t *Data,
                                                 size_t Len) {
  ByteReader R(Data, Len);
  StatsResponse M;
  R.str(M.Json);
  R.str(M.Table);
  R.str(M.NetJson);
  R.str(M.NetTable);
  return finish(R, std::move(M), "StatsResponse");
}

//===--- Timeline ---------------------------------------------------------===//

std::vector<uint8_t> net::encode(const TimelineRequest &M) {
  ByteWriter W;
  W.i64(M.JobId);
  return W.take();
}

Expected<TimelineRequest> net::decodeTimelineRequest(const uint8_t *Data,
                                                     size_t Len) {
  ByteReader R(Data, Len);
  TimelineRequest M;
  R.i64(M.JobId);
  return finish(R, std::move(M), "TimelineRequest");
}

std::vector<uint8_t> net::encode(const TimelineResponse &M) {
  ByteWriter W;
  W.u8(M.Found);
  W.str(M.Json);
  return W.take();
}

Expected<TimelineResponse> net::decodeTimelineResponse(const uint8_t *Data,
                                                       size_t Len) {
  ByteReader R(Data, Len);
  TimelineResponse M;
  R.u8(M.Found);
  R.str(M.Json);
  return finish(R, std::move(M), "TimelineResponse");
}

//===--- Dump -------------------------------------------------------------===//

std::vector<uint8_t> net::encode(const DumpRequest &) { return {}; }

Expected<DumpRequest> net::decodeDumpRequest(const uint8_t *Data, size_t Len) {
  ByteReader R(Data, Len);
  return finish(R, DumpRequest{}, "DumpRequest");
}

std::vector<uint8_t> net::encode(const DumpResponse &M) {
  ByteWriter W;
  W.str(M.Json);
  return W.take();
}

Expected<DumpResponse> net::decodeDumpResponse(const uint8_t *Data,
                                               size_t Len) {
  ByteReader R(Data, Len);
  DumpResponse M;
  // A full flight-recorder ring serializes to a few hundred KiB; allow
  // well past that while staying under the frame cap.
  R.str(M.Json, 8u << 20);
  return finish(R, std::move(M), "DumpResponse");
}

//===--- Error ------------------------------------------------------------===//

std::vector<uint8_t> net::encode(const ErrorResponse &M) {
  ByteWriter W;
  W.u16(M.Code);
  W.str(M.Message);
  return W.take();
}

Expected<ErrorResponse> net::decodeErrorResponse(const uint8_t *Data,
                                                 size_t Len) {
  ByteReader R(Data, Len);
  ErrorResponse M;
  R.u16(M.Code);
  R.str(M.Message);
  return finish(R, std::move(M), "ErrorResponse");
}
