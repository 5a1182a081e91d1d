//===- shard/ShardProtocol.cpp --------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "shard/ShardProtocol.h"
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace cmcc;
using namespace cmcc::shard;
using cmcc::net::ByteReader;
using cmcc::net::ByteWriter;

namespace {

void putConfig(ByteWriter &W, const MachineConfig &C) {
  W.u32(static_cast<uint32_t>(C.NodeRows));
  W.u32(static_cast<uint32_t>(C.NodeCols));
  W.f64(C.ClockMHz);
  W.u16(static_cast<uint16_t>(C.Fpu));
  W.u32(static_cast<uint32_t>(C.NumRegisters));
  W.u32(static_cast<uint32_t>(C.MulToAddCycles));
  W.u32(static_cast<uint32_t>(C.AddToWriteCycles));
  W.u32(static_cast<uint32_t>(C.LoadLatencyCycles));
  W.u32(static_cast<uint32_t>(C.PipeReversalCycles));
  W.u32(static_cast<uint32_t>(C.StaticPartLatchCycles));
  W.u32(static_cast<uint32_t>(C.PerLineOverheadCycles));
  W.u32(static_cast<uint32_t>(C.HalfStripStartupCycles));
  W.u32(static_cast<uint32_t>(C.ScratchMemoryParts));
  W.f64(C.SequencerCyclesPerOp);
  W.f64(C.HostOverheadUsPerCall);
  W.f64(C.HostOverheadUsPerStrip);
  W.u32(static_cast<uint32_t>(C.CommStartupCycles));
  W.u32(static_cast<uint32_t>(C.CommCyclesPerElement));
  W.u32(static_cast<uint32_t>(C.CornerStartupCycles));
  W.u32(static_cast<uint32_t>(C.LegacyCommStartupCycles));
  W.f64(C.LegacyCommElementFactor);
}

bool getConfig(ByteReader &R, MachineConfig &C) {
  uint32_t U = 0;
  uint16_t Fpu = 0;
  bool Ok = true;
  auto I = [&](int &Field) {
    Ok = Ok && R.u32(U);
    Field = static_cast<int>(U);
  };
  I(C.NodeRows);
  I(C.NodeCols);
  Ok = Ok && R.f64(C.ClockMHz);
  Ok = Ok && R.u16(Fpu);
  C.Fpu = static_cast<FpuKind>(Fpu);
  I(C.NumRegisters);
  I(C.MulToAddCycles);
  I(C.AddToWriteCycles);
  I(C.LoadLatencyCycles);
  I(C.PipeReversalCycles);
  I(C.StaticPartLatchCycles);
  I(C.PerLineOverheadCycles);
  I(C.HalfStripStartupCycles);
  I(C.ScratchMemoryParts);
  Ok = Ok && R.f64(C.SequencerCyclesPerOp);
  Ok = Ok && R.f64(C.HostOverheadUsPerCall);
  Ok = Ok && R.f64(C.HostOverheadUsPerStrip);
  I(C.CommStartupCycles);
  I(C.CommCyclesPerElement);
  I(C.CornerStartupCycles);
  I(C.LegacyCommStartupCycles);
  Ok = Ok && R.f64(C.LegacyCommElementFactor);
  return Ok;
}

void putReport(ByteWriter &W, const TimingReport &T) {
  W.i64(T.Cycles.Compute);
  W.i64(T.Cycles.PipeReversal);
  W.i64(T.Cycles.LineOverhead);
  W.i64(T.Cycles.StripStartup);
  W.i64(T.Cycles.Communication);
  W.i64(T.UsefulFlopsPerNodePerIteration);
  W.i64(T.Iterations);
  W.f64(T.HostSecondsPerIteration);
  W.u32(static_cast<uint32_t>(T.Nodes));
  W.f64(T.ClockMHz);
}

bool getReport(ByteReader &R, TimingReport &T) {
  uint32_t Nodes = 0;
  bool Ok = R.i64(T.Cycles.Compute) && R.i64(T.Cycles.PipeReversal) &&
            R.i64(T.Cycles.LineOverhead) && R.i64(T.Cycles.StripStartup) &&
            R.i64(T.Cycles.Communication) &&
            R.i64(T.UsefulFlopsPerNodePerIteration) && R.i64(T.Iterations) &&
            R.f64(T.HostSecondsPerIteration) && R.u32(Nodes) &&
            R.f64(T.ClockMHz);
  T.Nodes = static_cast<int>(Nodes);
  return Ok;
}

} // namespace

std::vector<uint8_t> cmcc::shard::encodeInit(const InitMessage &M) {
  ByteWriter W;
  putConfig(W, M.Config);
  W.u32(static_cast<uint32_t>(M.ShardRows));
  W.u32(static_cast<uint32_t>(M.ShardCols));
  W.u32(static_cast<uint32_t>(M.Shard));
  W.str(M.Backend);
  W.u16(M.Primitive);
  W.u8(M.AllowCornerSkip ? 1 : 0);
  W.u8(M.UseHalfStrips ? 1 : 0);
  W.u8(M.UseFastPath ? 1 : 0);
  W.u32(static_cast<uint32_t>(M.ForceWidth));
  W.u32(static_cast<uint32_t>(M.ThreadCount));
  W.i64(M.TimeoutMs);
  return W.take();
}

bool cmcc::shard::decodeInit(const std::vector<uint8_t> &Payload,
                             InitMessage &M) {
  ByteReader R(Payload.data(), Payload.size());
  if (!getConfig(R, M.Config))
    return false;
  uint32_t SR = 0, SC = 0, Shard = 0, FW = 0, TC = 0;
  uint8_t Corner = 0, Half = 0, Fast = 0;
  int64_t Timeout = 0;
  bool Ok = R.u32(SR) && R.u32(SC) && R.u32(Shard) && R.str(M.Backend) &&
            R.u16(M.Primitive) && R.u8(Corner) && R.u8(Half) && R.u8(Fast) &&
            R.u32(FW) && R.u32(TC) && R.i64(Timeout);
  if (!Ok || !R.exhausted())
    return false;
  M.ShardRows = static_cast<int>(SR);
  M.ShardCols = static_cast<int>(SC);
  M.Shard = static_cast<int>(Shard);
  M.AllowCornerSkip = Corner != 0;
  M.UseHalfStrips = Half != 0;
  M.UseFastPath = Fast != 0;
  M.ForceWidth = static_cast<int>(FW);
  M.ThreadCount = static_cast<int>(TC);
  M.TimeoutMs = static_cast<long>(Timeout);
  return true;
}

std::vector<uint8_t> cmcc::shard::encodePlan(const PlanMessage &M) {
  ByteWriter W;
  W.u64(M.Fingerprint);
  W.str(M.Text);
  return W.take();
}

bool cmcc::shard::decodePlan(const std::vector<uint8_t> &Payload,
                             PlanMessage &M) {
  ByteReader R(Payload.data(), Payload.size());
  // Plans can be large; allow up to the frame payload cap.
  return R.u64(M.Fingerprint) && R.str(M.Text, net::MaxPayloadBytes) &&
         R.exhausted();
}

std::vector<uint8_t> cmcc::shard::encodeData(const DataMessage &M) {
  ByteWriter W;
  W.u32(M.Slot);
  W.u32(static_cast<uint32_t>(M.SubRows));
  W.u32(static_cast<uint32_t>(M.SubCols));
  W.u64(M.FloatCount);
  return W.take();
}

bool cmcc::shard::decodeData(const std::vector<uint8_t> &Payload,
                             DataMessage &M) {
  ByteReader R(Payload.data(), Payload.size());
  uint32_t SR = 0, SC = 0;
  bool Ok = R.u32(M.Slot) && R.u32(SR) && R.u32(SC) && R.u64(M.FloatCount);
  if (!Ok || !R.exhausted())
    return false;
  M.SubRows = static_cast<int>(SR);
  M.SubCols = static_cast<int>(SC);
  return true;
}

std::vector<uint8_t> cmcc::shard::encodeRun(const RunMessage &M) {
  ByteWriter W;
  W.u64(M.Fingerprint);
  W.u32(static_cast<uint32_t>(M.Iterations));
  W.u32(static_cast<uint32_t>(M.TimeTile));
  W.u32(static_cast<uint32_t>(M.SubRows));
  W.u32(static_cast<uint32_t>(M.SubCols));
  W.u64(M.TraceId);
  W.u64(M.ParentSpan);
  W.u32(static_cast<uint32_t>(M.SourceSlots.size()));
  for (uint32_t S : M.SourceSlots)
    W.u32(S);
  W.u32(static_cast<uint32_t>(M.TapSlots.size()));
  for (int64_t S : M.TapSlots)
    W.i64(S);
  return W.take();
}

bool cmcc::shard::decodeRun(const std::vector<uint8_t> &Payload,
                            RunMessage &M) {
  ByteReader R(Payload.data(), Payload.size());
  uint32_t It = 0, TT = 0, SR = 0, SC = 0, NSrc = 0, NTap = 0;
  if (!(R.u64(M.Fingerprint) && R.u32(It) && R.u32(TT) && R.u32(SR) &&
        R.u32(SC) && R.u64(M.TraceId) && R.u64(M.ParentSpan) && R.u32(NSrc)))
    return false;
  if (NSrc > 1024 || R.remaining() < NSrc * 4)
    return false;
  M.SourceSlots.resize(NSrc);
  for (uint32_t &S : M.SourceSlots)
    if (!R.u32(S))
      return false;
  if (!R.u32(NTap) || NTap > (1u << 20) || R.remaining() < NTap * 8)
    return false;
  M.TapSlots.resize(NTap);
  for (int64_t &S : M.TapSlots)
    if (!R.i64(S))
      return false;
  if (!R.exhausted())
    return false;
  M.Iterations = static_cast<int>(It);
  M.TimeTile = static_cast<int>(TT);
  M.SubRows = static_cast<int>(SR);
  M.SubCols = static_cast<int>(SC);
  return true;
}

std::vector<uint8_t> cmcc::shard::encodeHalo(const HaloMessage &M) {
  ByteWriter W;
  W.u32(M.SourceIndex);
  W.u16(M.Step);
  W.u64(M.LowCount);
  W.u64(M.HighCount);
  return W.take();
}

bool cmcc::shard::decodeHalo(const std::vector<uint8_t> &Payload,
                             HaloMessage &M) {
  ByteReader R(Payload.data(), Payload.size());
  return R.u32(M.SourceIndex) && R.u16(M.Step) && R.u64(M.LowCount) &&
         R.u64(M.HighCount) && R.exhausted();
}

std::vector<uint8_t> cmcc::shard::encodeAck(const AckMessage &M) {
  ByteWriter W;
  W.u8(M.Ok ? 1 : 0);
  W.u8(M.Transient ? 1 : 0);
  W.str(M.Message);
  W.u64(M.LowCount);
  W.u64(M.HighCount);
  return W.take();
}

bool cmcc::shard::decodeAck(const std::vector<uint8_t> &Payload,
                            AckMessage &M) {
  ByteReader R(Payload.data(), Payload.size());
  uint8_t Ok = 0, Transient = 0;
  bool Good = R.u8(Ok) && R.u8(Transient) && R.str(M.Message) &&
              R.u64(M.LowCount) && R.u64(M.HighCount) && R.exhausted();
  M.Ok = Ok != 0;
  M.Transient = Transient != 0;
  return Good;
}

std::vector<uint8_t> cmcc::shard::encodeRunReply(const RunReply &M) {
  ByteWriter W;
  W.u8(M.Ok ? 1 : 0);
  W.u8(M.Transient ? 1 : 0);
  W.str(M.Message);
  putReport(W, M.Report);
  W.u64(M.ExchangeWaitNs);
  return W.take();
}

bool cmcc::shard::decodeRunReply(const std::vector<uint8_t> &Payload,
                                 RunReply &M) {
  ByteReader R(Payload.data(), Payload.size());
  uint8_t Ok = 0, Transient = 0;
  bool Good = R.u8(Ok) && R.u8(Transient) && R.str(M.Message) &&
              getReport(R, M.Report) && R.u64(M.ExchangeWaitNs) &&
              R.exhausted();
  M.Ok = Ok != 0;
  M.Transient = Transient != 0;
  return Good;
}

Error cmcc::shard::sendFrame(int Fd, net::MsgType Type, uint64_t RequestId,
                             const std::vector<uint8_t> &Payload) {
  if (Error E = net::writeFrame(Fd, Type, RequestId, /*Tenant=*/0, Payload))
    return Error::transient("shard frame send failed: " + E.message());
  return Error::success();
}

Expected<Frame> cmcc::shard::recvFrame(int Fd) {
  auto ReadAll = [&](uint8_t *Out, size_t Len) -> Error {
    size_t Done = 0;
    while (Done != Len) {
      ssize_t N = ::recv(Fd, Out + Done, Len - Done, 0);
      if (N == 0)
        return Error::transient("shard peer closed the socket");
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return Error::transient("shard frame recv failed: " +
                               std::string(std::strerror(errno)));
      }
      Done += static_cast<size_t>(N);
    }
    return Error::success();
  };

  uint8_t HeaderBytes[net::FrameHeaderBytes];
  if (Error E = ReadAll(HeaderBytes, sizeof(HeaderBytes)))
    return E;
  Expected<net::FrameHeader> H =
      net::decodeFrameHeader(HeaderBytes, sizeof(HeaderBytes));
  if (!H)
    return Error::transient("shard frame header invalid: " +
                           H.error().message());
  Frame F;
  F.Header = *H;
  F.Payload.resize(H->PayloadBytes);
  if (H->PayloadBytes != 0)
    if (Error E = ReadAll(F.Payload.data(), F.Payload.size()))
      return E;
  return F;
}
