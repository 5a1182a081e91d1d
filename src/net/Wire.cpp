//===- net/Wire.cpp -------------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"
#include "support/Fnv1a.h"

#include <cerrno>
#include <sys/socket.h>
#include <sys/uio.h>

using namespace cmcc;
using namespace cmcc::net;

bool net::isKnownMsgType(uint16_t Raw) {
  switch (static_cast<MsgType>(Raw)) {
  case MsgType::HelloRequest:
  case MsgType::HelloResponse:
  case MsgType::SubmitRequest:
  case MsgType::SubmitResponse:
  case MsgType::PollRequest:
  case MsgType::PollResponse:
  case MsgType::WaitRequest:
  case MsgType::WaitResponse:
  case MsgType::CancelRequest:
  case MsgType::CancelResponse:
  case MsgType::StatsRequest:
  case MsgType::StatsResponse:
  case MsgType::ErrorResponse:
  case MsgType::TimelineRequest:
  case MsgType::TimelineResponse:
  case MsgType::DumpRequest:
  case MsgType::DumpResponse:
  case MsgType::ShardInitRequest:
  case MsgType::ShardInitResponse:
  case MsgType::ShardPlanRequest:
  case MsgType::ShardPlanResponse:
  case MsgType::ShardDataRequest:
  case MsgType::ShardDataResponse:
  case MsgType::ShardRunRequest:
  case MsgType::ShardRunResponse:
  case MsgType::ShardHaloRequest:
  case MsgType::ShardHaloResponse:
  case MsgType::ShardShutdownRequest:
  case MsgType::ShardShutdownResponse:
    return true;
  }
  return false;
}

namespace {

void putLe16(uint8_t *Out, uint16_t V) {
  Out[0] = static_cast<uint8_t>(V);
  Out[1] = static_cast<uint8_t>(V >> 8);
}

void putLe32(uint8_t *Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

void putLe64(uint8_t *Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

uint16_t getLe16(const uint8_t *In) {
  return static_cast<uint16_t>(In[0] | (In[1] << 8));
}

uint32_t getLe32(const uint8_t *In) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(In[I]) << (8 * I);
  return V;
}

uint64_t getLe64(const uint8_t *In) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(In[I]) << (8 * I);
  return V;
}

} // namespace

void net::encodeFrameHeader(const FrameHeader &H, uint8_t *Out) {
  putLe32(Out + 0, FrameMagic);
  putLe16(Out + 4, H.Version);
  putLe16(Out + 6, static_cast<uint16_t>(H.Type));
  putLe32(Out + 8, H.Tenant);
  putLe64(Out + 12, H.RequestId);
  putLe32(Out + 20, H.PayloadBytes);
  putLe32(Out + 24, static_cast<uint32_t>(fnv1a(Out, 24)));
}

Expected<FrameHeader> net::decodeFrameHeader(const uint8_t *Data, size_t Len) {
  if (Len < FrameHeaderBytes)
    return Error::failure("frame header truncated: " + std::to_string(Len) + " of " +
                 std::to_string(FrameHeaderBytes) + " bytes");
  if (getLe32(Data + 0) != FrameMagic)
    return Error::failure("bad frame magic (not a cmcc protocol stream)");
  // Verify the checksum before trusting anything else in the header —
  // especially the length field.
  const uint32_t Want = static_cast<uint32_t>(fnv1a(Data, 24));
  if (getLe32(Data + 24) != Want)
    return Error::failure("frame header checksum mismatch");
  FrameHeader H;
  H.Version = getLe16(Data + 4);
  if (H.Version != ProtocolVersion)
    return Error::failure("unsupported protocol version " +
                          std::to_string(H.Version) + " (this end speaks " +
                          std::to_string(ProtocolVersion) + ")");
  const uint16_t RawType = getLe16(Data + 6);
  if (!isKnownMsgType(RawType))
    return Error::failure("unknown message type " + std::to_string(RawType));
  H.Type = static_cast<MsgType>(RawType);
  H.Tenant = getLe32(Data + 8);
  H.RequestId = getLe64(Data + 12);
  H.PayloadBytes = getLe32(Data + 20);
  if (H.PayloadBytes > MaxPayloadBytes)
    return Error::failure("frame payload of " + std::to_string(H.PayloadBytes) +
                 " bytes exceeds the " + std::to_string(MaxPayloadBytes) +
                 "-byte cap");
  return H;
}

void ByteWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Buf.insert(Buf.end(), S.begin(), S.end());
}

bool ByteReader::str(std::string &S, size_t MaxLen) {
  uint32_t N;
  if (!u32(N))
    return false;
  if (N > MaxLen || N > remaining()) {
    Failed = true;
    return false;
  }
  S.assign(reinterpret_cast<const char *>(Data + Pos), N);
  Pos += N;
  return true;
}

bool ByteReader::floats(const uint8_t *&Block, uint32_t &Count,
                        size_t MaxCount) {
  uint32_t N;
  if (!u32(N))
    return false;
  const size_t Bytes = static_cast<size_t>(N) * sizeof(float);
  // Validate the count against bytes actually present (plus the trailing
  // checksum) before anything trusts it.
  if (N > MaxCount || remaining() < Bytes + sizeof(uint32_t)) {
    Failed = true;
    return false;
  }
  const uint8_t *At = Data + Pos;
  Pos += Bytes;
  uint32_t Got;
  if (!u32(Got) || Got != crc32c(At, Bytes)) {
    Failed = true;
    return false;
  }
  Block = At;
  Count = N;
  return true;
}

std::array<uint8_t, FrameHeaderBytes>
net::frameHeader(MsgType Type, uint64_t RequestId, uint32_t Tenant,
                 uint32_t PayloadBytes) {
  FrameHeader H;
  H.Type = Type;
  H.Tenant = Tenant;
  H.RequestId = RequestId;
  H.PayloadBytes = PayloadBytes;
  std::array<uint8_t, FrameHeaderBytes> Out;
  encodeFrameHeader(H, Out.data());
  return Out;
}

ssize_t net::sendFrameBytes(int Fd, const uint8_t *Header,
                            const uint8_t *Payload, size_t PayloadBytes,
                            size_t Sent) {
  iovec Iov[2];
  int Count = 0;
  if (Sent < FrameHeaderBytes)
    Iov[Count++] = {const_cast<uint8_t *>(Header) + Sent,
                    FrameHeaderBytes - Sent};
  const size_t PayloadSent =
      Sent > FrameHeaderBytes ? Sent - FrameHeaderBytes : 0;
  if (PayloadSent < PayloadBytes)
    Iov[Count++] = {const_cast<uint8_t *>(Payload) + PayloadSent,
                    PayloadBytes - PayloadSent};
  msghdr Msg{};
  Msg.msg_iov = Iov;
  Msg.msg_iovlen = static_cast<size_t>(Count);
  return ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
}

Error net::writeFrame(int Fd, MsgType Type, uint64_t RequestId,
                      uint32_t Tenant, const std::vector<uint8_t> &Payload) {
  const auto Header = frameHeader(Type, RequestId, Tenant,
                                  static_cast<uint32_t>(Payload.size()));
  const size_t Total = FrameHeaderBytes + Payload.size();
  size_t Sent = 0;
  while (Sent != Total) {
    const ssize_t N =
        sendFrameBytes(Fd, Header.data(), Payload.data(), Payload.size(), Sent);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Error::failure(std::strerror(errno));
    }
    Sent += static_cast<size_t>(N);
  }
  return Error::success();
}
