//===- net/Wire.h - Length-prefixed binary wire format --------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level half of the cmcc network protocol (DESIGN.md §5h):
/// a versioned fixed-size frame header and bounds-checked little-endian
/// payload codecs. Everything the server reads off a socket flows
/// through ByteReader, whose contract is absolute: a truncated,
/// corrupted, or hostile byte stream produces a clean decode failure —
/// never a crash, never a read past the buffer, never an allocation
/// sized by an unvalidated length field.
///
/// Frame layout (28 bytes, little-endian, followed by PayloadBytes of
/// payload):
///
///   offset  size  field
///        0     4  magic      0x434D4331 ("CMC1" on a little-endian wire)
///        4     2  version    protocol version (exactly 3)
///        6     2  type       MsgType
///        8     4  tenant     tenant id (0 = anonymous default tenant)
///       12     8  request id caller-chosen correlation id, echoed back
///       20     4  payload length in bytes (<= MaxPayloadBytes)
///       24     4  header checksum: FNV-1a over bytes [0, 24)
///
/// The checksum is verified before the length field is trusted, so a
/// corrupt header cannot command a giant read. Float arrays travel as
/// raw IEEE-754 bit patterns followed by a u32 CRC32C of those bytes —
/// results that cross the wire are bitwise what the backend produced.
/// Both ends speak one version; a frame at any other is refused.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_NET_WIRE_H
#define CMCC_NET_WIRE_H

#include "support/Crc32c.h"
#include "support/Error.h"
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <sys/types.h>
#include <vector>

namespace cmcc {
namespace net {

/// "CMC1", read as a little-endian u32.
constexpr uint32_t FrameMagic = 0x31434D43u;

/// The one protocol version this library speaks. Bumped on any frame or
/// payload layout change; a frame of any other version is refused
/// cleanly, never translated.
constexpr uint16_t ProtocolVersion = 3;

/// Upper bound on one frame's payload. Large enough for a 2048-node
/// machine's gathered result grid, small enough that a corrupt or
/// hostile length field cannot balloon server memory.
constexpr uint32_t MaxPayloadBytes = 64u << 20;

/// Bytes in the fixed frame header.
constexpr size_t FrameHeaderBytes = 28;

/// Every message the protocol knows. Requests are odd, their responses
/// even (response = request + 1); ErrorResponse answers any request the
/// server could not serve.
enum class MsgType : uint16_t {
  HelloRequest = 1,
  HelloResponse = 2,
  SubmitRequest = 3,
  SubmitResponse = 4,
  PollRequest = 5,
  PollResponse = 6,
  WaitRequest = 7,
  WaitResponse = 8,
  CancelRequest = 9,
  CancelResponse = 10,
  StatsRequest = 11,
  StatsResponse = 12,
  ErrorResponse = 14,
  TimelineRequest = 15,
  TimelineResponse = 16,
  DumpRequest = 17,
  DumpResponse = 18,
  // The shard coordinator/worker protocol (src/shard/). Same framing,
  // same odd/even convention, but spoken only over the coordinator's
  // private socketpairs — a public server never accepts these.
  ShardInitRequest = 33,
  ShardInitResponse = 34,
  ShardPlanRequest = 35,
  ShardPlanResponse = 36,
  ShardDataRequest = 37,
  ShardDataResponse = 38,
  ShardRunRequest = 39,
  ShardRunResponse = 40,
  ShardHaloRequest = 41,
  ShardHaloResponse = 42,
  ShardShutdownRequest = 43,
  ShardShutdownResponse = 44,
};

/// True for type values this protocol version defines.
bool isKnownMsgType(uint16_t Raw);

/// The decoded fixed header of one frame.
struct FrameHeader {
  uint16_t Version = ProtocolVersion;
  MsgType Type = MsgType::ErrorResponse;
  uint32_t Tenant = 0;
  uint64_t RequestId = 0;
  uint32_t PayloadBytes = 0;
};

/// Encodes \p H into exactly FrameHeaderBytes at \p Out (checksum
/// included).
void encodeFrameHeader(const FrameHeader &H, uint8_t *Out);

/// Decodes a header from \p Data (which must hold at least
/// FrameHeaderBytes). Verifies magic, checksum, version (exactly
/// ProtocolVersion), known type, and the payload bound; the message
/// names which check failed.
Expected<FrameHeader> decodeFrameHeader(const uint8_t *Data, size_t Len);

/// Little-endian payload builder. Append-only; take() surrenders the
/// buffer.
class ByteWriter {
public:
  /// Bytes str() appends for \p S.
  static size_t strBytes(const std::string &S) { return 4 + S.size(); }
  /// Bytes floats() appends for \p Count floats.
  static size_t floatsBytes(size_t Count) {
    return 4 + Count * sizeof(float) + 4;
  }
  /// Sizes the buffer for \p Bytes in all, so large appends that follow
  /// do not reallocate it.
  void reserve(size_t Bytes) { Buf.reserve(Bytes); }

  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) { appendLe(V); }
  void u32(uint32_t V) { appendLe(V); }
  void u64(uint64_t V) { appendLe(V); }
  void i64(int64_t V) { appendLe(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    appendLe(Bits);
  }

  /// u32 length followed by the raw bytes.
  void str(const std::string &S);

  /// Raw bytes, as they are.
  void bytes(const void *Data, size_t Len) {
    const uint8_t *Raw = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), Raw, Raw + Len);
  }

  /// The float block: u32 element count, \p Count raw IEEE-754 floats
  /// that \p Append writes through bytes() (in order, in as many pieces
  /// as it likes, so a gather goes straight into the payload), then a
  /// u32 CRC32C of those float bytes.
  template <typename AppendFn> void floats(size_t Count, AppendFn &&Append) {
    u32(static_cast<uint32_t>(Count));
    const size_t At = Buf.size();
    Append();
    assert(Buf.size() - At == Count * sizeof(float) && "short float block");
    u32(crc32c(Buf.data() + At, Count * sizeof(float)));
  }
  /// The float block of \p Count contiguous floats at \p Data.
  void floats(const float *Data, size_t Count) {
    floats(Count, [&] { bytes(Data, Count * sizeof(float)); });
  }

  size_t size() const { return Buf.size(); }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  template <typename T> void appendLe(T V) {
    for (size_t I = 0; I != sizeof(T); ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// false (and latches the failure) instead of reading past the end;
/// decode functions test ok() once at the end. A length field is never
/// used to size an allocation before the remaining-bytes check proves
/// the bytes are actually present.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  bool u8(uint8_t &V) { return readLe(V); }
  bool u16(uint16_t &V) { return readLe(V); }
  bool u32(uint32_t &V) { return readLe(V); }
  bool u64(uint64_t &V) { return readLe(V); }
  bool i64(int64_t &V) {
    uint64_t Bits;
    if (!readLe(Bits))
      return false;
    V = static_cast<int64_t>(Bits);
    return true;
  }
  bool f64(double &V) {
    uint64_t Bits;
    if (!readLe(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof(V));
    return true;
  }

  /// Reads a u32-length-prefixed string of at most \p MaxLen bytes.
  bool str(std::string &S, size_t MaxLen = 1u << 20);

  /// Reads a float array written by ByteWriter::floats in place: on
  /// success \p Block points at its \p Count floats inside the payload
  /// (at whatever byte alignment the payload puts them). \p Block is set
  /// only after the checksum matched; a mismatch is a failed read.
  bool floats(const uint8_t *&Block, uint32_t &Count,
              size_t MaxCount = 1u << 24);

  /// True while no read has failed.
  bool ok() const { return !Failed; }

  /// True when the payload was consumed exactly — trailing garbage is
  /// a decode error at the message layer.
  bool exhausted() const { return !Failed && Pos == Len; }

  size_t remaining() const { return Len - Pos; }

private:
  template <typename T> bool readLe(T &V) {
    if (Failed || Len - Pos < sizeof(T)) {
      Failed = true;
      return false;
    }
    T Out = 0;
    for (size_t I = 0; I != sizeof(T); ++I)
      Out |= static_cast<T>(Data[Pos + I]) << (8 * I);
    V = Out;
    Pos += sizeof(T);
    return true;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
};

/// The encoded header of a frame announcing \p PayloadBytes of payload.
std::array<uint8_t, FrameHeaderBytes>
frameHeader(MsgType Type, uint64_t RequestId, uint32_t Tenant,
            uint32_t PayloadBytes);

/// One sendmsg(MSG_NOSIGNAL) of a frame's bytes from offset \p Sent on:
/// the rest of the header, then the rest of the payload, as two iovecs.
/// A partial write resumes mid-header or mid-payload on the next call
/// with the larger offset. Returns sendmsg's result (errno is set on -1).
ssize_t sendFrameBytes(int Fd, const uint8_t *Header, const uint8_t *Payload,
                       size_t PayloadBytes, size_t Sent);

/// Writes one whole frame to the blocking socket \p Fd, retrying partial
/// writes and EINTR. Fails with the strerror text of the failed send.
Error writeFrame(int Fd, MsgType Type, uint64_t RequestId, uint32_t Tenant,
                 const std::vector<uint8_t> &Payload);

} // namespace net
} // namespace cmcc

#endif // CMCC_NET_WIRE_H
