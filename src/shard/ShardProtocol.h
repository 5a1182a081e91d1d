//===- shard/ShardProtocol.h - Coordinator/worker messages ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control protocol between a shard coordinator and its worker
/// processes, spoken in the same length-prefixed frames as the public
/// network protocol (net/Wire.h) but over the coordinator's private
/// socketpairs — a public server never accepts Shard* types. Control
/// frames are small; every bulk float payload a frame announces streams
/// through the worker's ShmRing instead.
///
/// Conversation per worker, in order:
///
///   Init      — the global machine, the shard grid, this worker's
///               shard id, the inner backend and its options. The
///               worker derives its PartitionDomain and narrowed
///               MachineConfig and constructs the backend with the
///               partition/transport seam plugged in.
///   Plan      — a compiled stencil by plan fingerprint, carried as
///               .cmccode text; the worker parses, re-verifies, and
///               caches it. Sent once per (worker, fingerprint).
///   Data      — one array's local block: slot id + shape in the
///               frame, the floats through the ring.
///   Run       — execute a cached plan over slotted arrays. While it
///               runs, the *worker* initiates Halo requests at each
///               §5.1 exchange step; the coordinator relays blocks
///               between workers. The response carries the timing
///               report, then the result block streams back.
///   Shutdown  — orderly exit.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SHARD_SHARDPROTOCOL_H
#define CMCC_SHARD_SHARDPROTOCOL_H

#include "cm2/MachineConfig.h"
#include "cm2/Timing.h"
#include "net/Wire.h"
#include "runtime/Partition.h"
#include "support/Error.h"
#include <cstdint>
#include <string>
#include <vector>

namespace cmcc {
namespace shard {

/// ShardInitRequest payload.
struct InitMessage {
  MachineConfig Config; ///< The *global* machine.
  int ShardRows = 1;
  int ShardCols = 1;
  int Shard = 0;
  std::string Backend; ///< Inner backend name ("cm2", "native", "njit").
  // Executor/backend options that must match the unsharded run.
  uint16_t Primitive = 0;
  bool AllowCornerSkip = true;
  bool UseHalfStrips = true;
  bool UseFastPath = true;
  int ForceWidth = 0;
  int ThreadCount = 0;
  long TimeoutMs = 120000;
};

/// ShardPlanRequest payload (the .cmccode text of one compiled plan).
struct PlanMessage {
  uint64_t Fingerprint = 0;
  std::string Text;
};

/// ShardDataRequest payload; FloatCount floats follow through the ring.
struct DataMessage {
  uint32_t Slot = 0;
  int SubRows = 0;
  int SubCols = 0;
  uint64_t FloatCount = 0;
};

/// ShardRunRequest payload.
struct RunMessage {
  uint64_t Fingerprint = 0;
  int Iterations = 1;
  /// Time-tile depth (RunOptions::TimeTile); 1 = classic single step.
  int TimeTile = 1;
  int SubRows = 0;
  int SubCols = 0;
  uint64_t TraceId = 0;
  uint64_t ParentSpan = 0;
  /// Slot of each StencilSpec source, by source index.
  std::vector<uint32_t> SourceSlots;
  /// Slot per tap; -1 for taps without an array coefficient.
  std::vector<int64_t> TapSlots;
};

/// ShardHaloRequest payload (worker -> coordinator); the Low then High
/// blocks follow through the ring, ToCoordinator.
struct HaloMessage {
  uint32_t SourceIndex = 0;
  uint16_t Step = 0; ///< HaloStep as an int.
  uint64_t LowCount = 0;
  uint64_t HighCount = 0;
};

/// Generic response payload (Init/Plan/Data/Shutdown responses, and
/// ShardHaloResponse with the counts of the blocks that follow through
/// the ring, ToWorker).
struct AckMessage {
  bool Ok = true;
  bool Transient = false;
  std::string Message;
  uint64_t LowCount = 0;  ///< Halo responses only.
  uint64_t HighCount = 0; ///< Halo responses only.
};

/// ShardRunResponse payload; on Ok, the result block's floats follow
/// through the ring, ToCoordinator.
struct RunReply {
  bool Ok = true;
  bool Transient = false;
  std::string Message;
  TimingReport Report;
  /// Total nanoseconds this worker spent blocked in halo exchanges.
  uint64_t ExchangeWaitNs = 0;
};

std::vector<uint8_t> encodeInit(const InitMessage &M);
std::vector<uint8_t> encodePlan(const PlanMessage &M);
std::vector<uint8_t> encodeData(const DataMessage &M);
std::vector<uint8_t> encodeRun(const RunMessage &M);
std::vector<uint8_t> encodeHalo(const HaloMessage &M);
std::vector<uint8_t> encodeAck(const AckMessage &M);
std::vector<uint8_t> encodeRunReply(const RunReply &M);

bool decodeInit(const std::vector<uint8_t> &Payload, InitMessage &M);
bool decodePlan(const std::vector<uint8_t> &Payload, PlanMessage &M);
bool decodeData(const std::vector<uint8_t> &Payload, DataMessage &M);
bool decodeRun(const std::vector<uint8_t> &Payload, RunMessage &M);
bool decodeHalo(const std::vector<uint8_t> &Payload, HaloMessage &M);
bool decodeAck(const std::vector<uint8_t> &Payload, AckMessage &M);
bool decodeRunReply(const std::vector<uint8_t> &Payload, RunReply &M);

/// One received frame.
struct Frame {
  net::FrameHeader Header;
  std::vector<uint8_t> Payload;
};

/// Writes one complete frame to \p Fd (send with MSG_NOSIGNAL — a dead
/// peer is a transient error, never a SIGPIPE).
Error sendFrame(int Fd, net::MsgType Type, uint64_t RequestId,
                const std::vector<uint8_t> &Payload);

/// Reads one complete frame from \p Fd. EOF, a timeout (SO_RCVTIMEO),
/// and a malformed header are all transient errors — each means the
/// peer is gone or unusable, and the retry ladder owns what happens
/// next.
Expected<Frame> recvFrame(int Fd);

} // namespace shard
} // namespace cmcc

#endif // CMCC_SHARD_SHARDPROTOCOL_H
