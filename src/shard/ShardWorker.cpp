//===- shard/ShardWorker.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "shard/ShardWorker.h"
#include "backends/Registry.h"
#include "core/ScheduleIO.h"
#include "obs/TraceContext.h"
#include "runtime/HaloTransport.h"
#include "runtime/Partition.h"
#include "shard/ShardProtocol.h"
#include "shard/ShmRing.h"
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace cmcc;
using namespace cmcc::shard;

namespace {

/// The worker's side of the transport seam: each exchange sends a
/// ShardHaloRequest frame, streams this shard's edge blocks through the
/// ToCoordinator ring, then blocks on the coordinator's response (the
/// relay) and reads the neighbors' blocks back from the ToWorker ring.
/// The coordinator answers every in-flight request each round — either
/// with blocks or with an abort ack when a sibling died — so a blocked
/// exchange always terminates.
class SocketTransport : public HaloTransport {
public:
  SocketTransport(int SocketFd, ShmRing &Ring)
      : SocketFd(SocketFd), Ring(Ring) {}

  Expected<HaloBlocks> exchange(int SourceIndex, HaloStep Step,
                                const HaloBlocks &Out) override {
    const auto Start = std::chrono::steady_clock::now();
    HaloMessage M;
    M.SourceIndex = static_cast<uint32_t>(SourceIndex);
    M.Step = static_cast<uint16_t>(Step);
    M.LowCount = Out.Low.size();
    M.HighCount = Out.High.size();
    if (Error E = sendFrame(SocketFd, net::MsgType::ShardHaloRequest,
                            ++RequestId, encodeHalo(M)))
      return E;
    if (Error E =
            Ring.writeFloats(RingDir::ToCoordinator, Out.Low.data(),
                             Out.Low.size()))
      return E;
    if (Error E = Ring.writeFloats(RingDir::ToCoordinator, Out.High.data(),
                                   Out.High.size()))
      return E;

    Expected<Frame> F = recvFrame(SocketFd);
    if (!F)
      return F.error();
    AckMessage Ack;
    if (F->Header.Type != net::MsgType::ShardHaloResponse ||
        !decodeAck(F->Payload, Ack))
      return Error::transient("shard worker: malformed halo response");
    if (!Ack.Ok)
      return Error::transient("shard exchange aborted: " + Ack.Message);

    HaloBlocks In;
    In.Low.resize(Ack.LowCount);
    In.High.resize(Ack.HighCount);
    if (Error E =
            Ring.readFloats(RingDir::ToWorker, In.Low.data(), In.Low.size()))
      return E;
    if (Error E = Ring.readFloats(RingDir::ToWorker, In.High.data(),
                                  In.High.size()))
      return E;
    WaitNs += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    return In;
  }

  /// Nanoseconds spent inside exchange() since the last reset — the
  /// per-run blocked time the RunReply reports back.
  uint64_t WaitNs = 0;

private:
  int SocketFd;
  ShmRing &Ring;
  uint64_t RequestId = 0;
};

/// Everything one Init establishes. The Domain/Transport pointers handed
/// to the backend refer into this struct, so it lives on the heap at a
/// stable address for the worker's lifetime.
struct WorkerState {
  MachineConfig GlobalConfig;
  MachineConfig LocalConfig;
  PartitionDomain Domain;
  std::unique_ptr<SocketTransport> Transport;
  std::unique_ptr<const ExecutionBackend> Backend;
  /// Plans parsed (and re-verified) once, keyed by the coordinator's
  /// plan fingerprint.
  std::map<uint64_t, CompiledStencil> Plans;
  /// Local blocks of the scattered arrays, by coordinator slot id.
  std::map<uint32_t, std::unique_ptr<DistributedArray>> Slots;
};

Expected<WorkerState> initialize(const InitMessage &Init, int SocketFd,
                                 ShmRing &Ring) {
  Expected<ShardGrid> SG = makeShardGrid(Init.Config.NodeRows,
                                         Init.Config.NodeCols, Init.ShardRows,
                                         Init.ShardCols);
  if (!SG)
    return SG.error();
  if (Init.Shard < 0 || Init.Shard >= SG->count())
    return makeError("shard worker: shard id out of range");
  if (!isBackendName(Init.Backend))
    return unknownBackendError(Init.Backend);

  WorkerState State;
  State.GlobalConfig = Init.Config;
  State.Domain = shardDomain(*SG, Init.Shard, Init.Config.NodeRows,
                             Init.Config.NodeCols);
  State.LocalConfig = shardMachineConfig(Init.Config, State.Domain);
  State.Transport = std::make_unique<SocketTransport>(SocketFd, Ring);
  return State;
}

/// Completes initialize() once the state has its final address: the
/// backend captures pointers into \p State.
Error buildBackend(WorkerState &State, const InitMessage &Init) {
  Executor::Options Opts;
  Opts.Primitive = static_cast<CommPrimitive>(Init.Primitive);
  Opts.AllowCornerSkip = Init.AllowCornerSkip;
  Opts.UseHalfStrips = Init.UseHalfStrips;
  Opts.UseFastPath = Init.UseFastPath;
  Opts.ForceWidth = Init.ForceWidth;
  Opts.ThreadCount = Init.ThreadCount;
  Opts.Mode = Executor::FunctionalMode::AllNodes;
  Opts.Domain = &State.Domain;
  Opts.Transport = State.Transport.get();
  State.Backend = createBackend(Init.Backend, State.LocalConfig, Opts);
  if (!State.Backend)
    return unknownBackendError(Init.Backend);
  return Error::success();
}

Error sendAck(int Fd, net::MsgType Type, uint64_t RequestId,
              const AckMessage &Ack) {
  return sendFrame(Fd, Type, RequestId, encodeAck(Ack));
}

AckMessage errorAck(const Error &E) {
  AckMessage Ack;
  Ack.Ok = false;
  Ack.Transient = E.isTransient();
  Ack.Message = E.message();
  return Ack;
}

/// Streams one local array through the ring in local node-id order —
/// the scatter/gather order both sides agree on.
Error streamSubgrids(ShmRing &Ring, RingDir Dir, const DistributedArray &A,
                     bool Writing, DistributedArray *Dst) {
  const NodeGrid &Grid = A.grid();
  for (int Id = 0; Id < Grid.nodeCount(); ++Id) {
    const NodeCoord At = Grid.coordOf(Id);
    if (Error E = Writing ? Ring.writeRows(Dir, A.subgrid(At))
                          : Ring.readRows(Dir, Dst->subgrid(At)))
      return E;
  }
  return Error::success();
}

} // namespace

int cmcc::shard::runShardWorker(int SocketFd, int ShmFd) {
  Expected<ShmRing> RingOrErr = ShmRing::attach(ShmFd, shardTimeoutMs());
  if (!RingOrErr)
    return 1;
  ShmRing Ring = RingOrErr.takeValue();

  std::unique_ptr<WorkerState> State;

  for (;;) {
    Expected<Frame> F = recvFrame(SocketFd);
    if (!F)
      return 0; // Coordinator gone (EOF): a worker has nothing to save.
    const net::MsgType Type = F->Header.Type;
    const uint64_t Req = F->Header.RequestId;

    switch (Type) {
    case net::MsgType::ShardInitRequest: {
      InitMessage Init;
      if (!decodeInit(F->Payload, Init)) {
        (void)sendAck(SocketFd, net::MsgType::ShardInitResponse, Req,
                      errorAck(makeError("malformed ShardInit payload")));
        break;
      }
      Expected<WorkerState> NewState = initialize(Init, SocketFd, Ring);
      if (!NewState) {
        (void)sendAck(SocketFd, net::MsgType::ShardInitResponse, Req,
                      errorAck(NewState.error()));
        break;
      }
      auto Fresh = std::make_unique<WorkerState>(NewState.takeValue());
      if (Error E = buildBackend(*Fresh, Init)) {
        (void)sendAck(SocketFd, net::MsgType::ShardInitResponse, Req,
                      errorAck(E));
        break;
      }
      State = std::move(Fresh);
      (void)sendAck(SocketFd, net::MsgType::ShardInitResponse, Req, {});
      break;
    }

    case net::MsgType::ShardPlanRequest: {
      PlanMessage M;
      if (!State || !decodePlan(F->Payload, M)) {
        (void)sendAck(SocketFd, net::MsgType::ShardPlanResponse, Req,
                      errorAck(makeError("ShardPlan before Init, or "
                                         "malformed payload")));
        break;
      }
      // Parse against the *global* machine: schedule re-verification
      // (register budgets, pipeline model) is grid-independent, and the
      // global config is the one the plan was compiled for.
      Expected<CompiledStencil> Plan =
          parseCompiledStencil(M.Text, State->GlobalConfig);
      if (!Plan) {
        (void)sendAck(SocketFd, net::MsgType::ShardPlanResponse, Req,
                      errorAck(Plan.error()));
        break;
      }
      State->Plans.insert_or_assign(M.Fingerprint, Plan.takeValue());
      (void)sendAck(SocketFd, net::MsgType::ShardPlanResponse, Req, {});
      break;
    }

    case net::MsgType::ShardDataRequest: {
      DataMessage M;
      if (!State || !decodeData(F->Payload, M)) {
        (void)sendAck(SocketFd, net::MsgType::ShardDataResponse, Req,
                      errorAck(makeError("ShardData before Init, or "
                                         "malformed payload")));
        break;
      }
      const uint64_t Expect = static_cast<uint64_t>(State->Domain
                                                        .localNodeCount()) *
                              static_cast<uint64_t>(M.SubRows) *
                              static_cast<uint64_t>(M.SubCols);
      if (M.SubRows <= 0 || M.SubCols <= 0 || M.FloatCount != Expect) {
        // The floats are already committed to the ring; drain them so
        // the stream stays aligned for the next message.
        (void)Ring.discard(RingDir::ToWorker,
                           static_cast<size_t>(M.FloatCount) * sizeof(float));
        (void)sendAck(SocketFd, net::MsgType::ShardDataResponse, Req,
                      errorAck(makeError("ShardData shape/count mismatch")));
        break;
      }
      // A slot keeps its array while the subgrid shape holds, so the
      // margin an earlier run grew stays resident and only the cores are
      // rewritten.
      std::unique_ptr<DistributedArray> &A = State->Slots[M.Slot];
      if (!A || A->subRows() != M.SubRows || A->subCols() != M.SubCols)
        A = std::make_unique<DistributedArray>(
            NodeGrid(State->LocalConfig), M.SubRows, M.SubCols);
      if (Error E = streamSubgrids(Ring, RingDir::ToWorker, *A,
                                   /*Writing=*/false, A.get())) {
        // Half-streamed data must not serve a run.
        State->Slots.erase(M.Slot);
        (void)sendAck(SocketFd, net::MsgType::ShardDataResponse, Req,
                      errorAck(E));
        break;
      }
      (void)sendAck(SocketFd, net::MsgType::ShardDataResponse, Req, {});
      break;
    }

    case net::MsgType::ShardRunRequest: {
      RunMessage M;
      RunReply Reply;
      if (!State || !decodeRun(F->Payload, M)) {
        Reply.Ok = false;
        Reply.Message = "ShardRun before Init, or malformed payload";
        (void)sendFrame(SocketFd, net::MsgType::ShardRunResponse, Req,
                        encodeRunReply(Reply));
        break;
      }
      auto PlanIt = State->Plans.find(M.Fingerprint);
      ResolvedStencilArguments Resolved;
      std::unique_ptr<DistributedArray> Result;
      Error Setup = Error::success();
      if (PlanIt == State->Plans.end()) {
        Setup = makeError("ShardRun names an unknown plan fingerprint");
      } else if (M.SourceSlots.size() !=
                     static_cast<size_t>(PlanIt->second.Spec.sourceCount()) ||
                 M.TapSlots.size() != PlanIt->second.Spec.Taps.size()) {
        Setup = makeError("ShardRun slot lists do not match the plan");
      } else if (M.SubRows <= 0 || M.SubCols <= 0) {
        Setup = makeError("ShardRun result shape is invalid");
      } else {
        NodeGrid LocalGrid(State->LocalConfig);
        Result = std::make_unique<DistributedArray>(LocalGrid, M.SubRows,
                                                    M.SubCols);
        Resolved.Result = Result.get();
        for (uint32_t Slot : M.SourceSlots) {
          auto It = State->Slots.find(Slot);
          if (It == State->Slots.end()) {
            Setup = makeError("ShardRun source slot was never scattered");
            break;
          }
          Resolved.Sources.push_back(It->second.get());
        }
        if (!Setup)
          for (int64_t Slot : M.TapSlots) {
            if (Slot < 0) {
              Resolved.TapCoefficients.push_back(nullptr);
              continue;
            }
            auto It = State->Slots.find(static_cast<uint32_t>(Slot));
            if (It == State->Slots.end()) {
              Setup = makeError("ShardRun tap slot was never scattered");
              break;
            }
            Resolved.TapCoefficients.push_back(It->second.get());
          }
      }
      if (Setup) {
        Reply.Ok = false;
        Reply.Transient = Setup.isTransient();
        Reply.Message = Setup.message();
        (void)sendFrame(SocketFd, net::MsgType::ShardRunResponse, Req,
                        encodeRunReply(Reply));
        break;
      }

      // Execute under the job's trace so every worker's spans join the
      // coordinator's timeline.
      obs::ScopedTraceContext TraceScope(M.TraceId, M.ParentSpan);
      State->Transport->WaitNs = 0;
      RunOptions RO;
      RO.Iterations = M.Iterations;
      RO.TimeTile = M.TimeTile;
      Expected<TimingReport> R =
          State->Backend->runResolved(PlanIt->second, Resolved, RO);
      if (!R) {
        Reply.Ok = false;
        Reply.Transient = R.error().isTransient();
        Reply.Message = R.error().message();
        (void)sendFrame(SocketFd, net::MsgType::ShardRunResponse, Req,
                        encodeRunReply(Reply));
        break;
      }
      Reply.Report = *R;
      Reply.ExchangeWaitNs = State->Transport->WaitNs;
      if (Error E = sendFrame(SocketFd, net::MsgType::ShardRunResponse, Req,
                              encodeRunReply(Reply)))
        return 0;
      if (Error E = streamSubgrids(Ring, RingDir::ToCoordinator, *Result,
                                   /*Writing=*/true, nullptr))
        return 0;
      break;
    }

    case net::MsgType::ShardShutdownRequest:
      (void)sendAck(SocketFd, net::MsgType::ShardShutdownResponse, Req, {});
      return 0;

    default:
      // An unexpected type on the private pair means the two sides have
      // desynchronized; nothing on this socket can be trusted anymore.
      return 1;
    }
  }
}
