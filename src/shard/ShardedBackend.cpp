//===- shard/ShardedBackend.cpp -------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "shard/ShardedBackend.h"
#include "core/PlanFingerprint.h"
#include "core/ScheduleIO.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "shard/ShardProtocol.h"
#include "shard/ShmRing.h"
#include "support/FaultInjection.h"
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace cmcc;
using namespace cmcc::shard;

namespace {

/// Power-of-two nanosecond buckets matching the registry's default
/// microsecond latency scale.
std::vector<double> exchangeNsBounds() {
  std::vector<double> Bounds = obs::Histogram::latencyBoundsUs();
  for (double &B : Bounds)
    B *= 1000.0;
  return Bounds;
}

AckMessage abortAck() {
  AckMessage Abort;
  Abort.Ok = false;
  Abort.Transient = true;
  Abort.Message = "shard run aborted";
  return Abort;
}

} // namespace

/// One worker process and its plumbing. Indexed by shard id.
struct ShardedBackend::Worker {
  pid_t Pid = -1;
  int SocketFd = -1;
  ShmRing Ring;
  PartitionDomain Domain;
  bool Alive = false;
  uint64_t NextRequestId = 0;
  /// Plan fingerprints this process has parsed and cached.
  std::set<uint64_t> PlansSent;

  ~Worker() {
    if (SocketFd >= 0)
      ::close(SocketFd);
  }

  /// Declares the worker lost: closes the socket (the worker exits on
  /// EOF if it is still running), reaps the process, and counts the
  /// death. The slot respawns on the next run.
  void die() {
    if (SocketFd >= 0) {
      ::close(SocketFd);
      SocketFd = -1;
    }
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      Pid = -1;
    }
    if (Alive) {
      Alive = false;
      obs::Registry::process().counter("shard.deaths").add(1);
    }
  }

  Error send(net::MsgType Type, const std::vector<uint8_t> &Payload) {
    return sendFrame(SocketFd, Type, ++NextRequestId, Payload);
  }

  /// Receives the response frame of \p Type and surfaces a non-Ok ack
  /// as the Error it encodes.
  Expected<AckMessage> expectAck(net::MsgType Type) {
    Expected<Frame> F = recvFrame(SocketFd);
    if (!F)
      return F.error();
    AckMessage Ack;
    if (F->Header.Type != Type || !decodeAck(F->Payload, Ack))
      return Error::transient("shard worker sent an unexpected frame");
    if (!Ack.Ok)
      return Ack.Transient ? Error::transient(Ack.Message)
                           : makeError(Ack.Message);
    return Ack;
  }

  Error call(net::MsgType Req, const std::vector<uint8_t> &Payload,
             net::MsgType Resp) {
    if (Error E = send(Req, Payload))
      return E;
    Expected<AckMessage> Ack = expectAck(Resp);
    return Ack ? Error::success() : Ack.error();
  }

  /// Drives this worker out of an in-flight run so the socket and ring
  /// are clean for the next one: answers halo requests with abort acks
  /// (draining their announced ring bytes first) until the worker's
  /// RunReply arrives, and drains the streamed result of a reply that
  /// reported success. \p PendingHalo marks a halo request already read
  /// off the socket (its outgoing blocks already drained) that still
  /// awaits a response; \p AlreadyDone marks a worker whose RunReply was
  /// already read (\p DoneOk its verdict).
  void quiesce(uint64_t ResultFloatCount, bool PendingHalo,
               uint64_t PendingReq, bool AlreadyDone, bool DoneOk) {
    if (!Alive)
      return;
    if (AlreadyDone) {
      if (DoneOk && Ring.discard(RingDir::ToCoordinator,
                                 ResultFloatCount * sizeof(float)))
        die();
      return;
    }
    if (PendingHalo && sendFrame(SocketFd, net::MsgType::ShardHaloResponse,
                                 PendingReq, encodeAck(abortAck()))) {
      die();
      return;
    }
    for (;;) {
      Expected<Frame> F = recvFrame(SocketFd);
      if (!F) {
        die();
        return;
      }
      if (F->Header.Type == net::MsgType::ShardHaloRequest) {
        HaloMessage H;
        if (!decodeHalo(F->Payload, H) ||
            Ring.discard(RingDir::ToCoordinator,
                         (H.LowCount + H.HighCount) * sizeof(float)) ||
            sendFrame(SocketFd, net::MsgType::ShardHaloResponse,
                      F->Header.RequestId, encodeAck(abortAck()))) {
          die();
          return;
        }
        continue;
      }
      if (F->Header.Type == net::MsgType::ShardRunResponse) {
        RunReply R;
        if (!decodeRunReply(F->Payload, R)) {
          die();
          return;
        }
        if (R.Ok && Ring.discard(RingDir::ToCoordinator,
                                 ResultFloatCount * sizeof(float)))
          die();
        return;
      }
      die();
      return;
    }
  }
};

ShardedBackend::ShardedBackend(const MachineConfig &Config, Options O)
    : Config(Config), Opts(std::move(O)), InnerName(Opts.InnerBackend) {
  Expected<ShardGrid> SG =
      (Opts.ShardRows > 0 && Opts.ShardCols > 0)
          ? makeShardGrid(Config.NodeRows, Config.NodeCols, Opts.ShardRows,
                          Opts.ShardCols)
          : chooseShardGrid(Config.NodeRows, Config.NodeCols, Opts.Shards);
  if (!SG) {
    GridError = SG.error();
    return;
  }
  Grid = *SG;
  Workers.resize(static_cast<size_t>(Grid.count()));
}

ShardedBackend::~ShardedBackend() {
  for (auto &W : Workers) {
    if (!W)
      continue;
    if (W->Alive && W->SocketFd >= 0)
      (void)sendFrame(W->SocketFd, net::MsgType::ShardShutdownRequest,
                      ++W->NextRequestId, {});
    if (W->SocketFd >= 0) {
      ::close(W->SocketFd);
      W->SocketFd = -1;
    }
    if (W->Pid > 0) {
      // A healthy worker exits on shutdown/EOF promptly; escalate only
      // if it wedges.
      bool Reaped = false;
      for (int I = 0; I != 200 && !Reaped; ++I) {
        if (::waitpid(W->Pid, nullptr, WNOHANG) != 0)
          Reaped = true;
        else
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!Reaped) {
        ::kill(W->Pid, SIGKILL);
        ::waitpid(W->Pid, nullptr, 0);
      }
      W->Pid = -1;
    }
  }
}

const char *ShardedBackend::name() const { return InnerName.c_str(); }

bool ShardedBackend::reportsWallClock() const { return InnerName != "cm2"; }

std::string ShardedBackend::workerPath() const {
  if (!Opts.WorkerPath.empty())
    return Opts.WorkerPath;
  if (const char *Env = std::getenv("CMCC_SHARD_WORKER"))
    if (*Env)
      return Env;
#ifdef CMCC_SHARD_WORKER_DEFAULT
  return CMCC_SHARD_WORKER_DEFAULT;
#else
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    std::string Self(Buf);
    size_t Slash = Self.rfind('/');
    if (Slash != std::string::npos)
      return Self.substr(0, Slash + 1) + "cmcc_shard_worker";
  }
  return "cmcc_shard_worker";
#endif
}

Error ShardedBackend::spawnWorker(int Shard) const {
  if (fault::probe("shard.spawn"))
    return fault::injectedFault("shard.spawn");

  Expected<ShmRing> RingOrErr =
      ShmRing::create(shardRingBytes(), shardTimeoutMs());
  if (!RingOrErr)
    return RingOrErr.error();
  ::fcntl(RingOrErr->fd(), F_SETFD, FD_CLOEXEC);

  int Sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Sv) != 0)
    return Error::transient(std::string("shard spawn: socketpair: ") +
                            std::strerror(errno));

  // The child's copies live at fds >= 10 (plain dups are inheritable)
  // and are dup2'd onto the fixed fds 3 and 4 by the spawn file
  // actions; pre-dup'ing sidesteps adddup2's same-fd corner cases.
  int ChildSock = ::fcntl(Sv[1], F_DUPFD, 10);
  int ChildRing = ::fcntl(RingOrErr->fd(), F_DUPFD, 10);
  ::close(Sv[1]);
  if (ChildSock < 0 || ChildRing < 0) {
    if (ChildSock >= 0)
      ::close(ChildSock);
    if (ChildRing >= 0)
      ::close(ChildRing);
    ::close(Sv[0]);
    return Error::transient("shard spawn: cannot dup worker fds");
  }

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, ChildSock, 3);
  posix_spawn_file_actions_adddup2(&Actions, ChildRing, 4);

  const std::string Path = workerPath();
  std::string ArgSock = "--socket-fd=3";
  std::string ArgRing = "--shm-fd=4";
  std::string ArgShard = "--shard=" + std::to_string(Shard);
  std::vector<char *> Argv = {const_cast<char *>(Path.c_str()),
                              ArgSock.data(), ArgRing.data(), ArgShard.data(),
                              nullptr};

  // Inherit the environment, but point each worker's trace (if any) at
  // its own file: "run.json" -> "run.shard<i>.json".
  std::vector<std::string> EnvStore;
  for (char **E = environ; *E; ++E) {
    std::string S(*E);
    const std::string Key = "CMCC_TRACE=";
    if (S.rfind(Key, 0) == 0 && S.size() > Key.size()) {
      std::string Stem = S.substr(Key.size());
      const std::string Ext = ".json";
      if (Stem.size() > Ext.size() &&
          Stem.compare(Stem.size() - Ext.size(), Ext.size(), Ext) == 0)
        Stem.resize(Stem.size() - Ext.size());
      S = Key + Stem + ".shard" + std::to_string(Shard) + ".json";
    }
    EnvStore.push_back(std::move(S));
  }
  std::vector<char *> Envp;
  for (std::string &S : EnvStore)
    Envp.push_back(S.data());
  Envp.push_back(nullptr);

  pid_t Pid = -1;
  int Rc = ::posix_spawn(&Pid, Path.c_str(), &Actions, nullptr, Argv.data(),
                         Envp.data());
  posix_spawn_file_actions_destroy(&Actions);
  ::close(ChildSock);
  ::close(ChildRing);
  if (Rc != 0) {
    ::close(Sv[0]);
    return Error::transient("cannot spawn shard worker '" + Path +
                            "': " + std::strerror(Rc));
  }

  // Frame reads time out rather than hang forever on a wedged worker.
  const long Ms = shardTimeoutMs();
  struct timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = (Ms % 1000) * 1000;
  ::setsockopt(Sv[0], SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));

  auto W = std::make_unique<Worker>();
  W->Pid = Pid;
  W->SocketFd = Sv[0];
  W->Ring = RingOrErr.takeValue();
  W->Ring.setPeer(Pid);
  W->Domain = shardDomain(Grid, Shard, Config.NodeRows, Config.NodeCols);
  W->Alive = true;

  InitMessage Init;
  Init.Config = Config;
  Init.ShardRows = Grid.Rows;
  Init.ShardCols = Grid.Cols;
  Init.Shard = Shard;
  Init.Backend = Opts.InnerBackend;
  Init.Primitive = static_cast<uint16_t>(Opts.ExecOpts.Primitive);
  Init.AllowCornerSkip = Opts.ExecOpts.AllowCornerSkip;
  Init.UseHalfStrips = Opts.ExecOpts.UseHalfStrips;
  Init.UseFastPath = Opts.ExecOpts.UseFastPath;
  Init.ForceWidth = Opts.ExecOpts.ForceWidth;
  Init.ThreadCount = Opts.ExecOpts.ThreadCount;
  Init.TimeoutMs = shardTimeoutMs();
  if (Error E = W->call(net::MsgType::ShardInitRequest, encodeInit(Init),
                        net::MsgType::ShardInitResponse)) {
    W->die();
    return E.isTransient() ? std::move(E) : Error::transient(E.message());
  }

  Workers[static_cast<size_t>(Shard)] = std::move(W);
  return Error::success();
}

Error ShardedBackend::ensureWorkers() const {
  for (int I = 0; I != Grid.count(); ++I) {
    auto &Slot = Workers[static_cast<size_t>(I)];
    if (Slot && Slot->Alive)
      continue;
    const bool Respawn = Slot != nullptr;
    Slot.reset();
    if (Error E = spawnWorker(I))
      return E;
    obs::Registry &Reg = obs::Registry::process();
    Reg.counter("shard.spawns").add(1);
    if (Respawn)
      Reg.counter("shard.respawns").add(1);
  }
  return Error::success();
}

Error ShardedBackend::ensurePlan(const CompiledStencil &Compiled,
                                 uint64_t Fingerprint, Worker &W) const {
  if (W.PlansSent.count(Fingerprint))
    return Error::success();
  auto It = PlanTexts.find(Fingerprint);
  if (It == PlanTexts.end())
    It = PlanTexts.emplace(Fingerprint, writeCompiledStencil(Compiled, Config))
             .first;
  PlanMessage M;
  M.Fingerprint = Fingerprint;
  M.Text = It->second;
  if (Error E = W.call(net::MsgType::ShardPlanRequest, encodePlan(M),
                       net::MsgType::ShardPlanResponse))
    return E;
  W.PlansSent.insert(Fingerprint);
  return Error::success();
}

Error ShardedBackend::scatterArray(Worker &W, uint32_t Slot,
                                   const DistributedArray &A) const {
  const uint64_t PerNode = static_cast<uint64_t>(A.subRows()) *
                           static_cast<uint64_t>(A.subCols());
  DataMessage M;
  M.Slot = Slot;
  M.SubRows = A.subRows();
  M.SubCols = A.subCols();
  M.FloatCount = PerNode * static_cast<uint64_t>(W.Domain.localNodeCount());
  if (Error E = W.send(net::MsgType::ShardDataRequest, encodeData(M)))
    return E;
  // Local node-id order (row-major over the shard's block), the order
  // the worker fills its subgrids in.
  for (int LR = 0; LR != W.Domain.LocalRows; ++LR)
    for (int LC = 0; LC != W.Domain.LocalCols; ++LC) {
      const NodeCoord At{W.Domain.globalRow(LR), W.Domain.globalCol(LC)};
      if (Error E = W.Ring.writeRows(RingDir::ToWorker, A.subgrid(At)))
        return E;
    }
  Expected<AckMessage> Ack = W.expectAck(net::MsgType::ShardDataResponse);
  return Ack ? Error::success() : Ack.error();
}

Error ShardedBackend::relayAndGather(const ResolvedStencilArguments &Resolved,
                                     std::vector<TimingReport> &Reports) const {
  const int N = Grid.count();
  const uint64_t ResultPerNode =
      static_cast<uint64_t>(Resolved.Result->subRows()) *
      static_cast<uint64_t>(Resolved.Result->subCols());
  obs::Registry &Reg = obs::Registry::process();
  obs::Histogram &ExchangeNs =
      Reg.histogram("shard.exchange_ns", exchangeNsBounds());

  struct RoundMsg {
    bool Got = false;
    bool IsHalo = false;
    uint64_t Req = 0;
    HaloMessage Halo;
    HaloBlocks Out; ///< Halo messages: the drained outgoing blocks.
    RunReply Reply;
  };

  int Round = 0;
  for (;; ++Round) {
    // Chaos drills, one probe per relay round: a SIGKILLed worker
    // exercises death detection + respawn; an exchange fault exercises
    // the abort path without losing a process.
    if (fault::probe("shard.worker_death")) {
      Worker &Victim = *Workers[static_cast<size_t>(Round % N)];
      if (Victim.Alive && Victim.Pid > 0)
        ::kill(Victim.Pid, SIGKILL);
    }
    const bool InjectAbort = fault::probe("shard.exchange");

    // Collect one frame per live worker. Every worker announces before
    // it streams, so reading frame-then-ring per worker cannot wedge.
    const auto RoundStart = std::chrono::steady_clock::now();
    std::vector<RoundMsg> Msgs(static_cast<size_t>(N));
    bool AnyDead = false, AnyFailed = false;
    int HaloCount = 0, DoneCount = 0;
    for (int I = 0; I != N; ++I) {
      RoundMsg &M = Msgs[static_cast<size_t>(I)];
      Worker &W = *Workers[static_cast<size_t>(I)];
      Expected<Frame> F = recvFrame(W.SocketFd);
      if (!F) {
        W.die();
        AnyDead = true;
        continue;
      }
      M.Req = F->Header.RequestId;
      if (F->Header.Type == net::MsgType::ShardHaloRequest &&
          decodeHalo(F->Payload, M.Halo)) {
        M.Out.Low.resize(M.Halo.LowCount);
        M.Out.High.resize(M.Halo.HighCount);
        if (W.Ring.readFloats(RingDir::ToCoordinator, M.Out.Low.data(),
                              M.Out.Low.size()) ||
            W.Ring.readFloats(RingDir::ToCoordinator, M.Out.High.data(),
                              M.Out.High.size())) {
          W.die();
          AnyDead = true;
          continue;
        }
        M.Got = true;
        M.IsHalo = true;
        ++HaloCount;
      } else if (F->Header.Type == net::MsgType::ShardRunResponse &&
                 decodeRunReply(F->Payload, M.Reply)) {
        M.Got = true;
        if (!M.Reply.Ok)
          AnyFailed = true;
        ++DoneCount;
      } else {
        W.die();
        AnyDead = true;
      }
    }

    // Workers desynchronize only on failure; a round mixing exchanges
    // with completions means someone's run already failed or the two
    // sides disagree — either way, abort cleanly.
    bool Desync = HaloCount != 0 && DoneCount != 0;
    if (HaloCount == N)
      for (int I = 1; I != N; ++I)
        if (Msgs[static_cast<size_t>(I)].Halo.SourceIndex !=
                Msgs[0].Halo.SourceIndex ||
            Msgs[static_cast<size_t>(I)].Halo.Step != Msgs[0].Halo.Step)
          Desync = true;

    if (AnyDead || AnyFailed || InjectAbort || Desync) {
      for (int I = 0; I != N; ++I) {
        const RoundMsg &M = Msgs[static_cast<size_t>(I)];
        Worker &W = *Workers[static_cast<size_t>(I)];
        if (!M.Got)
          continue; // Already dead.
        const uint64_t ResultFloats =
            ResultPerNode * static_cast<uint64_t>(W.Domain.localNodeCount());
        W.quiesce(ResultFloats, /*PendingHalo=*/M.IsHalo, M.Req,
                  /*AlreadyDone=*/!M.IsHalo,
                  /*DoneOk=*/!M.IsHalo && M.Reply.Ok);
      }
      if (InjectAbort)
        return fault::injectedFault("shard.exchange");
      if (AnyDead)
        return Error::transient(
            "shard worker died mid-run; the fleet respawns on retry");
      for (int I = 0; I != N; ++I) {
        const RoundMsg &M = Msgs[static_cast<size_t>(I)];
        if (M.Got && !M.IsHalo && !M.Reply.Ok)
          return M.Reply.Transient ? Error::transient(M.Reply.Message)
                                   : makeError(M.Reply.Message);
      }
      return Error::transient("shard run desynchronized; aborted");
    }

    if (DoneCount == N) {
      // Every worker succeeded: gather result blocks (each worker is
      // already streaming its own ring) and surface the reports.
      Reports.clear();
      for (int I = 0; I != N; ++I) {
        Worker &W = *Workers[static_cast<size_t>(I)];
        for (int LR = 0; LR != W.Domain.LocalRows; ++LR)
          for (int LC = 0; LC != W.Domain.LocalCols; ++LC) {
            const NodeCoord At{W.Domain.globalRow(LR),
                               W.Domain.globalCol(LC)};
            if (W.Ring.readRows(RingDir::ToCoordinator,
                                Resolved.Result->subgrid(At))) {
              W.die();
              return Error::transient("shard result gather failed");
            }
          }
        const RoundMsg &M = Msgs[static_cast<size_t>(I)];
        Reports.push_back(M.Reply.Report);
        Reg.counter("shard." + std::to_string(I) + ".runs").add(1);
        Reg.sum("shard." + std::to_string(I) + ".exchange_wait_ns")
            .add(static_cast<double>(M.Reply.ExchangeWaitNs));
      }
      Reg.counter("shard.runs").add(1);
      return Error::success();
    }

    // A full halo round: route each worker's edges to its neighbors.
    // In.Low is the low-side neighbor's High block and vice versa —
    // block-level wraparound mirrors the node-level torus.
    const bool WE =
        Msgs[0].Halo.Step == static_cast<uint16_t>(HaloStep::WestEast);
    bool RelayFailed = false;
    for (int I = 0; I != N && !RelayFailed; ++I) {
      Worker &W = *Workers[static_cast<size_t>(I)];
      const int LowNbr = WE ? Grid.westOf(I) : Grid.northOf(I);
      const int HighNbr = WE ? Grid.eastOf(I) : Grid.southOf(I);
      const std::vector<float> &InLow =
          Msgs[static_cast<size_t>(LowNbr)].Out.High;
      const std::vector<float> &InHigh =
          Msgs[static_cast<size_t>(HighNbr)].Out.Low;
      AckMessage Ack;
      Ack.LowCount = InLow.size();
      Ack.HighCount = InHigh.size();
      if (sendFrame(W.SocketFd, net::MsgType::ShardHaloResponse, Msgs[I].Req,
                    encodeAck(Ack)) ||
          W.Ring.writeFloats(RingDir::ToWorker, InLow.data(), InLow.size()) ||
          W.Ring.writeFloats(RingDir::ToWorker, InHigh.data(),
                             InHigh.size())) {
        W.die();
        // Workers already answered continue to their next exchange;
        // the rest still wait on this one. Quiesce both kinds.
        for (int J = 0; J != N; ++J) {
          if (J == I)
            continue;
          Worker &O = *Workers[static_cast<size_t>(J)];
          const uint64_t ResultFloats =
              ResultPerNode *
              static_cast<uint64_t>(O.Domain.localNodeCount());
          O.quiesce(ResultFloats, /*PendingHalo=*/J > I,
                    Msgs[static_cast<size_t>(J)].Req,
                    /*AlreadyDone=*/false, /*DoneOk=*/false);
        }
        RelayFailed = true;
      }
    }
    if (RelayFailed)
      return Error::transient("shard halo relay failed; worker lost");

    ExchangeNs.observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - RoundStart)
            .count()));
  }
}

Expected<TimingReport>
ShardedBackend::runResolved(const CompiledStencil &Compiled,
                            const ResolvedStencilArguments &Resolved,
                            const RunOptions &RO) const {
  CMCC_SPAN("backend.shard.run");
  if (GridError)
    return GridError;
  if (!Resolved.Result || Resolved.Sources.empty() || !Resolved.Sources[0])
    return makeError("sharded run requires resolved result and source arrays");

  std::lock_guard<std::mutex> Lock(RunMutex);
  // The fleet reads the sources and writes the result in place, so no
  // in-process run may re-lay them out meanwhile.
  const HaloLocks Locks(Resolved.arrays());
  if (Error E = ensureWorkers())
    return E;

  const uint64_t Fingerprint =
      planFingerprint(Compiled.Spec, Config, InnerName);
  for (auto &W : Workers)
    if (Error E = ensurePlan(Compiled, Fingerprint, *W)) {
      if (E.isTransient())
        W->die();
      return E;
    }

  // Assign one scatter slot per *distinct* array (sources and tap
  // coefficients often alias), in first-appearance order.
  std::vector<const DistributedArray *> SlotArrays;
  std::map<const DistributedArray *, uint32_t> SlotOf;
  auto SlotFor = [&](const DistributedArray *A) -> int64_t {
    if (!A)
      return -1;
    auto It = SlotOf.find(A);
    if (It == SlotOf.end()) {
      It = SlotOf.emplace(A, static_cast<uint32_t>(SlotArrays.size())).first;
      SlotArrays.push_back(A);
    }
    return It->second;
  };
  RunMessage Run;
  for (const DistributedArray *S : Resolved.Sources)
    Run.SourceSlots.push_back(static_cast<uint32_t>(SlotFor(S)));
  for (const DistributedArray *T : Resolved.TapCoefficients)
    Run.TapSlots.push_back(SlotFor(T));

  for (auto &W : Workers)
    for (uint32_t Slot = 0; Slot != SlotArrays.size(); ++Slot)
      if (Error E = scatterArray(*W, Slot, *SlotArrays[Slot])) {
        W->die();
        return E.isTransient() ? std::move(E) : Error::transient(E.message());
      }

  Run.Fingerprint = Fingerprint;
  Run.Iterations = RO.Iterations;
  // cm2 workers run the tiled chain locally: the partitioned exchange
  // already carries arbitrary border widths (and the extra coefficient
  // exchanges) through the relay, which is size-agnostic. Host inner
  // backends refuse depths other than 1, and the refusal comes back
  // non-transient.
  Run.TimeTile = RO.TimeTile;
  Run.SubRows = Resolved.Result->subRows();
  Run.SubCols = Resolved.Result->subCols();
  const obs::TraceContext Ctx = obs::currentTraceContext();
  Run.TraceId = Ctx.TraceId;
  Run.ParentSpan = Ctx.SpanId;

  const auto RunStart = std::chrono::steady_clock::now();
  for (auto &W : Workers)
    if (Error E = W->send(net::MsgType::ShardRunRequest, encodeRun(Run))) {
      W->die();
      return Error::transient("shard run dispatch failed: " + E.message());
    }

  std::vector<TimingReport> Reports;
  if (Error E = relayAndGather(Resolved, Reports))
    return E;

  // The merged report: one shard's per-node accounting *is* the global
  // machine's (synchronous SIMD — every node runs the same schedule on
  // the same subgrid shape), so only the node count widens. Measuring
  // backends report the coordinator's wall clock, which honestly
  // includes scatter, relay, and gather.
  TimingReport Report = Reports.front();
  Report.Nodes = Config.NodeRows * Config.NodeCols;
  if (reportsWallClock())
    Report.HostSecondsPerIteration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      RunStart)
            .count() /
        static_cast<double>(std::max(1, RO.Iterations));
  return Report;
}

Expected<TimingReport> ShardedBackend::timeOnly(const CompiledStencil &Compiled,
                                                int SubRows, int SubCols,
                                                const RunOptions &RO) const {
  if (GridError)
    return GridError;
  // The measuring backends' scratch arrays, so a sharded timing run
  // computes the same values an unsharded one would.
  return runOnScratch(Compiled, SubRows, SubCols, RO);
}
