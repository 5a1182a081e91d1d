//===- perfbench/src/WireWorkload.cpp - The seismic update on the wire ----===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `wire` workload: the seismic update through net::Client -> unix
/// socket -> net::Server -> StencilService (native backend), grids on
/// the wire. Each job sends U and UPREV as global grids and receives R;
/// the client holds the fields and rotates them, so the next job waits
/// for this one's reply.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include <cstring>
#include <memory>
#include <sched.h>

using namespace cmcc;

namespace perfbench {

namespace {

/// One thread per job: with the client, the server loop and the service
/// worker pinned to one CPU, a second pool thread would only take turns
/// with them.
constexpr int WireThreads = 1;

/// Pins the calling thread, and every thread it starts later, to the CPU
/// it is running on, and notes the outcome in \p R. The client, the
/// server loop and the service worker hand each job along a chain in
/// which only one runs at a time: on one CPU each hand-off is a context
/// switch, where across CPUs it waits for an idle virtual CPU to be woken,
/// which on a shared host takes microseconds to milliseconds.
void pinToOneCpu(Report &R) {
  const int Cpu = sched_getcpu();
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (Cpu >= 0)
    CPU_SET(Cpu, &Set);
  const bool Pinned =
      Cpu >= 0 && sched_setaffinity(0, sizeof(Set), &Set) == 0;
  R.note(Pinned ? "all threads pinned to CPU " + std::to_string(Cpu)
                : "could not pin to one CPU; measuring unpinned");
}

Array2D toArray(const std::vector<float> &V, int N) {
  Array2D A(N, N);
  std::memcpy(A.data(), V.data(), V.size() * sizeof(float));
  return A;
}

std::vector<float> toVector(const Array2D &A) {
  const size_t N = static_cast<size_t>(A.rows()) * A.cols();
  return std::vector<float>(A.data(), A.data() + N);
}

/// Wall-clock of the two client calls of one job.
struct CallTimes {
  double SubmitUs = 0.0, WaitUs = 0.0;
  int64_t JobId = 0;
};

/// A started service, server and connected client, plus the client-held
/// fields.
class WireRig {
public:
  WireRig(const CacheDirs &Dirs, const std::string &SocketPath, int Sub,
          uint64_t Seed)
      : Machine(MachineConfig::withNodeGrid(4, 4)), N(Sub * 4),
        Text(seismicStatement()) {
    U = toVector(seededField(N, N, Seed, 0));
    Prev = toVector(seededField(N, N, Seed, 1));
    Service = std::make_unique<StencilService>(
        Machine, serviceOptions("native", WireThreads, Dirs));
    net::Server::Options SO;
    net::Endpoint E;
    E.Transport = net::Endpoint::Kind::Unix;
    E.Path = SocketPath;
    SO.Listen.push_back(E);
    Server = std::make_unique<net::Server>(*Service, SO);
    if (Error Err = Server->start()) {
      Problem = "server start: " + Err.message();
      return;
    }
    net::Client::Options CO;
    CO.Target = E;
    Expected<std::unique_ptr<net::Client>> C = net::Client::connect(CO);
    if (!C) {
      Problem = "client connect: " + C.error().message();
      return;
    }
    Client = C.takeValue();
  }

  /// Empty when the rig started.
  const std::string &problem() const { return Problem; }

  /// The request of one step over the current fields (which it takes;
  /// giveBack returns them).
  net::SubmitRequest request() {
    net::SubmitRequest Req;
    Req.Kind =
        static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
    Req.Source = Text;
    Req.ResultName = "R";
    Req.Grids.resize(2);
    Req.Grids[0].Kind = net::SubmitRequest::Role::Source;
    Req.Grids[0].Grid = {"U", static_cast<uint32_t>(N),
                         static_cast<uint32_t>(N), std::move(U)};
    Req.Grids[1].Kind = net::SubmitRequest::Role::Coefficient;
    Req.Grids[1].Grid = {"UPREV", static_cast<uint32_t>(N),
                         static_cast<uint32_t>(N), std::move(Prev)};
    return Req;
  }
  void giveBack(net::SubmitRequest &Req) {
    U = std::move(Req.Grids[0].Grid.Data);
    Prev = std::move(Req.Grids[1].Grid.Data);
  }

  /// Runs one step: R = update(U, UPREV) on the server, then the fields
  /// rotate client side.
  bool step(double &LatencyMs, net::WaitResponse &Res, CallTimes &Times) {
    net::SubmitRequest Req = request();
    const Clock::time_point T0 = Clock::now();
    Expected<net::SubmitResponse> Sub = Client->submit(Req);
    const Clock::time_point T1 = Clock::now();
    giveBack(Req);
    if (!Sub)
      return false;
    Expected<net::WaitResponse> W = Client->wait(Sub->JobId);
    const Clock::time_point T2 = Clock::now();
    if (!W)
      return false;
    Res = W.takeValue();
    LatencyMs = std::chrono::duration<double, std::milli>(T2 - T0).count();
    Times.SubmitUs = std::chrono::duration<double, std::micro>(T1 - T0).count();
    Times.WaitUs = std::chrono::duration<double, std::micro>(T2 - T1).count();
    Times.JobId = Sub->JobId;
    const bool Ok =
        Res.Ok &&
        Res.Status == static_cast<uint8_t>(StencilService::JobStatus::Ok) &&
        !Res.FellBack && Res.Retries == 0 && Res.HasResult &&
        Res.Result.Data.size() == static_cast<size_t>(N) * N;
    if (!Ok)
      return false;
    Prev = std::move(U);
    U = std::move(Res.Result.Data);
    return true;
  }

  Array2D current() const { return toArray(U, N); }
  Array2D previous() const { return toArray(Prev, N); }
  StencilService &service() { return *Service; }
  const MachineConfig &machine() const { return Machine; }
  const std::string &text() const { return Text; }

private:
  MachineConfig Machine;
  int N;
  std::string Text;
  std::vector<float> U, Prev;
  std::unique_ptr<StencilService> Service;
  std::unique_ptr<net::Server> Server;
  std::unique_ptr<net::Client> Client;
  std::string Problem;
};

/// Median microseconds of \p Body over \p Reps calls.
template <typename F> double medianUs(int Reps, F &&Body) {
  std::vector<double> Us;
  for (int I = 0; I != Reps; ++I) {
    const Clock::time_point T0 = Clock::now();
    Body();
    Us.push_back(secondsSince(T0) * 1e6);
  }
  return median(Us);
}

} // namespace

void runWire(const RunConfig &Cfg, const Ceilings &Ceil, Report &R,
             Tally &T) {
  const int Sub = Cfg.Smoke ? 16 : 64;
  pinToOneCpu(R);
  MustBeZero Zero;
  std::vector<double> Setups, Restarts;
  CacheDirs Dirs;
  int Sockets = 0;
  auto SocketPath = [&] {
    return Cfg.Dir + "/wire" + std::to_string(Sockets++) + ".sock";
  };
  // One set-up and restart sample: a cold start on fresh disk tiers,
  // then a restart over the ones it left behind.
  auto StartPair = [&] {
    Dirs = freshCacheDirs(Cfg, "start" + std::to_string(Setups.size()));
    Array2D First;
    for (bool Restart : {false, true}) {
      settleDisk(Cfg);
      const Clock::time_point T0 = Clock::now();
      WireRig Rig(Dirs, SocketPath(), Sub, Cfg.Seed);
      net::WaitResponse Res;
      CallTimes Times;
      double Ignored;
      const bool Ok = Rig.problem().empty() && Rig.step(Ignored, Res, Times);
      const double S = secondsSince(T0);
      T.job(Ok, std::string(Restart ? "first job of a restart: "
                                    : "first job of a cold start: ") +
                    Rig.problem() + Res.Message);
      if (!Ok)
        return false;
      (Restart ? Restarts : Setups).push_back(S);
      if (Restart) {
        T.check(bitwiseEqual(Rig.current(), First),
                "restart result differs from the cold start's");
      } else {
        First = Rig.current();
        DiagnosticEngine Diags;
        std::optional<CompiledStencil> Plan =
            ConvolutionCompiler(Rig.machine()).compileAssignment(Rig.text(),
                                                                 Diags);
        const int N = First.rows();
        T.check(Plan && withinUlpContract(Plan->Spec,
                                          seededField(N, N, Cfg.Seed, 0),
                                          seededField(N, N, Cfg.Seed, 1),
                                          First),
                "cold-start result outside 1 ulp per term of the reference");
      }
      Zero.add(Rig.service().stats(), T);
    }
    return true;
  };
  if (!StartPair())
    return;

  WireRig Main(Dirs, SocketPath(), Sub, Cfg.Seed);
  T.check(Main.problem().empty(), Main.problem());
  if (!Main.problem().empty())
    return;
  DiagnosticEngine Diags;
  std::optional<CompiledStencil> Plan =
      ConvolutionCompiler(Main.machine()).compileAssignment(Main.text(), Diags);
  T.check(Plan.has_value(), "the seismic statement does not compile");
  if (!Plan)
    return;

  long Jobs = 0, CheckpointJob = 0;
  Array2D CheckU, CheckPrev;
  JobDetail Detail;
  std::vector<double> SubmitUs, WaitUs, OffServiceUs;
  net::WaitResponse Last;
  bool Collect = false;
  const long SampleEvery = 512, CheckpointEvery = 128;
  StepFn Step = [&](ActiveClock &Clk, double &LatencyMs) {
    const bool Sample = Jobs % SampleEvery == 0;
    const bool Checkpoint = Jobs % CheckpointEvery == 0;
    Array2D InU, InPrev;
    if (Sample || Checkpoint) {
      Clk.pause();
      InU = Main.current();
      InPrev = Main.previous();
      if (Checkpoint) {
        CheckU = InU;
        CheckPrev = InPrev;
        CheckpointJob = Jobs;
      }
      Clk.resume();
    }
    CallTimes Times;
    const bool Ok = Main.step(LatencyMs, Last, Times);
    ++Jobs;
    if (!Ok)
      return false;
    if (Sample || Collect) {
      Clk.pause();
      if (Sample)
        T.check(withinUlpContract(Plan->Spec, InU, InPrev, Main.current()),
                "sampled step outside 1 ulp per term of the reference");
      if (Collect) {
        const size_t Before = Detail.ServiceUs.size();
        Detail.record(Main.service(), Times.JobId, Last.ExecuteSeconds,
                      Last.CompileSeconds);
        SubmitUs.push_back(Times.SubmitUs);
        WaitUs.push_back(Times.WaitUs);
        if (Detail.ServiceUs.size() > Before)
          OffServiceUs.push_back(LatencyMs * 1e3 - Detail.ServiceUs.back());
      }
      Clk.resume();
    }
    return true;
  };

  obs::Registry &Reg = obs::Registry::process();
  obs::Histogram &BytesIn =
      Reg.histogram("net.frame_bytes_in", obs::Histogram::byteBounds());
  obs::Histogram &BytesOut =
      Reg.histogram("net.frame_bytes_out", obs::Histogram::byteBounds());
  obs::Histogram &ServerSubmit = Reg.histogram("net.req_us.submit");
  const double BytesBefore = BytesIn.sum() + BytesOut.sum();
  const double SubmitSumBefore = ServerSubmit.sum();
  const long SubmitCountBefore = ServerSubmit.count();
  CounterDelta Exchanges("halo.exchanges");
  CounterDelta Dispatches("threadpool.loops_total");

  Collect = Cfg.Trace;
  const double Timed = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  const int MoreStarts = Cfg.Trace ? 0 : Cfg.setupRepeats() - 1;
  LoopStats L = runClosedLoop(Cfg.warmupSeconds(), Timed, T, Step, MoreStarts,
                              [&] { StartPair(); });
  const double PhaseJobs = static_cast<double>(Jobs);
  const double BytesPerJob =
      (BytesIn.sum() + BytesOut.sum() - BytesBefore) / PhaseJobs;
  const double ServerSubmitUs =
      (ServerSubmit.sum() - SubmitSumBefore) /
      std::max(1L, ServerSubmit.count() - SubmitCountBefore);
  const double ExchangesPerJob = Exchanges.value() / PhaseJobs;
  const double DispatchesPerJob = Dispatches.value() / PhaseJobs;

  LoopStats Traced;
  if (Cfg.Trace) {
    Collect = false;
    obs::Trace::start(Cfg.Dir + "/trace.json");
    Traced = runClosedLoop(Cfg.warmupSeconds() / 4, Cfg.Seconds / 2, T, Step);
    obs::Trace::stop();
  }

  // The final field must equal the same steps run in-process on native.
  T.check(bitwiseEqual(replayNative(Main.machine(), *Plan, CheckU, CheckPrev,
                                    Jobs - CheckpointJob),
                       Main.current()),
          "wire final field differs from the in-process native run");
  Zero.add(Main.service().stats(), T);

  if (!Cfg.Trace) {
    reportStarts(R, Setups, Restarts);
    reportLoop(R, L);
    R.add("peak_rss_mb", peakRssMiB(), "MiB");
    return;
  }

  reportServiceLayers(R, Main.service().stats(), Detail, Zero);
  R.layer("obs.trace_overhead_pct",
          (L.JobsPerSecond / Traced.JobsPerSecond - 1.0) * 100.0);

  // The codecs, timed on this workload's own payloads: one job encodes
  // a submit (two grids) and a wait reply (one grid), and decodes both.
  const int Reps = Cfg.Smoke ? 5 : 100;
  net::SubmitRequest Req = Main.request();
  net::WaitResponse Reply = Last; // Its grid moved into the client's fields.
  Reply.Result.Data = toVector(Main.current());
  std::vector<uint8_t> ReqBytes, ResBytes;
  const double EncodeUs =
      medianUs(Reps, [&] { ReqBytes = net::encode(Req); }) +
      medianUs(Reps, [&] { ResBytes = net::encode(Reply); });
  const double DecodeUs =
      medianUs(Reps,
               [&] {
                 T.check(static_cast<bool>(net::decodeSubmitRequest(
                             ReqBytes.data(), ReqBytes.size())),
                         "submit payload does not decode");
               }) +
      medianUs(Reps, [&] {
        T.check(static_cast<bool>(
                    net::decodeWaitResponse(ResBytes.data(), ResBytes.size())),
                "wait payload does not decode");
      });
  Main.giveBack(Req);

  R.layer("net.encode_us", EncodeUs);
  R.layer("net.decode_us", DecodeUs);
  R.layer("net.submit_rtt_us", median(SubmitUs));
  R.layer("net.wait_rtt_us", median(WaitUs));
  R.layer("net.server_submit_us", ServerSubmitUs);
  R.layer("net.unattributed_us", median(OffServiceUs) - EncodeUs - DecodeUs);
  R.layer("net.bytes_per_job", BytesPerJob);
  R.layer("net.pct_of_loopback",
          BytesPerJob * L.JobsPerSecond / (Ceil.SocketGBps * 1e9) * 100.0);

  NodeGrid Grid(Main.machine());
  DistributedArray Field(Grid, Sub, Sub);
  Field.scatter(Main.current());
  reportBackendLayers(R, Ceil, *Plan, Field, WireThreads,
                      median(Detail.ExecuteUs), ExchangesPerJob,
                      DispatchesPerJob, Cfg.Smoke);
}

} // namespace perfbench
