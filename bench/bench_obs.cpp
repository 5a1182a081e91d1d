//===- bench/bench_obs.cpp - Observability overhead benchmark -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment O1: the observability layer's cost and its zero-effect
/// guarantee.
///
///   1. Measures the disabled-span cost (one relaxed load + branch) in
///      nanoseconds per span.
///   2. Runs the same functional stencil execution with tracing OFF and
///      with tracing ON, and asserts the results are bitwise identical —
///      every result array float and every simulated cycle total.
///   3. Estimates the disabled-path overhead of a real run: spans the
///      traced run recorded x the measured per-span disabled cost,
///      as a percentage of the untraced run's host wall-clock. The
///      bench fails if that exceeds 2% (DESIGN.md 5d's bound).
///   4. Repeats the exercise over the wire: warm networked jobs through
///      a real unix-socket server, untraced vs traced, plus the cost of
///      an untraced ScopedTraceContext (what every request pays when no
///      client sends a trace id). The disabled-probe overhead of the
///      wire path must also stay under 2%.
///   5. Prices the fault-injection seams the same way (DESIGN.md §5f):
///      a disarmed probe must never fire, and the probes one warm
///      service job crosses, each at the measured disarmed cost, must
///      stay under 1% of that job's host time.
///
/// Writes BENCH_obs.json with the overhead scalars.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "net/Client.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "service/StencilService.h"
#include "support/FaultInjection.h"
#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace cmccbench;

namespace {

constexpr int SubRows = 64, SubCols = 64;

/// Nanoseconds one *disabled* span costs, measured over many spans.
double measureDisabledSpanNs() {
  if (obs::Trace::active()) {
    std::fprintf(stderr, "bench_obs: tracing must be off for the "
                         "disabled-path measurement\n");
    std::abort();
  }
  constexpr long Spans = 20'000'000;
  auto Begin = std::chrono::steady_clock::now();
  for (long I = 0; I != Spans; ++I) {
    CMCC_SPAN("bench.disabled");
    benchmark::DoNotOptimize(I);
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(End - Begin).count() /
         Spans;
}

/// Nanoseconds one *disarmed* fault probe costs; \p Fired counts the
/// probes that fired anyway (the contract is zero).
double measureDisarmedProbeNs(long &Fired) {
  fault::Registry::process().reset();
  constexpr long Probes = 20'000'000;
  Fired = 0;
  auto Begin = std::chrono::steady_clock::now();
  for (long I = 0; I != Probes; ++I)
    Fired += fault::probe("bench.disarmed") ? 1 : 0;
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(End - Begin).count() /
         Probes;
}

/// Host seconds of \p Count jobs of \p Req, each submitted to \p Service
/// and waited for before the next.
double serviceJobsSeconds(StencilService &Service,
                          const StencilService::JobRequest &Req, int Count) {
  auto Begin = std::chrono::steady_clock::now();
  for (int I = 0; I != Count; ++I) {
    StencilService::JobResult R = Service.wait(Service.submit(Req));
    if (!R.Ok) {
      std::fprintf(stderr, "bench_obs: service job failed: %s\n",
                   R.Message.c_str());
      std::abort();
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Begin)
      .count();
}

/// One functional execution's complete observable output: every result
/// float plus the simulated timing report.
struct RunOutput {
  std::vector<float> ResultBits;
  TimingReport Report;
  double HostSeconds = 0.0;
};

RunOutput runFunctional(const MachineConfig &Config,
                        const CompiledStencil &Compiled) {
  NodeGrid Grid(Config);
  DistributedArray Result(Grid, SubRows, SubCols);
  DistributedArray Source(Grid, SubRows, SubCols);
  Array2D GlobalSource(Result.globalRows(), Result.globalCols());
  GlobalSource.fillRandom(1);
  Source.scatter(GlobalSource);
  StencilArguments Args;
  Args.Result = &Result;
  Args.Source = &Source;
  std::vector<std::unique_ptr<DistributedArray>> Coefficients;
  int Index = 0;
  for (const std::string &Name : Compiled.Spec.coefficientArrayNames()) {
    auto Coeff =
        std::make_unique<DistributedArray>(Grid, SubRows, SubCols);
    Array2D Global(Result.globalRows(), Result.globalCols());
    Global.fillRandom(1000 + Index++);
    Coeff->scatter(Global);
    Args.Coefficients[Name] = Coeff.get();
    Coefficients.push_back(std::move(Coeff));
  }

  Executor Exec(Config);
  auto Begin = std::chrono::steady_clock::now();
  Expected<TimingReport> Report = Exec.run(Compiled, Args, 1);
  auto End = std::chrono::steady_clock::now();
  if (!Report) {
    std::fprintf(stderr, "bench_obs: functional run failed: %s\n",
                 Report.error().message().c_str());
    std::abort();
  }

  RunOutput Out;
  Out.Report = *Report;
  Out.HostSeconds = std::chrono::duration<double>(End - Begin).count();
  Out.ResultBits.reserve(static_cast<size_t>(Grid.nodeCount()) * SubRows *
                         SubCols);
  for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
    const ConstSubgridRef Sub = Result.subgrid(Grid.coordOf(Id));
    for (int R = 0; R != SubRows; ++R)
      for (int C = 0; C != SubCols; ++C)
        Out.ResultBits.push_back(Sub.at(R, C));
  }
  return Out;
}

/// Nanoseconds an untraced ScopedTraceContext costs — the price every
/// server request pays when the client sent no trace id.
double measureZeroContextScopeNs() {
  constexpr long Scopes = 20'000'000;
  auto Begin = std::chrono::steady_clock::now();
  for (long I = 0; I != Scopes; ++I) {
    obs::ScopedTraceContext Scope(0, 0);
    benchmark::DoNotOptimize(I);
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(End - Begin).count() /
         Scopes;
}

/// One service + server + client over a unix socket, for the wire-path
/// overhead measurement.
struct WireBench {
  std::unique_ptr<StencilService> Service;
  std::unique_ptr<cmcc::net::Server> Server;
  std::unique_ptr<cmcc::net::Client> Client;
  std::string SocketPath;

  explicit WireBench(const MachineConfig &Config) {
    SocketPath = (std::filesystem::temp_directory_path() /
                  ("bench_obs_" + std::to_string(::getpid()) + ".sock"))
                     .string();
    Service = std::make_unique<StencilService>(Config,
                                               StencilService::Options{});
    cmcc::net::Endpoint Ep;
    Ep.Transport = cmcc::net::Endpoint::Kind::Unix;
    Ep.Path = SocketPath;
    cmcc::net::Server::Options NOpts;
    NOpts.Listen.push_back(Ep);
    NOpts.Banner = "bench_obs";
    Server = std::make_unique<cmcc::net::Server>(*Service, NOpts);
    if (Error E = Server->start()) {
      std::fprintf(stderr, "bench_obs: server start failed: %s\n",
                   E.message().c_str());
      std::abort();
    }
    cmcc::net::Client::Options COpts;
    COpts.Target = Ep;
    Expected<std::unique_ptr<cmcc::net::Client>> C =
        cmcc::net::Client::connect(COpts);
    if (!C) {
      std::fprintf(stderr, "bench_obs: client connect failed: %s\n",
                   C.error().message().c_str());
      std::abort();
    }
    Client = C.takeValue();
  }

  ~WireBench() {
    Client.reset();
    Server->stop();
    std::filesystem::remove(SocketPath);
  }

  /// One warm timing-only job, submit through wait; returns host
  /// seconds for the round trip.
  double runJob(uint64_t TraceId) {
    cmcc::net::SubmitRequest Req;
    Req.Kind =
        static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
    Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
    Req.SubRows = Req.SubCols = 16;
    Req.Iterations = 1;
    Req.TraceId = TraceId;
    Req.ParentSpan = TraceId ? obs::mintSpanId() : 0;
    auto Begin = std::chrono::steady_clock::now();
    Expected<cmcc::net::SubmitResponse> S = Client->submit(Req);
    if (!S) {
      std::fprintf(stderr, "bench_obs: submit failed: %s\n",
                   S.error().message().c_str());
      std::abort();
    }
    Expected<cmcc::net::WaitResponse> W = Client->wait(S->JobId);
    if (!W || !W->Ok) {
      std::fprintf(stderr, "bench_obs: wire job failed\n");
      std::abort();
    }
    auto End = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(End - Begin).count();
  }
};

bool bitwiseEqual(const RunOutput &A, const RunOutput &B) {
  if (A.ResultBits.size() != B.ResultBits.size())
    return false;
  if (std::memcmp(A.ResultBits.data(), B.ResultBits.data(),
                  A.ResultBits.size() * sizeof(float)) != 0)
    return false;
  return A.Report.Cycles.total() == B.Report.Cycles.total() &&
         A.Report.Cycles.Communication == B.Report.Cycles.Communication &&
         A.Report.elapsedSeconds() == B.Report.elapsedSeconds();
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);

  MachineConfig Config = MachineConfig::testMachine16();
  CompiledStencil Compiled = compilePattern(Config, PatternId::Square9);

  //===--- 1. Disabled-span microbenchmark --------------------------------===//
  double DisabledNs = measureDisabledSpanNs();

  //===--- 2. Tracing off vs on: bitwise-identical output -----------------===//
  obs::Counter &SpanCounter =
      obs::Registry::process().counter("obs.trace_spans");

  RunOutput Off = runFunctional(Config, Compiled);
  // Second untraced run: establishes that repeat runs are deterministic
  // at all (otherwise the traced comparison below would prove nothing).
  RunOutput Off2 = runFunctional(Config, Compiled);
  if (!bitwiseEqual(Off, Off2)) {
    std::fprintf(stderr,
                 "bench_obs: untraced runs are not deterministic\n");
    return 1;
  }

  long SpansBefore = SpanCounter.value();
  std::string TracePath = "bench_obs_trace.json";
  if (!obs::Trace::start(TracePath)) {
    std::fprintf(stderr, "bench_obs: could not start trace\n");
    return 1;
  }
  RunOutput On = runFunctional(Config, Compiled);
  if (!obs::Trace::stop()) {
    std::fprintf(stderr, "bench_obs: trace flush failed\n");
    return 1;
  }
  long SpansRecorded = SpanCounter.value() - SpansBefore;

  if (!bitwiseEqual(Off, On)) {
    std::fprintf(stderr,
                 "bench_obs: tracing changed results or cycle totals\n");
    return 1;
  }

  //===--- 4. Wire-path disabled-probe overhead ---------------------------===//
  // Warm networked jobs through a real unix-socket server. The traced
  // leg counts the spans a wire job records end to end (client submit,
  // server dispatch, service stages); the untraced leg prices what the
  // instrumentation costs when no one is tracing — per-span disabled
  // cost plus the untraced ScopedTraceContext every request installs —
  // as a fraction of the measured round-trip latency.
  double ZeroCtxNs = measureZeroContextScopeNs();
  constexpr int WireJobs = 200;
  double WireUntracedSeconds = 0.0, WireTracedSeconds = 0.0;
  long WireSpans = 0;
  {
    WireBench Wire(Config);
    Wire.runJob(0); // Warm: compile once, prime the plan cache.
    for (int I = 0; I != WireJobs; ++I)
      WireUntracedSeconds += Wire.runJob(0);

    std::string WireTracePath = "bench_obs_wire_trace.json";
    long Before = SpanCounter.value();
    if (!obs::Trace::start(WireTracePath)) {
      std::fprintf(stderr, "bench_obs: could not start wire trace\n");
      return 1;
    }
    for (int I = 0; I != WireJobs; ++I)
      WireTracedSeconds += Wire.runJob(obs::mintTraceId());
    if (!obs::Trace::stop()) {
      std::fprintf(stderr, "bench_obs: wire trace flush failed\n");
      return 1;
    }
    WireSpans = SpanCounter.value() - Before;
    std::remove(WireTracePath.c_str());
  }
  double WireJobUs = WireUntracedSeconds / WireJobs * 1e6;
  double WireSpansPerJob = static_cast<double>(WireSpans) / WireJobs;
  // Disabled-path cost per job: every span site at its disabled price,
  // plus the request's zero-context scope.
  double WireOverheadPct = 100.0 *
                           (WireSpansPerJob * DisabledNs + ZeroCtxNs) /
                           (WireJobUs * 1000.0);
  bool WireOverheadOk = WireOverheadPct < 2.0;

  //===--- 3. Disabled-path overhead bound --------------------------------===//
  // Every span the traced run recorded is a CMCC_SPAN site the untraced
  // run paid the disabled cost for; their total as a fraction of the
  // untraced wall-clock is the instrumentation overhead with tracing
  // off.
  double OverheadSeconds = SpansRecorded * DisabledNs * 1e-9;
  double OverheadPct = 100.0 * OverheadSeconds / Off.HostSeconds;
  bool OverheadOk = OverheadPct < 2.0;

  //===--- 5. Disarmed fault-probe overhead -------------------------------===//
  // A warm timing-only service job of the square9 pattern: its mean
  // host time is the denominator. A rate-0 wildcard rule then counts
  // the probes such a job crosses without ever firing one (armed probes
  // take the registry mutex, so that leg only counts).
  long ProbesFired = 0;
  double ProbeNs = measureDisarmedProbeNs(ProbesFired);
  constexpr int ServiceJobs = 50;
  double ServiceJobUs = 0.0, ProbesPerJob = 0.0;
  {
    StencilService Service(Config, StencilService::Options{});
    StencilService::JobRequest Req;
    Req.Kind = StencilService::SourceKind::FortranSubroutine;
    Req.Source = patternFortranSource(PatternId::Square9);
    Req.SubRows = SubRows;
    Req.SubCols = SubCols;
    Req.Iterations = 100;
    serviceJobsSeconds(Service, Req, 1); // Cold: compile once.
    ServiceJobUs = serviceJobsSeconds(Service, Req, ServiceJobs) /
                   ServiceJobs * 1e6;

    fault::Registry &Faults = fault::Registry::process();
    fault::Rule CountAll;
    CountAll.Site = "*";
    CountAll.Rate = 0.0;
    Faults.arm(CountAll);
    serviceJobsSeconds(Service, Req, ServiceJobs);
    ProbesPerJob = static_cast<double>(Faults.totalProbes()) / ServiceJobs;
    Faults.reset();
  }
  double FaultProbePct =
      100.0 * ProbesPerJob * ProbeNs / (ServiceJobUs * 1000.0);
  bool FaultProbeOk = ProbesFired == 0 && FaultProbePct < 1.0;

  TextTable T;
  T.setHeader({"measurement", "value"});
  T.addRow({"disabled span cost", formatFixed(DisabledNs, 2) + " ns"});
  T.addRow({"spans in traced run", std::to_string(SpansRecorded)});
  T.addRow({"untraced host seconds", formatFixed(Off.HostSeconds, 4)});
  T.addRow({"disabled-path overhead", formatFixed(OverheadPct, 4) + " %"});
  T.addRow({"results tracing on vs off", "bitwise identical"});
  T.addRow({"sim cycles tracing on vs off", "identical (" +
                std::to_string(Off.Report.Cycles.total()) + ")"});
  T.addRow({"untraced scope cost", formatFixed(ZeroCtxNs, 2) + " ns"});
  T.addRow({"wire job latency (warm)", formatFixed(WireJobUs, 1) + " us"});
  T.addRow({"spans per wire job", formatFixed(WireSpansPerJob, 1)});
  T.addRow({"wire disabled-path overhead",
            formatFixed(WireOverheadPct, 4) + " %"});
  T.addRow({"disarmed fault probe cost", formatFixed(ProbeNs, 2) + " ns"});
  T.addRow({"warm service job", formatFixed(ServiceJobUs, 1) + " us"});
  T.addRow({"fault probes per warm job", formatFixed(ProbesPerJob, 1)});
  T.addRow({"fault-probe overhead", formatFixed(FaultProbePct, 4) + " %"});

  BenchJsonWriter Json("obs");
  Json.addRow("O1/square9_64x64_functional",
              Off.Report.measuredMflops(), Off.Report.elapsedSeconds(),
              Off.HostSeconds);
  Json.addScalar("disabled_span_ns", DisabledNs);
  Json.addScalar("spans_per_run", static_cast<double>(SpansRecorded));
  Json.addScalar("disabled_overhead_pct", OverheadPct);
  Json.addScalar("zero_context_scope_ns", ZeroCtxNs);
  Json.addScalar("wire_job_us", WireJobUs);
  Json.addScalar("wire_spans_per_job", WireSpansPerJob);
  Json.addScalar("wire_disabled_overhead_pct", WireOverheadPct);
  Json.addScalar("fault_probe_ns", ProbeNs);
  Json.addScalar("fault_probes_per_job", ProbesPerJob);
  Json.addScalar("fault_probe_overhead_pct", FaultProbePct);
  std::string Path = Json.write();

  std::printf("\n=== O1: observability overhead, square9 %dx%d functional "
              "run on 16 nodes ===\n\n%s\n%s%s\n",
              SubRows, SubCols, T.str().c_str(),
              Path.empty() ? "" : "wrote ", Path.c_str());
  std::remove(TracePath.c_str());

  if (!OverheadOk) {
    std::fprintf(stderr,
                 "bench_obs: disabled-path overhead %.4f%% exceeds the "
                 "2%% bound\n",
                 OverheadPct);
    return 1;
  }
  if (!WireOverheadOk) {
    std::fprintf(stderr,
                 "bench_obs: wire disabled-path overhead %.4f%% exceeds "
                 "the 2%% bound\n",
                 WireOverheadPct);
    return 1;
  }
  if (!FaultProbeOk) {
    std::fprintf(stderr,
                 "bench_obs: %ld disarmed fault probes fired; probes cost "
                 "%.4f%% of a warm service job (budget is 1%%)\n",
                 ProbesFired, FaultProbePct);
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
