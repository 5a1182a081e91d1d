//===- tools/cmcc_client.cpp - Network client for cmcc_serve --*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line client for a cmcc_serve --listen server. One invocation
/// is one connection and one command:
///
///   cmcc_client --connect=SPEC hello
///   cmcc_client --connect=SPEC run [job options] "<source>"
///   cmcc_client --connect=SPEC submit [job options] "<source>"
///   cmcc_client --connect=SPEC poll <job-id>
///   cmcc_client --connect=SPEC wait <job-id>
///   cmcc_client --connect=SPEC cancel <job-id>
///   cmcc_client --connect=SPEC stats [--json]
///   cmcc_client --connect=SPEC trace <job-id>
///   cmcc_client --connect=SPEC dump
///   cmcc_client --version
///
/// where SPEC is unix:PATH or tcp:HOST:PORT. 'run' submits and waits;
/// 'submit' prints the job id and returns (a later invocation can
/// wait on it — job ids are server-wide, not per-connection).
///
/// Every submit mints a 64-bit trace id (or takes one via
/// --trace-id=HEX) and sends it with the job, so spans recorded by the
/// client (CMCC_TRACE=file), the server, and the service all share one
/// id — and 'trace <job-id>' fetches the server-side event timeline of
/// a finished job. 'dump' fetches the server's flight-recorder JSON.
///
/// Job options:
///   --kind=assignment|subroutine|lisp|fingerprint   (default assignment)
///   --fingerprint=HEX      plan key for --kind=fingerprint
///   --subgrid=RxC          per-node subgrid for timing jobs (64x64)
///   --iterations=N         iterations (default 1)
///   --tenant=N             tenant id stamped on every frame (default 0)
///   --data[=SEED]          bind a real source array (deterministic
///                          random fill) instead of a timing-only job;
///                          prints the result grid's checksum
///   --coeff=NAME=VALUE     bind a constant-filled coefficient grid
///                          (repeatable; only meaningful with --data)
///
/// Exits nonzero on connection errors, protocol errors, or a failed
/// job.
///
//===----------------------------------------------------------------------===//

#include "core/PlanFingerprint.h"
#include "net/Client.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "support/Fnv1a.h"
#include "support/Provenance.h"
#include "support/StringUtils.h"
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace cmcc;

namespace {

struct ClientOptions {
  std::string Connect;
  std::string Command;
  std::vector<std::string> Args; ///< Positional operands after the command.
  uint8_t Kind = 0;              ///< SourceKind::FortranAssignment.
  uint64_t Fingerprint = 0;
  int SubRows = 64, SubCols = 64;
  int Iterations = 1;
  uint32_t Tenant = 0;
  bool Data = false;
  uint64_t DataSeed = 42;
  std::vector<std::pair<std::string, float>> Coefficients;
  bool Json = false;
  uint64_t TraceId = 0; ///< --trace-id=HEX override; 0 = mint one.
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: cmcc_client --connect=unix:PATH|tcp:HOST:PORT <command>\n"
      "commands: hello | run <source> | submit <source> | poll <id> |\n"
      "          wait <id> | cancel <id> | stats [--json] |\n"
      "          trace <id> | dump\n"
      "job options: --kind=assignment|subroutine|lisp|fingerprint\n"
      "             --fingerprint=HEX --subgrid=RxC --iterations=N\n"
      "             --tenant=N --data[=SEED] --trace-id=HEX\n"
      "other: --version\n");
}

bool parseArguments(int Argc, char **Argv, ClientOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (Arg == "--version") {
      std::printf("cmcc_client: protocol version %u\nbuilt with: %s\n",
                  static_cast<unsigned>(net::ProtocolVersion),
                  provenanceSummary().c_str());
      std::exit(0);
    } else if (const char *V = Value("--connect=")) {
      Opts.Connect = V;
    } else if (const char *V = Value("--kind=")) {
      if (std::strcmp(V, "assignment") == 0)
        Opts.Kind = 0;
      else if (std::strcmp(V, "subroutine") == 0)
        Opts.Kind = 1;
      else if (std::strcmp(V, "lisp") == 0)
        Opts.Kind = 2;
      else if (std::strcmp(V, "fingerprint") == 0)
        Opts.Kind = 3;
      else {
        std::fprintf(stderr, "cmcc_client: bad --kind value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--fingerprint=")) {
      Opts.Fingerprint = std::strtoull(V, nullptr, 16);
    } else if (const char *V = Value("--subgrid=")) {
      if (std::sscanf(V, "%dx%d", &Opts.SubRows, &Opts.SubCols) != 2 ||
          Opts.SubRows <= 0 || Opts.SubCols <= 0) {
        std::fprintf(stderr, "cmcc_client: bad --subgrid value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--iterations=")) {
      Opts.Iterations = std::atoi(V);
      if (Opts.Iterations <= 0) {
        std::fprintf(stderr, "cmcc_client: bad --iterations value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--tenant=")) {
      Opts.Tenant = static_cast<uint32_t>(std::strtoul(V, nullptr, 10));
    } else if (const char *V = Value("--trace-id=")) {
      Opts.TraceId = obs::parseTraceId(V);
      if (!Opts.TraceId) {
        std::fprintf(stderr, "cmcc_client: bad --trace-id value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--data=")) {
      Opts.Data = true;
      Opts.DataSeed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--data") {
      Opts.Data = true;
    } else if (const char *V = Value("--coeff=")) {
      const char *Eq = std::strchr(V, '=');
      if (!Eq || Eq == V) {
        std::fprintf(stderr, "cmcc_client: --coeff wants NAME=VALUE, got '%s'\n",
                     V);
        return false;
      }
      Opts.Coefficients.emplace_back(std::string(V, Eq),
                                     static_cast<float>(std::atof(Eq + 1)));
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (!Arg.empty() && Arg[0] == '-' && Arg.size() > 1 &&
               !std::isdigit(static_cast<unsigned char>(Arg[1]))) {
      std::fprintf(stderr, "cmcc_client: unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Opts.Command.empty()) {
      Opts.Command = Arg;
    } else {
      Opts.Args.push_back(Arg);
    }
  }
  if (Opts.Command.empty() || Opts.Connect.empty()) {
    printUsage();
    return false;
  }
  return true;
}

const char *statusName(uint8_t Status) {
  switch (static_cast<StencilService::JobStatus>(Status)) {
  case StencilService::JobStatus::Ok:
    return "ok";
  case StencilService::JobStatus::Error:
    return "error";
  case StencilService::JobStatus::QueueFull:
    return "queue-full";
  case StencilService::JobStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case StencilService::JobStatus::BadJobId:
    return "bad-job-id";
  case StencilService::JobStatus::Cancelled:
    return "cancelled";
  }
  return "?";
}

const char *stateName(uint8_t State) {
  switch (static_cast<StencilService::JobState>(State)) {
  case StencilService::JobState::Queued:
    return "queued";
  case StencilService::JobState::Compiling:
    return "compiling";
  case StencilService::JobState::Executing:
    return "executing";
  case StencilService::JobState::Done:
    return "done";
  case StencilService::JobState::Failed:
    return "failed";
  }
  return "?";
}

net::SubmitRequest buildSubmit(const ClientOptions &Opts) {
  net::SubmitRequest Req;
  Req.Kind = Opts.Kind;
  if (!Opts.Args.empty())
    Req.Source = Opts.Args[0];
  Req.Fingerprint = Opts.Fingerprint;
  Req.SubRows = static_cast<uint32_t>(Opts.SubRows);
  Req.SubCols = static_cast<uint32_t>(Opts.SubCols);
  Req.Iterations = static_cast<uint32_t>(Opts.Iterations);
  if (Opts.Data) {
    // One source grid per node-grid shape is unknowable client side, so
    // --data sizes the global grid as subgrid * a 4x4 node grid — the
    // test-machine default the server mode also uses.
    net::SubmitRequest::BoundGrid B;
    B.Kind = net::SubmitRequest::Role::Source;
    B.Grid.Name = "X";
    B.Grid.Rows = static_cast<uint32_t>(Opts.SubRows * 4);
    B.Grid.Cols = static_cast<uint32_t>(Opts.SubCols * 4);
    B.Grid.Data.resize(static_cast<size_t>(B.Grid.Rows) * B.Grid.Cols);
    // SplitMix64-style fill, deterministic in the seed.
    uint64_t S = Opts.DataSeed;
    for (float &F : B.Grid.Data) {
      S += 0x9e3779b97f4a7c15ull;
      uint64_t Z = S;
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
      Z ^= Z >> 31;
      F = static_cast<float>(Z % 2000) / 1000.0f - 1.0f;
    }
    Req.ResultName = "R";
    Req.Grids.push_back(std::move(B));
    for (const auto &[Name, Val] : Opts.Coefficients) {
      net::SubmitRequest::BoundGrid G;
      G.Kind = net::SubmitRequest::Role::Coefficient;
      G.Grid.Name = Name;
      G.Grid.Rows = Req.Grids[0].Grid.Rows;
      G.Grid.Cols = Req.Grids[0].Grid.Cols;
      G.Grid.Data.assign(static_cast<size_t>(G.Grid.Rows) * G.Grid.Cols, Val);
      Req.Grids.push_back(std::move(G));
    }
  }
  return Req;
}

int printWaitResult(const net::WaitResponse &R) {
  if (!R.Ok) {
    std::fprintf(stderr, "cmcc_client: job failed (%s): %s\n",
                 statusName(R.Status), R.Message.c_str());
    return 1;
  }
  const TimingReport T = R.report();
  std::printf("fp %s  %-5s compile %8.3f ms  execute %8.3f ms  "
              "%s Mflops\n",
              fingerprintHex(R.Fingerprint).c_str(),
              R.CacheHit ? "warm" : (R.Coalesced ? "coal" : "cold"),
              R.CompileSeconds * 1e3, R.ExecuteSeconds * 1e3,
              formatFixed(T.measuredMflops(), 1).c_str());
  if (R.HasResult)
    std::printf("result %s %ux%u checksum %016llx\n", R.Result.Name.c_str(),
                R.Result.Rows, R.Result.Cols,
                static_cast<unsigned long long>(
                    fnv1a(R.Result.Data.data(),
                          R.Result.Data.size() * sizeof(float))));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ClientOptions Opts;
  if (!parseArguments(Argc, Argv, Opts))
    return 2;

  Expected<net::Endpoint> Target = net::Endpoint::parse(Opts.Connect);
  if (!Target) {
    std::fprintf(stderr, "cmcc_client: %s\n", Target.error().message().c_str());
    return 2;
  }
  net::Client::Options ConnOpts;
  ConnOpts.Target = *Target;
  ConnOpts.Tenant = Opts.Tenant;
  Expected<std::unique_ptr<net::Client>> Client = net::Client::connect(ConnOpts);
  if (!Client) {
    std::fprintf(stderr, "cmcc_client: %s\n", Client.error().message().c_str());
    return 1;
  }
  net::Client &C = **Client;

  auto NeedId = [&](int64_t &Id) {
    if (Opts.Args.empty()) {
      std::fprintf(stderr, "cmcc_client: %s needs a job id\n",
                   Opts.Command.c_str());
      return false;
    }
    Id = std::atoll(Opts.Args[0].c_str());
    return true;
  };

  if (Opts.Command == "hello") {
    Expected<net::HelloResponse> R = C.hello("cmcc_client");
    if (!R) {
      std::fprintf(stderr, "cmcc_client: %s\n", R.error().message().c_str());
      return 1;
    }
    std::printf("protocol version %u\nserver: %s\nmachine: %s\n", R->Version,
                R->Banner.c_str(), R->Machine.c_str());
    return 0;
  }
  if (Opts.Command == "stats") {
    Expected<net::StatsResponse> R = C.stats();
    if (!R) {
      std::fprintf(stderr, "cmcc_client: %s\n", R.error().message().c_str());
      return 1;
    }
    if (Opts.Json) {
      // One JSON object holding the service stats and the net.* wire
      // metrics every StatsResponse carries.
      std::printf("{\"service\": %s, \"net\": %s}\n", R->Json.c_str(),
                  R->NetJson.c_str());
    } else {
      std::fputs(R->Table.c_str(), stdout);
      if (!R->NetTable.empty()) {
        std::fputs("\n", stdout);
        std::fputs(R->NetTable.c_str(), stdout);
      }
    }
    return 0;
  }
  if (Opts.Command == "trace") {
    int64_t Id;
    if (!NeedId(Id))
      return 2;
    Expected<net::TimelineResponse> R = C.timeline(Id);
    if (!R) {
      std::fprintf(stderr, "cmcc_client: %s\n", R.error().message().c_str());
      return 1;
    }
    if (!R->Found) {
      std::fprintf(stderr,
                   "cmcc_client: no timeline for job %lld (still running, "
                   "never existed, or aged out of the ring)\n",
                   static_cast<long long>(Id));
      return 1;
    }
    std::printf("%s\n", R->Json.c_str());
    return 0;
  }
  if (Opts.Command == "dump") {
    Expected<net::DumpResponse> R = C.dump();
    if (!R) {
      std::fprintf(stderr, "cmcc_client: %s\n", R.error().message().c_str());
      return 1;
    }
    std::fputs(R->Json.c_str(), stdout);
    return 0;
  }
  if (Opts.Command == "submit" || Opts.Command == "run") {
    if (Opts.Kind != 3 && Opts.Args.empty()) {
      std::fprintf(stderr, "cmcc_client: %s needs source text\n",
                   Opts.Command.c_str());
      return 2;
    }
    // The client mints the trace id: the whole cross-process span tree
    // (client, server, service, backend) hangs under it.
    const uint64_t TraceId = Opts.TraceId ? Opts.TraceId : obs::mintTraceId();
    obs::ScopedTraceContext TraceScope(TraceId, obs::mintSpanId());
    auto DoSubmit = [&] {
      CMCC_SPAN("client.submit");
      net::SubmitRequest Req = buildSubmit(Opts);
      Req.TraceId = TraceId;
      Req.ParentSpan = obs::currentTraceContext().SpanId;
      return C.submit(Req);
    };
    Expected<net::SubmitResponse> S = DoSubmit();
    if (!S) {
      std::fprintf(stderr, "cmcc_client: %s\n", S.error().message().c_str());
      return 1;
    }
    std::printf("job %lld trace %s\n", static_cast<long long>(S->JobId),
                obs::formatTraceId(TraceId).c_str());
    if (Opts.Command == "submit")
      return 0;
    auto DoWait = [&] {
      CMCC_SPAN("client.wait");
      return C.wait(S->JobId);
    };
    Expected<net::WaitResponse> W = DoWait();
    if (!W) {
      std::fprintf(stderr, "cmcc_client: %s\n", W.error().message().c_str());
      return 1;
    }
    return printWaitResult(*W);
  }
  if (Opts.Command == "poll") {
    int64_t Id;
    if (!NeedId(Id))
      return 2;
    Expected<net::PollResponse> R = C.poll(Id);
    if (!R) {
      std::fprintf(stderr, "cmcc_client: %s\n", R.error().message().c_str());
      return 1;
    }
    std::printf("%s\n", stateName(R->State));
    return 0;
  }
  if (Opts.Command == "wait") {
    int64_t Id;
    if (!NeedId(Id))
      return 2;
    Expected<net::WaitResponse> R = C.wait(Id);
    if (!R) {
      std::fprintf(stderr, "cmcc_client: %s\n", R.error().message().c_str());
      return 1;
    }
    return printWaitResult(*R);
  }
  if (Opts.Command == "cancel") {
    int64_t Id;
    if (!NeedId(Id))
      return 2;
    Expected<net::CancelResponse> R = C.cancel(Id);
    if (!R) {
      std::fprintf(stderr, "cmcc_client: %s\n", R.error().message().c_str());
      return 1;
    }
    std::printf("%s\n", R->Cancelled ? "cancelled" : "not-cancelled");
    return R->Cancelled ? 0 : 1;
  }
  std::fprintf(stderr, "cmcc_client: unknown command '%s'\n",
               Opts.Command.c_str());
  printUsage();
  return 2;
}
