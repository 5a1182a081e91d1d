//===- tools/cmcc_serve.cpp - Batch driver for StencilService -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch front end for the serving layer: reads a job manifest, submits
/// every job to a StencilService, waits for completion, and reports
/// throughput plus the service's operational metrics. One manifest line
/// is one job:
///
///   job <kind> <source-or-fingerprint>
///   repeat <N> <kind> <source-or-fingerprint>
///
/// where <kind> is assignment | subroutine | lisp | fingerprint. For the
/// three source kinds the rest of the line is the source text, or
/// '@path' to load it from a file (SUBROUTINEs span lines, so they
/// usually come from files). For fingerprint it is the 16-digit hex plan
/// key, as printed by this tool or by the service stats. Blank lines and
/// '#' comments are ignored.
///
///   cmcc_serve [options] manifest.jobs
///   cmcc_serve [options] --listen=unix:PATH|tcp:HOST:PORT [manifest.jobs]
///
/// With --listen the tool becomes the network front door (DESIGN.md
/// §5h): it serves the wire protocol on every given endpoint until
/// SIGTERM/SIGINT triggers a graceful drain (stop accepting, finish
/// in-flight jobs, flush, exit). A manifest, when also given, is
/// served locally before the listeners take over.
///
/// Options:
///   --listen=SPEC          serve the network protocol on SPEC
///                          (repeatable: one TCP + one Unix is common)
///   --max-connections=N    concurrent-connection bound (default 256;
///                          excess accepts are closed immediately)
///   --tenant-quota=ID:INFLIGHT[:QUEUED]
///                          per-tenant admission quota (repeatable);
///                          0 = unlimited for that dimension
///   --version              print protocol version + build provenance
///   --backend=cm2|native|njit  execution backend: the simulated CM-2
///                          (default), the host-speed native loop nest,
///                          or the plan-specialized JIT — native and
///                          njit Mflops are real wall-clock
///   --list-backends        print backend names and exit
///   --shards=N             run every job over N worker *processes*
///                          (default 1 = in-process), each executing
///                          the backend over its block of the node
///                          grid; results are bitwise identical, and a
///                          killed worker is respawned on the next run
///                          (pair with --max-retries so the in-flight
///                          job is re-run)
///   --shard-grid=RxC       explicit shard decomposition (power-of-two
///                          dims dividing the node grid); overrides the
///                          near-square choice --shards makes
///   --machine=16|2048|RxC  node grid (default 16 = 4x4)
///   --subgrid=RxC          per-node subgrid for timing jobs (128x128)
///   --iterations=N         iterations per job (default 100)
///   --workers=N            service dispatch threads (default 2)
///   --cache-capacity=N     in-memory plan-cache entries (default 64)
///   --cache-dir=<dir>      enable the on-disk plan-cache tier
///   --queue-cap=N          bound the job queue to N entries (default
///                          unbounded)
///   --admission=block|reject  policy at the cap: block the submitter
///                          (default — this is a batch producer) or
///                          reject with QueueFull
///   --deadline-ms=N        per-job wall-clock budget (default none)
///   --max-retries=N        execute retries on transient faults
///                          (default 0)
///   --faults=SPEC          arm the fault registry, CMCC_FAULTS syntax
///                          (site:rate[:count[:delay_ms]],...)
///   --fault-seed=N         seed of the deterministic fire pattern
///   --time-tile=auto|N     timesteps fused behind each halo exchange, a
///                          cm2-model extension: 1 = classic (default),
///                          N > 1 a fixed depth (clamped per plan), auto
///                          = the autotuner sweeps once per (fingerprint,
///                          subgrid, machine) and persists the winner
///                          beside the plan cache. Host backends (native,
///                          njit) run one step per exchange and ignore it
///   --slow-ms=N            jobs slower than N ms are flagged slow:
///                          counted, flight-recorded, and (when tracing)
///                          the trace file is flushed at their finish
///   --flight-dump=PATH     where SIGUSR1 writes the flight-recorder
///                          JSON (default stderr); the dump also runs
///                          automatically on a fatal error
///   --json                 dump the final ServiceStats as JSON
///   --metrics-json <file>  write process + service metric registries
///                          as JSON to <file> ('-' for stdout)
///   --trace <file>         record a Chrome trace-event JSON of the run
///                          (same as setting CMCC_TRACE=<file>; flushed
///                          every 500 ms, so the file on disk is valid
///                          JSON even while the server runs)
///   --quiet                suppress the per-job lines
///
/// Signals: SIGTERM/SIGINT drain a listening server gracefully;
/// SIGUSR1 dumps the in-memory flight recorder (last ~4096 structured
/// events: accepts, faults fired, retries, fallbacks, slow jobs, ...)
/// without disturbing service.
///
/// Exits nonzero if any job fails.
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "core/PlanFingerprint.h"
#include "net/Server.h"
#include "shard/ShardedBackend.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/StencilService.h"
#include "support/FaultInjection.h"
#include "support/Provenance.h"
#include "support/StringUtils.h"
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cmcc;

namespace {

struct ServeOptions {
  std::string ManifestFile;
  std::string Backend = "cm2";
  int Shards = 1;
  int ShardRows = 0, ShardCols = 0;
  MachineConfig Machine = MachineConfig::testMachine16();
  int SubRows = 128, SubCols = 128;
  int Iterations = 100;
  int Workers = 2;
  size_t CacheCapacity = 64;
  std::string CacheDir;
  int QueueCap = 0;
  /// Batch producers want backpressure, not refusals, by default.
  StencilService::Admission Admit = StencilService::Admission::Block;
  long DeadlineMs = 0;
  int MaxRetries = 0;
  std::string Faults;
  uint64_t FaultSeed = 0;
  long SlowJobMs = 0;
  /// Time-tile depth cm2 jobs run with: 1 = classic, k > 1 fixed, 0 =
  /// the autotuner picks per (fingerprint, subgrid, machine).
  int TimeTile = 1;
  std::string FlightDumpPath;
  std::vector<net::Endpoint> Listen;
  int MaxConnections = 256;
  std::map<uint32_t, StencilService::TenantQuota> TenantQuotas;
  bool Json = false;
  std::string MetricsJsonPath;
  std::string TracePath;
  bool Quiet = false;
};

void printUsage() {
  std::fprintf(stderr,
               "usage: cmcc_serve [options] <manifest.jobs>\n"
               "       cmcc_serve [options] --listen=unix:PATH|tcp:HOST:PORT\n"
               "options: --backend=cm2|native|njit --list-backends\n"
               "         --shards=N --shard-grid=RxC\n"
               "         --listen=SPEC --max-connections=N\n"
               "         --tenant-quota=ID:INFLIGHT[:QUEUED] --version\n"
               "         --machine=16|2048|RxC --subgrid=RxC --iterations=N\n"
               "         --workers=N --cache-capacity=N --cache-dir=<dir>\n"
               "         --queue-cap=N --admission=block|reject\n"
               "         --deadline-ms=N --max-retries=N\n"
               "         --faults=SPEC --fault-seed=N\n"
               "         --time-tile=auto|N (cm2 only; host backends "
               "run depth 1)\n"
               "         --slow-ms=N --flight-dump=PATH\n"
               "         --json --metrics-json <file> --trace <file> --quiet\n"
               "manifest lines:\n"
               "  job <assignment|subroutine|lisp|fingerprint> <text|@file>\n"
               "  repeat <N> <kind> <text|@file>\n");
}

bool parseShape(const char *Text, int *Rows, int *Cols) {
  return std::sscanf(Text, "%dx%d", Rows, Cols) == 2 && *Rows > 0 &&
         *Cols > 0;
}

bool parseArguments(int Argc, char **Argv, ServeOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (Arg == "--version") {
      std::printf("cmcc_serve: protocol version %u\nbuilt with: %s\n",
                  static_cast<unsigned>(net::ProtocolVersion),
                  provenanceSummary().c_str());
      std::exit(0);
    } else if (const char *V = Value("--listen=")) {
      Expected<net::Endpoint> E = net::Endpoint::parse(V);
      if (!E) {
        std::fprintf(stderr, "cmcc_serve: bad --listen: %s\n",
                     E.error().message().c_str());
        return false;
      }
      Opts.Listen.push_back(*E);
    } else if (const char *V = Value("--max-connections=")) {
      Opts.MaxConnections = std::atoi(V);
      if (Opts.MaxConnections <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --max-connections value '%s'\n",
                     V);
        return false;
      }
    } else if (const char *V = Value("--tenant-quota=")) {
      unsigned Tenant = 0;
      int InFlight = 0, Queued = 0;
      const int N = std::sscanf(V, "%u:%d:%d", &Tenant, &InFlight, &Queued);
      if (N < 2 || InFlight < 0 || Queued < 0) {
        std::fprintf(stderr,
                     "cmcc_serve: bad --tenant-quota value '%s' "
                     "(want ID:INFLIGHT[:QUEUED])\n",
                     V);
        return false;
      }
      StencilService::TenantQuota Q;
      Q.MaxInFlight = InFlight;
      Q.MaxQueued = Queued;
      Opts.TenantQuotas[Tenant] = Q;
    } else if (Arg == "--list-backends") {
      for (const std::string &Name : availableBackendNames())
        std::printf("%s\n", Name.c_str());
      std::exit(0);
    } else if (const char *V = Value("--backend=")) {
      if (!isBackendName(V)) {
        std::fprintf(stderr, "cmcc_serve: %s\n",
                     unknownBackendError(V).message().c_str());
        return false;
      }
      Opts.Backend = V;
    } else if (const char *V = Value("--shards=")) {
      Opts.Shards = std::atoi(V);
      if (Opts.Shards <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --shards value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--shard-grid=")) {
      if (!parseShape(V, &Opts.ShardRows, &Opts.ShardCols)) {
        std::fprintf(stderr, "cmcc_serve: bad --shard-grid value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--machine=")) {
      if (std::strcmp(V, "16") == 0) {
        Opts.Machine = MachineConfig::testMachine16();
      } else if (std::strcmp(V, "2048") == 0) {
        Opts.Machine = MachineConfig::fullMachine2048();
      } else {
        int R, C;
        if (!parseShape(V, &R, &C)) {
          std::fprintf(stderr, "cmcc_serve: bad --machine value '%s'\n", V);
          return false;
        }
        Opts.Machine = MachineConfig::withNodeGrid(R, C);
      }
    } else if (const char *V = Value("--subgrid=")) {
      if (!parseShape(V, &Opts.SubRows, &Opts.SubCols)) {
        std::fprintf(stderr, "cmcc_serve: bad --subgrid value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--iterations=")) {
      Opts.Iterations = std::atoi(V);
      if (Opts.Iterations <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --iterations value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--workers=")) {
      Opts.Workers = std::atoi(V);
      if (Opts.Workers <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --workers value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--cache-capacity=")) {
      int N = std::atoi(V);
      if (N <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --cache-capacity value '%s'\n",
                     V);
        return false;
      }
      Opts.CacheCapacity = static_cast<size_t>(N);
    } else if (const char *V = Value("--cache-dir=")) {
      Opts.CacheDir = V;
    } else if (const char *V = Value("--queue-cap=")) {
      Opts.QueueCap = std::atoi(V);
      if (Opts.QueueCap <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --queue-cap value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--admission=")) {
      if (std::strcmp(V, "block") == 0) {
        Opts.Admit = StencilService::Admission::Block;
      } else if (std::strcmp(V, "reject") == 0) {
        Opts.Admit = StencilService::Admission::Reject;
      } else {
        std::fprintf(stderr,
                     "cmcc_serve: bad --admission value '%s' "
                     "(want block or reject)\n",
                     V);
        return false;
      }
    } else if (const char *V = Value("--deadline-ms=")) {
      Opts.DeadlineMs = std::atol(V);
      if (Opts.DeadlineMs <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --deadline-ms value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--max-retries=")) {
      Opts.MaxRetries = std::atoi(V);
      if (Opts.MaxRetries < 0) {
        std::fprintf(stderr, "cmcc_serve: bad --max-retries value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--faults=")) {
      Opts.Faults = V;
    } else if (const char *V = Value("--fault-seed=")) {
      Opts.FaultSeed = std::strtoull(V, nullptr, 10);
    } else if (const char *V = Value("--slow-ms=")) {
      Opts.SlowJobMs = std::atol(V);
      if (Opts.SlowJobMs <= 0) {
        std::fprintf(stderr, "cmcc_serve: bad --slow-ms value '%s'\n", V);
        return false;
      }
    } else if (const char *V = Value("--time-tile=")) {
      if (std::strcmp(V, "auto") == 0) {
        Opts.TimeTile = 0; // Autotuned per (fingerprint, subgrid, machine).
      } else {
        Opts.TimeTile = std::atoi(V);
        if (Opts.TimeTile <= 0) {
          std::fprintf(stderr,
                       "cmcc_serve: bad --time-tile value '%s' "
                       "(want auto or a depth >= 1)\n",
                       V);
          return false;
        }
      }
    } else if (const char *V = Value("--flight-dump=")) {
      Opts.FlightDumpPath = V;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (const char *V = Value("--metrics-json=")) {
      Opts.MetricsJsonPath = V;
    } else if (Arg == "--metrics-json") {
      if (++I >= Argc) {
        std::fprintf(stderr, "cmcc_serve: --metrics-json needs a file\n");
        return false;
      }
      Opts.MetricsJsonPath = Argv[I];
    } else if (const char *V = Value("--trace=")) {
      Opts.TracePath = V;
    } else if (Arg == "--trace") {
      if (++I >= Argc) {
        std::fprintf(stderr, "cmcc_serve: --trace needs a file\n");
        return false;
      }
      Opts.TracePath = Argv[I];
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "cmcc_serve: unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      if (!Opts.ManifestFile.empty()) {
        std::fprintf(stderr, "cmcc_serve: more than one manifest\n");
        return false;
      }
      Opts.ManifestFile = Arg;
    }
  }
  if (Opts.ManifestFile.empty() && Opts.Listen.empty()) {
    printUsage();
    return false;
  }
  return true;
}

/// One parsed manifest entry, pre-expanded (repeat N becomes N jobs that
/// share the same request).
struct ManifestJob {
  int Line = 0;
  int Count = 1;
  StencilService::JobRequest Request;
};

const char *statusName(StencilService::JobStatus Status) {
  switch (Status) {
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

bool parseKind(const std::string &Word, StencilService::SourceKind &Kind) {
  if (Word == "assignment")
    Kind = StencilService::SourceKind::FortranAssignment;
  else if (Word == "subroutine")
    Kind = StencilService::SourceKind::FortranSubroutine;
  else if (Word == "lisp")
    Kind = StencilService::SourceKind::DefStencil;
  else if (Word == "fingerprint")
    Kind = StencilService::SourceKind::Fingerprint;
  else
    return false;
  return true;
}

bool parseManifest(const ServeOptions &Opts, std::vector<ManifestJob> &Jobs) {
  std::ifstream In(Opts.ManifestFile);
  if (!In) {
    std::fprintf(stderr, "cmcc_serve: cannot open '%s'\n",
                 Opts.ManifestFile.c_str());
    return false;
  }
  std::string Text;
  int LineNo = 0;
  auto Fail = [&](const char *What) {
    std::fprintf(stderr, "cmcc_serve: %s:%d: %s\n", Opts.ManifestFile.c_str(),
                 LineNo, What);
    return false;
  };
  while (std::getline(In, Text)) {
    ++LineNo;
    std::istringstream Line(Text);
    std::string Verb;
    if (!(Line >> Verb) || Verb[0] == '#')
      continue;
    ManifestJob Job;
    Job.Line = LineNo;
    if (Verb == "repeat") {
      if (!(Line >> Job.Count) || Job.Count <= 0)
        return Fail("repeat needs a positive count");
    } else if (Verb != "job") {
      return Fail("expected 'job' or 'repeat'");
    }
    std::string KindWord;
    if (!(Line >> KindWord) || !parseKind(KindWord, Job.Request.Kind))
      return Fail(
          "expected assignment | subroutine | lisp | fingerprint");
    std::string Rest;
    std::getline(Line, Rest);
    size_t Start = Rest.find_first_not_of(" \t");
    Rest = Start == std::string::npos ? std::string() : Rest.substr(Start);
    if (Rest.empty())
      return Fail("missing source text / fingerprint");
    if (Job.Request.Kind == StencilService::SourceKind::Fingerprint) {
      char *End = nullptr;
      Job.Request.Fingerprint = std::strtoull(Rest.c_str(), &End, 16);
      if (End == Rest.c_str() || *End != '\0')
        return Fail("bad fingerprint (want 16 hex digits)");
    } else if (Rest[0] == '@') {
      std::ifstream SourceFile(Rest.substr(1));
      if (!SourceFile)
        return Fail("cannot open source file");
      std::ostringstream Buffer;
      Buffer << SourceFile.rdbuf();
      Job.Request.Source = Buffer.str();
    } else {
      Job.Request.Source = Rest;
    }
    Job.Request.SubRows = Opts.SubRows;
    Job.Request.SubCols = Opts.SubCols;
    Job.Request.Iterations = Opts.Iterations;
    Jobs.push_back(std::move(Job));
  }
  if (Jobs.empty())
    return Fail("manifest contains no jobs");
  return true;
}

/// The server a SIGTERM/SIGINT drains. requestDrain() is
/// async-signal-safe, so the handler may call it directly.
std::atomic<net::Server *> GServer{nullptr};

void onDrainSignal(int) {
  if (net::Server *S = GServer.load(std::memory_order_acquire))
    S->requestDrain();
}

/// SIGUSR1 requests a flight-recorder dump. The handler only bumps a
/// counter (async-signal-safe); the main thread notices on its next
/// poll tick and does the file I/O.
std::atomic<long> GDumpRequests{0};
long GDumpsServed = 0;

void onDumpSignal(int) {
  GDumpRequests.fetch_add(1, std::memory_order_relaxed);
}

/// Writes the flight recorder to \p Path ("" or "-" = stderr). Returns
/// false if the file could not be written.
bool writeFlightDump(const std::string &Path) {
  const std::string Json = obs::FlightRecorder::process().json();
  if (Path.empty() || Path == "-") {
    std::fputs(Json.c_str(), stderr);
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cmcc_serve: cannot write '%s'\n", Path.c_str());
    return false;
  }
  Out << Json;
  return true;
}

/// Serves any pending SIGUSR1 dump requests (coalescing a burst into
/// one dump per poll tick).
void serveDumpRequests(const ServeOptions &Opts) {
  const long Requested = GDumpRequests.load(std::memory_order_relaxed);
  if (Requested == GDumpsServed)
    return;
  GDumpsServed = Requested;
  writeFlightDump(Opts.FlightDumpPath);
  // A trace flush rides along: SIGUSR1 means "show me the state now",
  // and the trace file should be as current as the flight dump.
  if (obs::Trace::active())
    obs::Trace::flush();
}

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Opts;
  if (!parseArguments(Argc, Argv, Opts))
    return 2;
  std::vector<ManifestJob> Manifest;
  if (!Opts.ManifestFile.empty() && !parseManifest(Opts, Manifest))
    return 2;

  // 500 ms flush cadence: a long-running server's trace file stays
  // valid JSON on disk, and a kill loses at most half a second of
  // spans.
  if (!Opts.TracePath.empty())
    obs::Trace::start(Opts.TracePath, 500);

  {
    struct sigaction SA {};
    SA.sa_handler = onDumpSignal;
    ::sigaction(SIGUSR1, &SA, nullptr);
  }

  if (!Opts.Faults.empty()) {
    Expected<std::vector<fault::Rule>> Rules =
        fault::Registry::parse(Opts.Faults);
    if (!Rules) {
      std::fprintf(stderr, "cmcc_serve: bad --faults: %s\n",
                   Rules.error().message().c_str());
      return 2;
    }
    fault::Registry &Reg = fault::Registry::process();
    Reg.setSeed(Opts.FaultSeed);
    for (fault::Rule &R : *Rules)
      Reg.arm(std::move(R));
  }

  StencilService::Options ServiceOpts;
  ServiceOpts.Workers = Opts.Workers;
  ServiceOpts.Cache.Capacity = Opts.CacheCapacity;
  ServiceOpts.Cache.DiskDir = Opts.CacheDir;
  ServiceOpts.Backend = Opts.Backend;
  ServiceOpts.Shards = Opts.Shards;
  ServiceOpts.ShardRows = Opts.ShardRows;
  ServiceOpts.ShardCols = Opts.ShardCols;
  ServiceOpts.QueueCap = Opts.QueueCap;
  ServiceOpts.Admit = Opts.Admit;
  ServiceOpts.DeadlineMs = Opts.DeadlineMs;
  ServiceOpts.MaxRetries = Opts.MaxRetries;
  ServiceOpts.SlowJobMs = Opts.SlowJobMs;
  ServiceOpts.TimeTile = Opts.TimeTile;
  ServiceOpts.TenantQuotas = Opts.TenantQuotas;
  StencilService Service(Opts.Machine, ServiceOpts);

  // A bad decomposition would fail every job identically; refuse it at
  // startup with the explanation instead.
  const auto *Sharded =
      dynamic_cast<const shard::ShardedBackend *>(&Service.backend());
  if (Sharded && !Sharded->valid()) {
    std::fprintf(stderr, "cmcc_serve: %s\n",
                 Sharded->gridErrorMessage().c_str());
    return 2;
  }

  if (!Opts.Quiet) {
    std::printf("machine: %s\nbackend: %s%s\nserving %s with %d workers\n",
                Opts.Machine.summary().c_str(), Service.backend().name(),
                Service.backend().reportsWallClock() ? " (wall-clock)"
                                                     : " (simulated)",
                Opts.ManifestFile.empty() ? "the network"
                                          : Opts.ManifestFile.c_str(),
                Opts.Workers);
    if (Sharded)
      std::printf("sharding: %dx%d (%d worker processes)\n",
                  Sharded->shardGrid().Rows, Sharded->shardGrid().Cols,
                  Sharded->shardGrid().count());
    if (!Opts.Faults.empty())
      std::printf("faults armed: %s (seed %llu)\n", Opts.Faults.c_str(),
                  static_cast<unsigned long long>(Opts.FaultSeed));
  }

  std::unique_ptr<net::Server> Server;
  if (!Opts.Listen.empty()) {
    net::Server::Options NetOpts;
    NetOpts.Listen = Opts.Listen;
    NetOpts.MaxConnections = Opts.MaxConnections;
    NetOpts.Banner = provenanceSummary();
    Server = std::make_unique<net::Server>(Service, NetOpts);
    if (Error E = Server->start()) {
      std::fprintf(stderr, "cmcc_serve: %s\n", E.message().c_str());
      return 1;
    }
    GServer.store(Server.get(), std::memory_order_release);
    struct sigaction SA {};
    SA.sa_handler = onDrainSignal;
    ::sigaction(SIGTERM, &SA, nullptr);
    ::sigaction(SIGINT, &SA, nullptr);
    for (const net::Endpoint &E : Opts.Listen) {
      if (E.Transport == net::Endpoint::Kind::Tcp && E.Port == 0)
        std::printf("listening on tcp:%s:%d\n", E.Host.c_str(),
                    Server->tcpPort());
      else
        std::printf("listening on %s\n", E.str().c_str());
    }
    std::fflush(stdout);
  }

  auto Start = std::chrono::steady_clock::now();
  struct Submitted {
    int Line;
    StencilService::JobId Id;
  };
  std::vector<Submitted> Ids;
  for (const ManifestJob &Job : Manifest)
    for (int I = 0; I != Job.Count; ++I)
      Ids.push_back({Job.Line, Service.submit(Job.Request)});

  int Failures = 0;
  for (const Submitted &S : Ids) {
    StencilService::JobResult R = Service.wait(S.Id);
    if (!R.Ok) {
      ++Failures;
      std::fprintf(stderr, "cmcc_serve: job at line %d failed (%s): %s\n",
                   S.Line, statusName(R.Status), R.Message.c_str());
      continue;
    }
    if (!Opts.Quiet) {
      std::string Recovery;
      if (R.TimeTileUsed > 1)
        Recovery += "  tile " + std::to_string(R.TimeTileUsed);
      if (R.Retries)
        Recovery += "  retries " + std::to_string(R.Retries);
      if (R.FellBack)
        Recovery += "  (fell back to cm2)";
      std::printf("line %-4d fp %s  %-5s compile %8.3f ms  execute %8.3f ms  "
                  "%s %s Mflops%s\n",
                  S.Line, fingerprintHex(R.Fingerprint).c_str(),
                  R.CacheHit ? "warm" : (R.Coalesced ? "coal" : "cold"),
                  R.CompileSeconds * 1e3, R.ExecuteSeconds * 1e3,
                  Service.backend().reportsWallClock() ? "wall" : "sim",
                  formatFixed(R.Report.measuredMflops(), 1).c_str(),
                  Recovery.c_str());
    }
  }
  double HostSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  if (Server) {
    // Serve the network until a drain signal lands; the loop thread
    // exits once every in-flight job is done and every buffer flushed.
    // SIGUSR1 flight dumps are served here, off the signal handler.
    while (!Server->finished()) {
      serveDumpRequests(Opts);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    serveDumpRequests(Opts);
    GServer.store(nullptr, std::memory_order_release);
    Server->stop();
    const net::Server::Counters C = Server->counters();
    if (!Opts.Quiet)
      std::printf("server drained: %ld conns (%ld overload-rejected, "
                  "%ld fault-dropped), %ld frames in, %ld frames out, "
                  "%ld decode errors\n",
                  C.Accepted, C.RejectedOverload, C.DroppedFault, C.FramesIn,
                  C.FramesOut, C.DecodeErrors);
  }

  ServiceStats Stats = Service.stats();
  if (!Opts.Quiet) {
    std::printf("\n%s", Stats.str().c_str());
    if (!Ids.empty())
      std::printf("host wall-clock: %s s  (%s jobs/s)\n",
                  formatFixed(HostSeconds, 3).c_str(),
                  formatFixed(Ids.size() / HostSeconds, 1).c_str());
  }
  if (Opts.Json)
    std::printf("%s\n", Stats.json().c_str());

  if (!Opts.MetricsJsonPath.empty()) {
    std::string Combined = "{\n\"process\": " +
                           obs::Registry::process().json() +
                           ",\n\"service\": " + Service.metrics().json() +
                           "\n}\n";
    if (Opts.MetricsJsonPath == "-") {
      std::fputs(Combined.c_str(), stdout);
    } else {
      std::ofstream Out(Opts.MetricsJsonPath);
      if (!Out) {
        std::fprintf(stderr, "cmcc_serve: cannot write '%s'\n",
                     Opts.MetricsJsonPath.c_str());
        return 1;
      }
      Out << Combined;
    }
  }
  serveDumpRequests(Opts); // A SIGUSR1 landing in manifest mode.
  if (!Opts.TracePath.empty())
    obs::Trace::stop();
  return Failures == 0 ? 0 : 1;
}
