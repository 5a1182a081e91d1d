//===- service/StencilService.cpp -----------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/StencilService.h"
#include "backends/Registry.h"
#include "core/PlanFingerprint.h"
#include "fortran/Parser.h"
#include "obs/FlightRecorder.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "sexpr/DefStencil.h"
#include "shard/ShardedBackend.h"
#include "runtime/TimeTile.h"
#include "stencil/Recognizer.h"
#include "support/Assert.h"
#include "support/FaultInjection.h"
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

using namespace cmcc;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Begin)
      .count();
}

/// Memo key: the front-end kind matters (the same text could be valid
/// under two front ends), the text is the rest.
std::string memoKey(StencilService::SourceKind Kind,
                    const std::string &Source) {
  return std::to_string(static_cast<int>(Kind)) + "\n" + Source;
}

/// The engine jobs run on: the named in-process backend, or — in
/// sharded mode — a multi-process coordinator running that backend
/// over worker blocks (same plans, same fingerprints, bitwise-equal
/// results; see DESIGN.md §5j).
std::unique_ptr<const ExecutionBackend>
makeServiceEngine(const MachineConfig &Config,
                  const StencilService::Options &Opts) {
  if (Opts.sharded()) {
    shard::ShardedBackend::Options SO;
    SO.Shards = Opts.Shards;
    SO.ShardRows = Opts.ShardRows;
    SO.ShardCols = Opts.ShardCols;
    SO.InnerBackend = Opts.Backend;
    SO.ExecOpts = Opts.Exec;
    return std::make_unique<shard::ShardedBackend>(Config, std::move(SO));
  }
  return createBackend(Opts.Backend, Config, Opts.Exec);
}

} // namespace

StencilService::StencilService(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(Opts), Compiler(Config),
      Engine(makeServiceEngine(Config, Opts)),
      Cache(Config, Opts.Cache),
      Tuner(std::make_unique<Autotuner>(
          Config,
          [this, &Opts] {
            Autotuner::Options AO;
            // Records live beside the cached plans unless redirected.
            AO.Dir = Opts.TuneDir.empty() ? Opts.Cache.DiskDir : Opts.TuneDir;
            // Metrics is a later member, so only its address is taken
            // here; the tuner touches it lazily, never at construction.
            AO.Metrics = &Metrics;
            return AO;
          }())),
      JobsSubmitted(Metrics.counter("service.jobs_submitted")),
      JobsCompleted(Metrics.counter("service.jobs_completed")),
      JobsFailed(Metrics.counter("service.jobs_failed")),
      FrontEndRuns(Metrics.counter("service.frontend_runs")),
      SourceMemoHits(Metrics.counter("service.source_memo_hits")),
      CompilesPerformed(Metrics.counter("service.compiles_performed")),
      CompilesCoalesced(Metrics.counter("service.compiles_coalesced")),
      Rejected(Metrics.counter("service.rejected")),
      CancelledJobs(Metrics.counter("service.cancelled")),
      DeadlinesExceeded(Metrics.counter("service.deadline_exceeded")),
      Retries(Metrics.counter("service.retries")),
      Fallbacks(Metrics.counter("service.fallbacks")),
      SlowJobs(Metrics.counter("service.slow_jobs")),
      QueueDepth(Metrics.gauge("service.queue_depth")),
      CompileUs(Metrics.histogram("service.compile_us")),
      ExecuteUs(Metrics.histogram("service.execute_us")),
      SimSeconds(Metrics.sum("service.sim_seconds")),
      UsefulFlops(Metrics.sum("service.useful_flops")) {
  assert(Engine && "unknown backend name (validate with isBackendName)");
  // Pre-register the tuner's mirrored counters so metrics exports show
  // them at zero even before (or without) any autotuned job.
  Metrics.counter("service.tune_hits");
  Metrics.counter("service.tune_disk_hits");
  Metrics.counter("service.tune_misses");
  Metrics.counter("service.tune_disk_rejects");
  Metrics.counter("service.tune_sweeps");
  Compiler.setAllowMultipleSources(Opts.AllowMultipleSources);
  int N = std::max(1, Opts.Workers);
  Workers.reserve(N);
  for (int I = 0; I != N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

StencilService::~StencilService() {
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    ShuttingDown = true;
  }
  JobsChanged.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

const char *StencilService::jobEventName(JobEvent E) {
  switch (E) {
  case JobEvent::Submitted:
    return "submitted";
  case JobEvent::Rejected:
    return "rejected";
  case JobEvent::Queued:
    return "queued";
  case JobEvent::Dequeued:
    return "dequeued";
  case JobEvent::CacheHit:
    return "cache_hit";
  case JobEvent::Coalesced:
    return "coalesced";
  case JobEvent::CompileBegin:
    return "compile_begin";
  case JobEvent::CompileEnd:
    return "compile_end";
  case JobEvent::ExecuteAttempt:
    return "execute_attempt";
  case JobEvent::TransientFailure:
    return "transient_failure";
  case JobEvent::Retry:
    return "retry";
  case JobEvent::Fallback:
    return "fallback";
  case JobEvent::DeadlineExceeded:
    return "deadline_exceeded";
  case JobEvent::Cancelled:
    return "cancelled";
  case JobEvent::SlowJob:
    return "slow_job";
  case JobEvent::Done:
    return "done";
  case JobEvent::Failed:
    return "failed";
  case JobEvent::Autotuned:
    return "autotuned";
  }
  return "unknown";
}

const char *StencilService::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::Error:
    return "error";
  case JobStatus::QueueFull:
    return "queue_full";
  case JobStatus::DeadlineExceeded:
    return "deadline_exceeded";
  case JobStatus::BadJobId:
    return "bad_job_id";
  case JobStatus::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

void StencilService::note(Job &J, JobEvent E, int32_t Detail) {
  J.Timeline.push_back({obs::detail::nowNs(), E, Detail});
}

void StencilService::archiveTimelineLocked(Job &J) {
  JobTimeline T;
  T.Id = J.Id;
  T.TraceId = J.Request.TraceId;
  T.Tenant = J.Request.Tenant;
  T.Fingerprint = J.Result.Fingerprint;
  T.Status = J.Result.Status;
  T.Events = std::move(J.Timeline);
  FinishedTimelines.push_back(std::move(T));
  while (FinishedTimelines.size() > std::max<size_t>(1, Opts.TimelineRingCap))
    FinishedTimelines.pop_front();
}

std::optional<StencilService::JobTimeline>
StencilService::timeline(JobId Id) const {
  std::lock_guard<std::mutex> Lock(JobsMutex);
  // Newest first: re-used ids (never in practice) would find the
  // latest life.
  for (auto It = FinishedTimelines.rbegin(); It != FinishedTimelines.rend();
       ++It)
    if (It->Id == Id)
      return *It;
  return std::nullopt;
}

std::string StencilService::timelineJson(JobId Id) const {
  std::optional<JobTimeline> T = timeline(Id);
  if (!T)
    return std::string();
  std::string Out;
  Out.reserve(256 + T->Events.size() * 64);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "{\"job\": %ld, \"tenant\": %u, \"status\": \"%s\", ",
                T->Id, T->Tenant, jobStatusName(T->Status));
  Out += Buf;
  Out += "\"trace_id\": \"";
  Out += T->TraceId ? obs::formatTraceId(T->TraceId) : "";
  Out += "\", \"fingerprint\": \"";
  Out += obs::formatTraceId(T->Fingerprint);
  Out += "\", \"events\": [";
  const uint64_t Epoch = T->Events.empty() ? 0 : T->Events.front().Ns;
  bool First = true;
  for (const TimelineEntry &E : T->Events) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"t_ms\": %.6f, \"event\": \"%s\", \"detail\": %d, "
                  "\"ns\": %llu}",
                  First ? "" : ",",
                  static_cast<double>(E.Ns - Epoch) / 1e6, jobEventName(E.Event),
                  E.Detail, static_cast<unsigned long long>(E.Ns));
    Out += Buf;
    First = false;
  }
  Out += "\n]}\n";
  return Out;
}

StencilService::JobId StencilService::submit(JobRequest Request) {
  CMCC_SPAN("service.submit");
  JobId Id;
  bool RejectedNow = false;
  {
    std::unique_lock<std::mutex> Lock(JobsMutex);
    assert(!ShuttingDown && "submit after shutdown began");
    TenantCounts &TC = tenantEntry(Request.Tenant);
    const TenantQuota &Quota = quotaFor(Request.Tenant);
    std::string RejectReason;
    // Tenant quotas reject unconditionally (even under Admission::Block):
    // blocking a quota violator would park it on the shared queue and
    // let one tenant starve the rest — the exact failure quotas exist
    // to prevent.
    if (Quota.MaxInFlight > 0 && TC.InFlight >= Quota.MaxInFlight) {
      RejectedNow = true;
      RejectReason = "rejected: tenant " + std::to_string(Request.Tenant) +
                     " over its in-flight quota (" +
                     std::to_string(Quota.MaxInFlight) + ")";
    } else if (Quota.MaxQueued > 0 && TC.Queued >= Quota.MaxQueued) {
      RejectedNow = true;
      RejectReason = "rejected: tenant " + std::to_string(Request.Tenant) +
                     " over its queue-share quota (" +
                     std::to_string(Quota.MaxQueued) + ")";
    } else {
      const size_t Cap = static_cast<size_t>(std::max(0, Opts.QueueCap));
      if (Cap != 0 && Queue.size() >= Cap) {
        if (Opts.Admit == Admission::Block) {
          // Backpressure: park the producer until a worker makes room.
          // ShuttingDown also wakes us (workers drain the whole queue at
          // shutdown, so enqueueing then is still safe).
          JobsChanged.wait(Lock,
                           [&] { return ShuttingDown || Queue.size() < Cap; });
        } else {
          RejectedNow = true;
          RejectReason = "rejected: queue full (cap " +
                         std::to_string(Opts.QueueCap) + ")";
        }
      }
    }
    auto J = std::make_unique<Job>();
    J->Id = Id = NextId++;
    J->Request = std::move(Request);
    if (Opts.DeadlineMs > 0) {
      // The budget starts at admission, not at submit() entry: a
      // blocked producer's wait is backpressure, not job time.
      J->Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(Opts.DeadlineMs);
      J->HasDeadline = true;
    }
    Job *Raw = J.get();
    Raw->AdmittedNs = obs::detail::nowNs();
    note(*Raw, JobEvent::Submitted);
    JobsSubmitted.add(1);
    ++TC.Submitted;
    TC.CtrSubmitted->add(1);
    if (RejectedNow) {
      // The caller still gets a real JobId — the job is just born
      // Failed, so poll/wait (and the soak's submitted ==
      // completed + failed ledger) work uniformly.
      Raw->State = JobState::Failed;
      Raw->Result.Status = JobStatus::QueueFull;
      Raw->Result.Message = std::move(RejectReason);
      note(*Raw, JobEvent::Rejected);
      obs::FlightRecorder::process().record(
          obs::FlightRecorder::EventKind::AdmissionReject, "service.submit",
          static_cast<uint64_t>(Raw->Id), Raw->Request.Tenant,
          Raw->Request.TraceId);
      Rejected.add(1);
      JobsFailed.add(1);
      ++TC.Rejected;
      ++TC.Failed;
      TC.CtrRejected->add(1);
      TC.CtrFailed->add(1);
      archiveTimelineLocked(*Raw);
    } else {
      note(*Raw, JobEvent::Queued);
      Queue.push_back(Raw);
      QueueDepth.add(1);
      ++TC.InFlight;
      ++TC.Queued;
    }
    Jobs.emplace(Id, std::move(J));
  }
  JobsChanged.notify_all();
  if (RejectedNow) {
    // A born-Failed job never reaches finish(); deliver its completion
    // notification here (after the job is visible in the table).
    if (std::function<void(JobId)> Cb = finishedCallback())
      Cb(Id);
  }
  return Id;
}

StencilService::JobState StencilService::poll(JobId Id) const {
  std::lock_guard<std::mutex> Lock(JobsMutex);
  auto It = Jobs.find(Id);
  // An id we never issued: report it the way wait() explains it
  // (BadJobId) rather than asserting — poll is how callers probe.
  if (It == Jobs.end())
    return JobState::Failed;
  return It->second->State;
}

const StencilService::TenantQuota &
StencilService::quotaFor(uint32_t Tenant) const {
  auto It = Opts.TenantQuotas.find(Tenant);
  return It != Opts.TenantQuotas.end() ? It->second
                                       : Opts.DefaultTenantQuota;
}

StencilService::TenantCounts &StencilService::tenantEntry(uint32_t Tenant) {
  TenantCounts &TC = Tenants[Tenant];
  if (!TC.CtrSubmitted) {
    const std::string Prefix =
        "service.tenant." + std::to_string(Tenant) + ".";
    TC.CtrSubmitted = &Metrics.counter(Prefix + "submitted");
    TC.CtrCompleted = &Metrics.counter(Prefix + "completed");
    TC.CtrFailed = &Metrics.counter(Prefix + "failed");
    TC.CtrRejected = &Metrics.counter(Prefix + "rejected");
  }
  return TC;
}

void StencilService::setJobFinishedCallback(std::function<void(JobId)> Cb) {
  std::lock_guard<std::mutex> Lock(CallbackMutex);
  OnJobFinished = std::move(Cb);
}

std::function<void(StencilService::JobId)>
StencilService::finishedCallback() const {
  std::lock_guard<std::mutex> Lock(CallbackMutex);
  return OnJobFinished;
}

bool StencilService::cancel(JobId Id) {
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      return false;
    Job *J = It->second.get();
    if (J->State != JobState::Queued)
      return false; // Picked up (or finished) — the real outcome wins.
    auto Pos = std::find(Queue.begin(), Queue.end(), J);
    assert(Pos != Queue.end() && "queued job missing from the queue");
    Queue.erase(Pos);
    QueueDepth.add(-1);
    J->State = JobState::Failed;
    J->Result.Status = JobStatus::Cancelled;
    J->Result.Message = "cancelled before execution";
    note(*J, JobEvent::Cancelled);
    obs::FlightRecorder::process().record(
        obs::FlightRecorder::EventKind::Cancelled, "service.cancel",
        static_cast<uint64_t>(J->Id), J->Request.Tenant, J->Request.TraceId);
    archiveTimelineLocked(*J);
    CancelledJobs.add(1);
    JobsFailed.add(1);
    TenantCounts &TC = tenantEntry(J->Request.Tenant);
    --TC.Queued;
    --TC.InFlight;
    ++TC.Failed;
    TC.CtrFailed->add(1);
  }
  // The erase made room at the cap; blocked producers may proceed.
  JobsChanged.notify_all();
  if (std::function<void(JobId)> Cb = finishedCallback())
    Cb(Id);
  return true;
}

StencilService::JobResult StencilService::wait(JobId Id) {
  std::unique_lock<std::mutex> Lock(JobsMutex);
  auto It = Jobs.find(Id);
  if (It == Jobs.end()) {
    // Waiting on an id submit() never returned must not hang (nothing
    // will ever finish it) or assert (release builds would read past
    // end). A definite failed result is the only safe answer.
    JobResult R;
    R.Status = JobStatus::BadJobId;
    R.Message = "wait on unknown job id " + std::to_string(Id);
    return R;
  }
  Job *J = It->second.get();
  ++J->Waiters;
  JobsChanged.wait(Lock, [&] {
    return J->State == JobState::Done || J->State == JobState::Failed;
  });
  --J->Waiters;
  JobResult Result = J->Result;
  if (!J->Delivered) {
    J->Delivered = true;
    DeliveredIds.push_back(Id);
    pruneDeliveredLocked();
  }
  return Result;
}

void StencilService::pruneDeliveredLocked() {
  const size_t Keep = std::max<size_t>(1, Opts.TimelineRingCap);
  while (DeliveredIds.size() > Keep) {
    auto It = Jobs.find(DeliveredIds.front());
    // A waiter still inside wait() holds the entry; retry at the next
    // delivery.
    if (It->second->Waiters > 0)
      return;
    Jobs.erase(It);
    DeliveredIds.pop_front();
  }
}

void StencilService::drain() {
  std::unique_lock<std::mutex> Lock(JobsMutex);
  JobsChanged.wait(Lock, [&] {
    for (const auto &Entry : Jobs)
      if (Entry.second->State != JobState::Done &&
          Entry.second->State != JobState::Failed)
        return false;
    return true;
  });
}

void StencilService::workerLoop() {
  for (;;) {
    Job *J = nullptr;
    {
      std::unique_lock<std::mutex> Lock(JobsMutex);
      JobsChanged.wait(Lock, [&] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty()) {
        if (ShuttingDown)
          return; // Queue drained; every submitted job has run.
        continue;
      }
      J = Queue.front();
      Queue.pop_front();
      QueueDepth.add(-1);
      --tenantEntry(J->Request.Tenant).Queued;
      J->State = JobState::Compiling;
      note(*J, JobEvent::Dequeued);
    }
    // The pop made room: wake producers blocked on admission.
    JobsChanged.notify_all();
    // First cancellation point: a job that out-waited its deadline in
    // the queue fails before any compile work is spent on it.
    if (pastDeadline(*J)) {
      finish(*J, JobState::Failed);
      continue;
    }
    process(*J);
  }
}

bool StencilService::pastDeadline(Job &J) {
  if (!J.HasDeadline || std::chrono::steady_clock::now() < J.Deadline)
    return false;
  DeadlinesExceeded.add(1);
  J.Result.Status = JobStatus::DeadlineExceeded;
  J.Result.Message = "deadline of " + std::to_string(Opts.DeadlineMs) +
                     " ms exceeded";
  note(J, JobEvent::DeadlineExceeded,
       static_cast<int32_t>(Opts.DeadlineMs));
  obs::FlightRecorder::process().record(
      obs::FlightRecorder::EventKind::DeadlineExceeded, "service.deadline",
      static_cast<uint64_t>(J.Id), static_cast<uint64_t>(Opts.DeadlineMs),
      J.Request.TraceId);
  return true;
}

const ExecutionBackend &StencilService::fallbackEngine() {
  std::lock_guard<std::mutex> Lock(FallbackMutex);
  if (!Fallback)
    Fallback = createBackend("cm2", Config, Opts.Exec);
  return *Fallback;
}

bool StencilService::resolveSpec(Job &J, std::optional<StencilSpec> &Spec,
                                 uint64_t &Fp) {
  CMCC_SPAN("service.resolve_spec");
  const JobRequest &Req = J.Request;
  if (Req.Kind == SourceKind::Fingerprint) {
    Fp = Req.Fingerprint;
    return true; // No spec: the plan must already exist (or be in flight).
  }

  const std::string Key = memoKey(Req.Kind, Req.Source);
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    auto It = SourceMemo.find(Key);
    if (It != SourceMemo.end()) {
      Spec = It->second.Spec;
      Fp = It->second.Fingerprint;
      SourceMemoHits.add(1);
      return true;
    }
  }

  // Memo miss: run the front end. Two jobs racing on the same new text
  // may both pay this (parse + recognize is cheap); the expensive
  // compile below is still deduplicated by fingerprint.
  DiagnosticEngine Diags;
  std::optional<StencilSpec> Recognized;
  switch (Req.Kind) {
  case SourceKind::FortranAssignment: {
    std::optional<fortran::AssignmentStmt> Stmt =
        fortran::Parser::assignmentFromSource(Req.Source, Diags);
    if (Stmt) {
      RecognizerOptions RO;
      RO.AllowMultipleSources = Opts.AllowMultipleSources;
      Recognizer R(Diags, RO);
      Recognized = R.recognize(*Stmt);
    }
    break;
  }
  case SourceKind::FortranSubroutine: {
    std::optional<fortran::Subroutine> Sub =
        fortran::Parser::subroutineFromSource(Req.Source, Diags);
    if (Sub) {
      RecognizerOptions RO;
      RO.AllowMultipleSources = Opts.AllowMultipleSources;
      Recognizer R(Diags, RO);
      Recognized = R.recognize(*Sub);
    }
    break;
  }
  case SourceKind::DefStencil: {
    std::optional<sexpr::DefStencil> Def =
        sexpr::defStencilFromSource(Req.Source, Diags);
    if (Def)
      Recognized = Def->Spec;
    break;
  }
  case SourceKind::Fingerprint:
    CMCC_UNREACHABLE("handled above");
  }
  FrontEndRuns.add(1);
  if (!Recognized) {
    J.Result.Message = Diags.hasErrors()
                           ? Diags.str()
                           : "source was not recognized as a stencil";
    return false;
  }

  // Backend-scoped: the same spec compiles to the same plan either way
  // today, but a cached plan's identity includes where it runs.
  Fp = planFingerprint(*Recognized, Config, Opts.Backend);
  Spec = std::move(Recognized);
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    SourceMemo.emplace(Key, MemoEntry{*Spec, Fp});
  }
  return true;
}

std::shared_ptr<const CompiledStencil>
StencilService::resolvePlan(Job &J, const std::optional<StencilSpec> &Spec,
                            uint64_t Fp) {
  CMCC_SPAN("service.resolve_plan");
  // Fast path: the cache (memory, then disk with re-verification).
  if (std::shared_ptr<const CompiledStencil> Plan = Cache.lookup(Fp)) {
    J.Result.CacheHit = true;
    note(J, JobEvent::CacheHit);
    return Plan;
  }

  // Miss: join an in-flight compile of this fingerprint or become its
  // owner. The recheck under InFlightMutex closes the window where an
  // owner has inserted into the cache but not yet unregistered — without
  // it a second worker could compile the same plan twice.
  std::shared_ptr<InFlightCompile> IF;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    auto It = InFlight.find(Fp);
    if (It != InFlight.end()) {
      IF = It->second;
    } else if (std::shared_ptr<const CompiledStencil> Plan = Cache.peek(Fp)) {
      J.Result.CacheHit = true;
      note(J, JobEvent::CacheHit);
      return Plan;
    } else {
      IF = std::make_shared<InFlightCompile>();
      InFlight.emplace(Fp, IF);
      Owner = true;
    }
  }

  if (!Owner) {
    // Coalesce: wait for the owner's verdict.
    CompilesCoalesced.add(1);
    J.Result.Coalesced = true;
    note(J, JobEvent::Coalesced);
    std::unique_lock<std::mutex> Lock(IF->Mutex);
    IF->Ready.wait(Lock, [&] { return IF->Done; });
    if (!IF->Plan) {
      J.Result.Message = IF->Error;
      return nullptr;
    }
    return IF->Plan;
  }

  // Owner: compile exactly once for everyone parked on IF.
  std::shared_ptr<const CompiledStencil> Plan;
  std::string Failure;
  if (!Spec) {
    Failure = "fingerprint " + fingerprintHex(Fp) +
              " is not cached and the job carries no source to compile";
  } else if (fault::probe("service.compile")) {
    // The whole compile fails, so every job parked on IF shares the
    // failure; the fingerprint stays uncached and a later submission
    // compiles fresh.
    Failure = fault::injectedFault("service.compile").message();
  } else {
    CMCC_SPAN("service.compile");
    note(J, JobEvent::CompileBegin);
    auto Begin = std::chrono::steady_clock::now();
    Expected<CompiledStencil> Compiled = Compiler.compile(*Spec);
    double Seconds = secondsSince(Begin);
    CompilesPerformed.add(1);
    CompileUs.observe(Seconds * 1e6);
    if (Compiled)
      Plan = std::make_shared<const CompiledStencil>(Compiled.takeValue());
    else
      Failure = Compiled.error().message();
    note(J, JobEvent::CompileEnd, Plan ? 1 : 0);
  }
  if (Plan)
    Cache.insert(Fp, Plan); // Insert BEFORE unregistering (see recheck).
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    InFlight.erase(Fp);
  }
  {
    std::lock_guard<std::mutex> Lock(IF->Mutex);
    IF->Done = true;
    IF->Plan = Plan;
    IF->Error = Failure;
  }
  IF->Ready.notify_all();
  if (!Plan)
    J.Result.Message = Failure;
  return Plan;
}

void StencilService::process(Job &J) {
  // Re-establish the submitting client's trace context on this worker:
  // every span below (resolve, compile, execute, the backend's own
  // spans, halo exchange on pool workers) inherits the client-minted
  // trace id.
  obs::ScopedTraceContext TraceScope(J.Request.TraceId, J.Request.ParentSpan);
  CMCC_SPAN("service.job");
  auto CompileBegin = std::chrono::steady_clock::now();

  std::optional<StencilSpec> Spec;
  uint64_t Fp = 0;
  if (!resolveSpec(J, Spec, Fp)) {
    finish(J, JobState::Failed);
    return;
  }
  J.Result.Fingerprint = Fp;

  std::shared_ptr<const CompiledStencil> Plan = resolvePlan(J, Spec, Fp);
  J.Result.CompileSeconds = secondsSince(CompileBegin);
  if (!Plan) {
    finish(J, JobState::Failed);
    return;
  }
  J.Result.Plan = Plan;

  // Second cancellation point: plan resolution (a compile, or a wait on
  // someone else's) may have eaten the whole budget.
  if (pastDeadline(J)) {
    finish(J, JobState::Failed);
    return;
  }

  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    J.State = JobState::Executing;
  }
  JobsChanged.notify_all();

  execute(J, *Plan);
}

int StencilService::effectiveTimeTile(Job &J, const CompiledStencil &Plan) {
  // Host backends run one step per exchange (runtime/HostRun.h): no
  // requested depth applies to them and there is nothing to tune.
  if (Engine->reportsWallClock())
    return 1;
  int SubRows = J.Request.SubRows;
  int SubCols = J.Request.SubCols;
  if (J.Request.Args && J.Request.Args->Result) {
    SubRows = J.Request.Args->Result->subRows();
    SubCols = J.Request.Args->Result->subCols();
  }
  int Want = J.Request.TimeTile > 0 ? J.Request.TimeTile : Opts.TimeTile;
  if (Want <= 0) {
    // Autotuned: warm (fingerprint, subgrid) keys reuse the recorded
    // winner, cold ones sweep once (counted — tests pin "warm runs
    // never re-sweep" on these counters).
    Autotuner::TunedParams P =
        Tuner->resolve(J.Result.Fingerprint, *Engine, Plan, SubRows, SubCols);
    note(J, JobEvent::Autotuned, P.TimeTile);
    Want = P.TimeTile;
  }
  return timetile::clampTimeTile(Plan.Spec, Want, SubRows, SubCols);
}

void StencilService::execute(Job &J, const CompiledStencil &Plan) {
  CMCC_SPAN("service.execute");
  auto ExecBegin = std::chrono::steady_clock::now();
  auto Finish = [&](JobState Final) {
    J.Result.ExecuteSeconds = secondsSince(ExecBegin);
    finish(J, Final);
  };

  const ExecutionBackend *Exec = Engine.get();
  // The depth is resolved once, before the attempt loop: retries and
  // the cm2 fallback execute the identical fused unit, so a retried or
  // degraded job cannot silently change its numerical contract.
  RunOptions RO;
  RO.Iterations = J.Request.Iterations;
  RO.TimeTile = effectiveTimeTile(J, Plan);
  J.Result.TimeTileUsed = RO.TimeTile;
  int Attempt = 0; // Attempts on the current backend, 0-based.
  for (;;) {
    // Checked before each attempt, never after a success: a result that
    // lands while the final attempt races past the deadline was paid
    // for and is delivered.
    if (pastDeadline(J))
      return Finish(JobState::Failed);

    note(J, JobEvent::ExecuteAttempt, J.Result.Retries + 1);
    Expected<TimingReport> Report =
        J.Request.Args
            ? Exec->run(Plan, *J.Request.Args, RO)
            : Exec->timeOnly(Plan, J.Request.SubRows, J.Request.SubCols, RO);
    if (Report) {
      J.Result.Report = *Report;
      J.Result.Ok = true;
      J.Result.Status = JobStatus::Ok;
      return Finish(JobState::Done);
    }

    // A failed attempt leaves no partial state: every backend fails
    // before its compute loops, and a rerun overwrites the result
    // arrays from scratch — which is what makes retrying sound.
    if (!Report.error().isTransient()) {
      J.Result.Message = Report.error().message();
      return Finish(JobState::Failed);
    }

    note(J, JobEvent::TransientFailure, J.Result.Retries + 1);
    if (Attempt < Opts.MaxRetries) {
      ++Attempt;
      Retries.add(1);
      ++J.Result.Retries;
      obs::FlightRecorder::process().record(
          obs::FlightRecorder::EventKind::Retry, "service.execute",
          static_cast<uint64_t>(J.Id),
          static_cast<uint64_t>(J.Result.Retries), J.Request.TraceId);
      // Exponential backoff, clamped so a sleep can never push the job
      // past its deadline asleep (the pre-attempt check above catches
      // the expiry awake).
      long BackoffMs = Opts.RetryBackoffMs > 0
                           ? Opts.RetryBackoffMs << std::min(Attempt - 1, 20)
                           : 0;
      if (J.HasDeadline) {
        const long RemainingMs = static_cast<long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                J.Deadline - std::chrono::steady_clock::now())
                .count());
        BackoffMs = std::min(BackoffMs, std::max(0L, RemainingMs));
      }
      note(J, JobEvent::Retry, static_cast<int32_t>(BackoffMs));
      if (BackoffMs > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
      continue;
    }

    // Retries exhausted. Degrade gracefully — once — to the in-process
    // cm2 reference backend, with a fresh retry budget there. Sharded
    // cm2 still falls back: losing the worker fleet must not lose the
    // job, and the unsharded reference computes the identical result.
    if (!J.Result.FellBack && Opts.FallbackToCm2 &&
        (Opts.Backend != "cm2" || Opts.sharded())) {
      J.Result.FellBack = true;
      Fallbacks.add(1);
      note(J, JobEvent::Fallback);
      obs::FlightRecorder::process().record(
          obs::FlightRecorder::EventKind::Fallback, "service.execute",
          static_cast<uint64_t>(J.Id), 0, J.Request.TraceId);
      Exec = &fallbackEngine();
      Attempt = 0;
      continue;
    }

    J.Result.Message = Report.error().message();
    return Finish(JobState::Failed);
  }
}

void StencilService::finish(Job &J, JobState Final) {
  // Once J is marked finished below, a waiter may deliver it and a
  // later delivery may erase it: only this copy is read after that.
  const JobId Id = J.Id;
  note(J, Final == JobState::Done ? JobEvent::Done : JobEvent::Failed);
  const uint64_t TotalMs = (obs::detail::nowNs() - J.AdmittedNs) / 1000000u;
  const bool Slow =
      Opts.SlowJobMs > 0 && TotalMs > static_cast<uint64_t>(Opts.SlowJobMs);
  if (Slow) {
    note(J, JobEvent::SlowJob, static_cast<int32_t>(TotalMs));
    SlowJobs.add(1);
    obs::FlightRecorder::process().record(
        obs::FlightRecorder::EventKind::SlowJob, "service.finish",
        static_cast<uint64_t>(J.Id), TotalMs, J.Request.TraceId);
  }
  if (Final == JobState::Done) {
    JobsCompleted.add(1);
    ExecuteUs.observe(J.Result.ExecuteSeconds * 1e6);
    const TimingReport &R = J.Result.Report;
    SimSeconds.add(R.elapsedSeconds());
    UsefulFlops.add(static_cast<double>(R.UsefulFlopsPerNodePerIteration) *
                    R.Nodes * R.Iterations);
  } else {
    JobsFailed.add(1);
  }
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    TenantCounts &TC = tenantEntry(J.Request.Tenant);
    --TC.InFlight;
    if (Final == JobState::Done) {
      ++TC.Completed;
      TC.CtrCompleted->add(1);
    } else {
      ++TC.Failed;
      TC.CtrFailed->add(1);
    }
    J.State = Final;
    archiveTimelineLocked(J);
  }
  JobsChanged.notify_all();
  // A slow job's spans go to disk NOW (even though the trace normally
  // flushes on its own cadence): if the process dies later, the
  // evidence for the job that was already over budget survives.
  if (Slow && obs::Trace::active())
    obs::Trace::flush();
  if (std::function<void(JobId)> Cb = finishedCallback())
    Cb(Id);
}

ServiceStats StencilService::stats() const {
  ServiceStats S;
  {
    // QueueDepth is written only under JobsMutex, so the now/max pair is
    // consistent with the queue; everything else is a relaxed snapshot.
    std::lock_guard<std::mutex> Lock(JobsMutex);
    S.JobsSubmitted = JobsSubmitted.value();
    S.QueueDepth = static_cast<int>(QueueDepth.value());
    S.MaxQueueDepth = static_cast<int>(QueueDepth.maximum());
    S.Tenants.reserve(Tenants.size());
    for (const auto &Entry : Tenants) {
      const TenantCounts &TC = Entry.second;
      S.Tenants.push_back({Entry.first, TC.Submitted, TC.Completed,
                           TC.Failed, TC.Rejected, TC.InFlight, TC.Queued});
    }
  }
  S.JobsCompleted = JobsCompleted.value();
  S.JobsFailed = JobsFailed.value();
  S.FrontEndRuns = FrontEndRuns.value();
  S.SourceMemoHits = SourceMemoHits.value();
  S.CompilesPerformed = CompilesPerformed.value();
  S.CompilesCoalesced = CompilesCoalesced.value();
  S.Rejected = Rejected.value();
  S.Cancelled = CancelledJobs.value();
  S.DeadlineExceeded = DeadlinesExceeded.value();
  S.Retries = Retries.value();
  S.Fallbacks = Fallbacks.value();
  {
    Autotuner::Counters TC = Tuner->counters();
    S.TuneHits = TC.Hits;
    S.TuneDiskHits = TC.DiskHits;
    S.TuneMisses = TC.Misses;
    S.TuneDiskRejects = TC.DiskRejects;
    S.TuneSweeps = TC.Sweeps;
  }
  S.CompileSecondsTotal = CompileUs.sum() / 1e6;
  S.ExecuteSecondsTotal = ExecuteUs.sum() / 1e6;
  S.SimSecondsTotal = SimSeconds.value();
  S.UsefulFlopsTotal = UsefulFlops.value();
  S.ReportsWallClock = Engine->reportsWallClock();
  S.Cache = Cache.counters();
  return S;
}
