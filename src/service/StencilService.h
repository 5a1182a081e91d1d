//===- service/StencilService.h - Compile-once-run-many server -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer: a front object that accepts stencil jobs
/// (submit / poll / wait), compiles each distinct plan exactly once, and
/// streams repeat traffic through the cached register patterns — the
/// paper's amortization ("the compiler's entire output is data") turned
/// into an operational guarantee.
///
/// A job carries either source text (Fortran assignment, SUBROUTINE, or
/// Lisp defstencil) or a precompiled plan fingerprint, plus optionally
/// the distributed arrays to run against. Jobs flow through:
///
///   submit -> FIFO queue -> worker: resolve fingerprint -> PlanCache
///          -> (miss: compile ONCE, in-flight submissions of the same
///              fingerprint coalesce onto that compile)
///          -> execute on the simulated machine -> Done
///
/// Warm-path guarantee: a repeated source text is resolved through the
/// source memo (no lexer/parser/recognizer run) and its plan through the
/// cache (no planning/verification run); the only work left is the
/// execution itself. And because a cached plan is byte-identical to the
/// plan a fresh compile would produce, serving from the cache can never
/// change numerical results or simulated cycle counts (tested).
///
/// Workers are the service's own lightweight dispatch threads; the heavy
/// per-node functional fan-out of each execution runs on the shared
/// support/ThreadPool exactly as direct Executor::run calls do.
///
/// Robustness (DESIGN.md §5f): admission control bounds the queue
/// (reject-with-QueueFull or block, per Options), per-job deadlines are
/// enforced cooperatively at phase boundaries, transient execution
/// failures (see Error::isTransient) retry with exponential backoff, and
/// when a non-cm2 backend keeps failing transiently the job falls back
/// once to the cm2 reference backend. Every such event is counted
/// (service.rejected / deadline_exceeded / retries / fallbacks) and
/// stamped on the JobResult.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SERVICE_STENCILSERVICE_H
#define CMCC_SERVICE_STENCILSERVICE_H

#include "core/Compiler.h"
#include "obs/Metrics.h"
#include "runtime/Executor.h"
#include "service/Autotuner.h"
#include "service/PlanCache.h"
#include "service/ServiceStats.h"
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace cmcc {

/// An asynchronous compile-and-execute server for one simulated machine.
class StencilService {
public:
  using JobId = long;

  /// How a job describes its stencil.
  enum class SourceKind {
    FortranAssignment, ///< A bare assignment statement.
    FortranSubroutine, ///< An isolated SUBROUTINE.
    DefStencil,        ///< The Lisp (defstencil ...) form.
    Fingerprint,       ///< A precompiled plan fingerprint (no source).
  };

  /// Lifecycle of one job.
  enum class JobState {
    Queued,
    Compiling, ///< Resolving the plan (front end / cache / compile).
    Executing,
    Done,
    Failed,
  };

  /// Why a job ended the way it did (finer-grained than Done/Failed).
  enum class JobStatus {
    Ok,
    Error,            ///< Permanent failure (diagnostics in Message).
    QueueFull,        ///< Rejected at admission (queue cap or tenant quota).
    DeadlineExceeded, ///< Cancelled at a phase boundary past its deadline.
    BadJobId,         ///< wait() on an id submit() never returned.
    Cancelled,        ///< cancel() removed the job before it started.
  };

  struct JobRequest {
    SourceKind Kind = SourceKind::FortranAssignment;
    /// Source text for the three source kinds; ignored for Fingerprint.
    std::string Source;
    /// The plan key for SourceKind::Fingerprint.
    uint64_t Fingerprint = 0;
    /// Distributed-trace context minted by the submitting client (0 =
    /// untraced). The worker re-establishes it around the job so every
    /// span the job touches — service stages, compile phases, backend
    /// execution, halo exchange — carries the client's trace id, and
    /// the job's timeline records it for correlation.
    uint64_t TraceId = 0;
    uint64_t ParentSpan = 0;
    /// Who this job is served for (0 = the anonymous default tenant).
    /// Tenants are metered separately in ServiceStats and the service
    /// registry, and admission enforces Options::TenantQuotas per id.
    uint32_t Tenant = 0;
    /// When set, the job executes functionally against these arrays
    /// (caller keeps them alive until wait() returns; concurrent jobs
    /// must bind disjoint result arrays). Concurrent jobs may share
    /// source and coefficient arrays: each run holds the halo lock of
    /// every array it binds while it exchanges into their margins and
    /// reads them, so jobs sharing an array serialize on it. When null,
    /// the job produces a timing-only report for SubRows x SubCols.
    StencilArguments *Args = nullptr;
    int SubRows = 64;
    int SubCols = 64;
    int Iterations = 1;
    /// Chained timesteps fused behind one wide halo exchange
    /// (runtime/TimeTile.h), a cm2 cost-model extension. 0 defers to
    /// Options::TimeTile (the service default, which may be autotuned);
    /// k >= 1 requests depth k. The effective depth is always clamped
    /// to what the plan and subgrid admit, is 1 on host backends (they
    /// run one step per exchange), and is identical across retries and
    /// the cm2 fallback.
    int TimeTile = 0;
  };

  struct JobResult {
    bool Ok = false;
    /// Why the job ended: JobStatus::Ok iff Ok.
    JobStatus Status = JobStatus::Error;
    /// Diagnostics / failure description when !Ok.
    std::string Message;
    uint64_t Fingerprint = 0;
    /// The plan came out of the cache (memory or disk tier).
    bool CacheHit = false;
    /// The job waited on another job's in-flight compile of the same
    /// fingerprint instead of compiling itself.
    bool Coalesced = false;
    /// Host wall-clock of plan resolution (front end + cache + compile).
    double CompileSeconds = 0.0;
    /// Host wall-clock of the execution phase.
    double ExecuteSeconds = 0.0;
    /// Execute attempts beyond the first (transient-failure retries,
    /// counting attempts on the fallback backend too).
    int Retries = 0;
    /// The job ran on the cm2 fallback backend after its primary
    /// backend kept failing transiently.
    bool FellBack = false;
    /// The time-tile depth the job actually executed with (after the
    /// service default / autotuner / clamping resolved).
    int TimeTileUsed = 1;
    TimingReport Report;
    /// The (immutable) plan the job ran; usable for resubmission by
    /// fingerprint or direct Executor calls.
    std::shared_ptr<const CompiledStencil> Plan;
  };

  /// One step in a job's life, recorded with a nanosecond timestamp in
  /// the job's timeline. Detail disambiguates repeats (attempt number,
  /// backoff milliseconds).
  enum class JobEvent : uint8_t {
    Submitted,        ///< Entered submit() and passed/failed admission.
    Rejected,         ///< Failed admission (queue cap or tenant quota).
    Queued,           ///< Admitted onto the FIFO queue.
    Dequeued,         ///< A worker picked the job up.
    CacheHit,         ///< Plan came out of the cache.
    Coalesced,        ///< Parked on another job's in-flight compile.
    CompileBegin,     ///< This job owns the compile.
    CompileEnd,       ///< Compile finished (Detail: 1 ok, 0 failed).
    ExecuteAttempt,   ///< Execute attempt began (Detail: 1-based attempt).
    TransientFailure, ///< The attempt failed transiently (Detail: attempt).
    Retry,            ///< Retrying (Detail: backoff milliseconds).
    Fallback,         ///< Switched to the cm2 fallback backend.
    DeadlineExceeded, ///< Cooperative deadline cancellation fired.
    Cancelled,        ///< cancel() removed the job from the queue.
    SlowJob,          ///< Total latency exceeded Options::SlowJobMs.
    Done,             ///< Finished successfully.
    Failed,           ///< Finished unsuccessfully.
    Autotuned,        ///< Tuned depth resolved (Detail: the depth).
  };

  struct TimelineEntry {
    uint64_t Ns = 0; ///< obs::detail::nowNs() at the event.
    JobEvent Event = JobEvent::Submitted;
    int32_t Detail = 0;
  };

  /// The compact per-job event log, kept for recently finished jobs in
  /// a bounded ring (Options::TimelineRingCap) and served over the wire
  /// by the `timeline` request / `cmcc_client trace <jobid>`.
  struct JobTimeline {
    JobId Id = 0;
    uint64_t TraceId = 0;
    uint32_t Tenant = 0;
    uint64_t Fingerprint = 0;
    JobStatus Status = JobStatus::Error;
    std::vector<TimelineEntry> Events;
  };

  /// Stable lower-case name for \p E ("execute_attempt", ...).
  static const char *jobEventName(JobEvent E);
  /// Stable lower-case name for \p S ("ok", "deadline_exceeded", ...).
  static const char *jobStatusName(JobStatus S);

  /// What submit() does when the queue already holds QueueCap jobs.
  enum class Admission {
    Reject, ///< Fail the job immediately with JobStatus::QueueFull.
    Block,  ///< Block the submitter until a worker makes room.
  };

  /// Per-tenant admission limits. A quota violation always rejects
  /// (never blocks), so one greedy tenant cannot park its producers on
  /// the shared queue and starve everyone else.
  struct TenantQuota {
    /// Cap on a tenant's admitted-but-unfinished jobs; 0 = unlimited.
    int MaxInFlight = 0;
    /// Cap on a tenant's share of the queued (not yet dispatched)
    /// jobs; 0 = unlimited.
    int MaxQueued = 0;
  };

  struct Options {
    /// Dispatch threads draining the job queue.
    int Workers = 2;
    PlanCache::Options Cache;
    Executor::Options Exec;
    /// Enables the §9 multi-source extension in the recognizer.
    bool AllowMultipleSources = false;
    /// Execution backend jobs run on (a backends/Registry name). Plan
    /// fingerprints are backend-scoped, so one PlanCache directory can
    /// serve several backends without aliasing; "cm2" keeps every
    /// pre-seam fingerprint valid.
    std::string Backend = "cm2";
    /// Worker processes per job (DESIGN.md §5j). 1 runs Backend
    /// in-process (the pre-sharding behavior); >1 runs every job on a
    /// ShardedBackend that partitions the node grid over that many
    /// worker processes, each executing Backend over its block. The
    /// results are bitwise identical either way, and a worker death
    /// surfaces as a transient failure the retry ladder re-runs (the
    /// coordinator respawns the fleet member on the retry).
    int Shards = 1;
    /// Explicit shard decomposition; both nonzero to take effect
    /// (otherwise a near-square grid for Shards is chosen).
    int ShardRows = 0;
    int ShardCols = 0;
    /// True when jobs run on the multi-process sharded backend.
    bool sharded() const {
      return Shards > 1 || (ShardRows > 0 && ShardCols > 0);
    }
    /// Queued-job bound for admission control; 0 = unbounded (every
    /// submit is admitted, the pre-hardening behavior).
    int QueueCap = 0;
    /// Policy at the cap. Reject gives callers a definite QueueFull
    /// answer; Block is backpressure for batch producers.
    Admission Admit = Admission::Reject;
    /// Per-job wall-clock budget in milliseconds, measured from
    /// admission; 0 = none. Enforced cooperatively at phase boundaries
    /// (dequeue, post-compile, pre-attempt) — a result that lands while
    /// the final attempt races past the deadline is still delivered.
    long DeadlineMs = 0;
    /// Extra execute attempts after a *transient* failure (permanent
    /// failures never retry). Applies per backend: the fallback gets a
    /// fresh budget.
    int MaxRetries = 0;
    /// Base backoff before retry attempt k sleeps
    /// RetryBackoffMs * 2^(k-1), clamped to the deadline's remainder.
    long RetryBackoffMs = 1;
    /// After the primary backend exhausts its retries transiently, run
    /// the job once on the cm2 reference backend (no-op when Backend is
    /// already "cm2" *and* execution is unsharded — a sharded cm2 run
    /// can still fail transiently on a lost worker, so sharded services
    /// fall back to in-process cm2). Plans are backend-portable by
    /// construction — fingerprints are backend-scoped for cache
    /// identity, not ABI — so the fallback replays the identical
    /// CompiledStencil.
    bool FallbackToCm2 = true;
    /// Per-tenant admission limits by tenant id; tenants without an
    /// entry get DefaultTenantQuota.
    std::map<uint32_t, TenantQuota> TenantQuotas;
    /// The quota applied to tenants absent from TenantQuotas
    /// (unlimited by default — single-tenant callers see no change).
    TenantQuota DefaultTenantQuota;
    /// Jobs whose admission-to-finish latency exceeds this many
    /// milliseconds are flagged: counted (service.slow_jobs), recorded
    /// in the flight recorder, and — when a trace is active — the
    /// trace file is flushed immediately so the slow job's spans are on
    /// disk even if the process dies later. 0 disables the threshold.
    long SlowJobMs = 0;
    /// Finished-job timelines retained for the `timeline` query, and
    /// delivered jobs kept in the job table for repeat wait() calls.
    size_t TimelineRingCap = 256;
    /// Default time-tile depth for jobs that do not set their own
    /// (JobRequest::TimeTile == 0): 1 = classic untiled execution,
    /// k > 1 = fixed depth k (clamped per plan/subgrid), 0 = consult
    /// the autotuner per (fingerprint, subgrid, machine) — cold keys
    /// sweep once, warm ones reuse the persisted winner. Applies to the
    /// cm2 backend only; host backends always run depth 1 and never
    /// consult the tuner.
    int TimeTile = 1;
    /// Directory for persisted autotuner records; empty uses the plan
    /// cache's disk directory (records live beside the plans they
    /// tune), so a disk-less cache means memory-only tuning.
    std::string TuneDir;
  };

  StencilService(const MachineConfig &Config, Options Opts);

  /// Drains the queue (every submitted job still runs), then joins the
  /// workers.
  ~StencilService();

  StencilService(const StencilService &) = delete;
  StencilService &operator=(const StencilService &) = delete;

  /// Enqueues a job. Returns immediately unless the queue is at
  /// Options::QueueCap under Admission::Block (backpressure: blocks the
  /// caller until a worker makes room). Under Admission::Reject a job
  /// over the cap still gets a JobId — already Failed, with
  /// JobStatus::QueueFull — so poll/wait work uniformly.
  JobId submit(JobRequest Request);

  /// Current state of \p Id. An id submit() never returned reports
  /// JobState::Failed (the state wait() would explain as BadJobId), and
  /// so does an id the job table has already erased (see wait()).
  JobState poll(JobId Id) const;

  /// Blocks until \p Id finishes; returns its result. An id submit()
  /// never returned yields an immediate failed result with
  /// JobStatus::BadJobId — never a hang.
  ///
  /// The job table stays bounded: once wait() has delivered a job, its
  /// entry is erased after Options::TimelineRingCap later jobs have been
  /// delivered too. Until then the job can be waited on again; after
  /// that, poll() and wait() answer for it as for an unknown id
  /// (Failed / BadJobId). A job no wait() has returned is never erased.
  JobResult wait(JobId Id);

  /// Best-effort cancellation: removes \p Id from the queue and fails
  /// it with JobStatus::Cancelled. Returns false (and does nothing)
  /// once a worker has picked the job up — execution is never torn
  /// down mid-flight, so a false return means wait() will deliver the
  /// job's real outcome.
  bool cancel(JobId Id);

  /// Registers \p Cb to run (on the finishing thread, outside service
  /// locks) after any job reaches Done or Failed — including jobs born
  /// Failed at admission, whose callback may fire before submit()
  /// returns their id to the caller. The network server bridges its
  /// poll loop onto the service through this. Call before submitting.
  void setJobFinishedCallback(std::function<void(JobId)> Cb);

  /// Blocks until every job submitted so far has finished.
  void drain();

  /// The event log of a recently *finished* job (in-flight jobs are
  /// still being written by their worker; poll for completion first).
  /// Empty when \p Id was never issued or has aged out of the ring.
  std::optional<JobTimeline> timeline(JobId Id) const;

  /// The same timeline as one JSON object ({"job":..., "trace_id":...,
  /// "status":..., "events":[...]}); empty string when unknown.
  std::string timelineJson(JobId Id) const;

  /// Snapshot of the operational metrics.
  ServiceStats stats() const;

  /// The service's own metric registry (the counters behind stats()).
  /// Per-instance rather than obs::Registry::process() so that each
  /// service's totals stand alone; same counter kinds, same exporters.
  const obs::Registry &metrics() const { return Metrics; }

  PlanCache &cache() { return Cache; }
  const MachineConfig &machine() const { return Config; }

  /// The per-plan execution-knob tuner (its counters are part of
  /// stats(); exposed so tests can inspect and pre-seed records).
  Autotuner &autotuner() { return *Tuner; }

  /// The execution backend jobs run on.
  const ExecutionBackend &backend() const { return *Engine; }

private:
  struct Job {
    JobId Id = 0;
    JobRequest Request;
    JobState State = JobState::Queued;
    JobResult Result;
    /// Cancellation point for Options::DeadlineMs (set at admission).
    std::chrono::steady_clock::time_point Deadline;
    bool HasDeadline = false;
    /// Event log, moved into FinishedTimelines at finish. Written under
    /// JobsMutex until a worker dequeues the job (cancel refuses
    /// non-queued jobs), then exclusively by that worker.
    std::vector<TimelineEntry> Timeline;
    uint64_t AdmittedNs = 0; ///< Timeline epoch / slow-job baseline.
    /// Threads blocked in wait() on this job (the entry is not erased
    /// under them). Guarded by JobsMutex.
    int Waiters = 0;
    /// Some wait() has returned this job (it is in DeliveredIds).
    /// Guarded by JobsMutex.
    bool Delivered = false;
  };

  /// Appends one timeline event to \p J (see Job::Timeline for the
  /// ownership discipline making this safe without its own lock).
  static void note(Job &J, JobEvent E, int32_t Detail = 0);

  /// One compile in flight: submissions of the same fingerprint park
  /// here instead of compiling again.
  struct InFlightCompile {
    std::mutex Mutex;
    std::condition_variable Ready;
    bool Done = false;
    std::shared_ptr<const CompiledStencil> Plan;
    std::string Error;
  };

  /// What the source memo remembers per distinct source text: the
  /// recognized spec (so an evicted plan can be recompiled without the
  /// front end) and its fingerprint.
  struct MemoEntry {
    StencilSpec Spec;
    uint64_t Fingerprint = 0;
  };

  /// Per-tenant admission/outcome ledger (all writes under JobsMutex).
  /// The counter handles mirror the ledger into the service registry as
  /// tenant-labelled metrics ("service.tenant.<id>.<what>"), resolved
  /// once when the tenant is first seen.
  struct TenantCounts {
    long Submitted = 0;
    long Completed = 0;
    long Failed = 0;   ///< Includes rejected and cancelled jobs.
    long Rejected = 0; ///< Quota or queue-cap rejections.
    int InFlight = 0;  ///< Admitted, not yet finished.
    int Queued = 0;    ///< Queued, not yet dispatched.
    obs::Counter *CtrSubmitted = nullptr;
    obs::Counter *CtrCompleted = nullptr;
    obs::Counter *CtrFailed = nullptr;
    obs::Counter *CtrRejected = nullptr;
  };

  void workerLoop();
  void process(Job &J);
  /// Resolves the job's spec+fingerprint, running the front end only on
  /// a source-memo miss. Returns false after recording the failure.
  bool resolveSpec(Job &J, std::optional<StencilSpec> &Spec, uint64_t &Fp);
  /// Returns the plan for \p Fp, compiling it at most once process-wide.
  std::shared_ptr<const CompiledStencil>
  resolvePlan(Job &J, const std::optional<StencilSpec> &Spec, uint64_t Fp);
  /// Runs the execute phase: deadline checks before each attempt,
  /// retry-with-backoff on transient failures, one-shot cm2 fallback.
  void execute(Job &J, const CompiledStencil &Plan);
  /// Resolves the time-tile depth \p J executes with: 1 on host
  /// backends; otherwise the request override, service default, or the
  /// autotuner's winner — then clamps to the plan and subgrid. Called
  /// once per job, before the attempt loop, so retries and the fallback
  /// run the identical depth.
  int effectiveTimeTile(Job &J, const CompiledStencil &Plan);
  void finish(Job &J, JobState Final);
  /// True (and counts + stamps the failure) when \p J is past its
  /// deadline; a cooperative cancellation point.
  bool pastDeadline(Job &J);
  /// The lazily built cm2 reference backend fallbacks run on.
  const ExecutionBackend &fallbackEngine();
  /// The quota that applies to \p Tenant.
  const TenantQuota &quotaFor(uint32_t Tenant) const;
  /// The tenant's ledger entry, with its registry counters resolved on
  /// first sighting. Caller holds JobsMutex.
  TenantCounts &tenantEntry(uint32_t Tenant);
  /// Moves \p J's timeline into the finished ring. Caller holds
  /// JobsMutex.
  void archiveTimelineLocked(Job &J);
  /// Erases the oldest delivered jobs beyond Options::TimelineRingCap.
  /// Caller holds JobsMutex.
  void pruneDeliveredLocked();
  /// Snapshot of the registered finished-callback (may be empty).
  std::function<void(JobId)> finishedCallback() const;

  MachineConfig Config;
  Options Opts;
  ConvolutionCompiler Compiler;
  std::unique_ptr<const ExecutionBackend> Engine;
  /// Built on first fallback (never when Backend == "cm2").
  std::mutex FallbackMutex;
  std::unique_ptr<const ExecutionBackend> Fallback;
  PlanCache Cache;
  std::unique_ptr<Autotuner> Tuner;

  //===--- Job table and queue --------------------------------------------===//
  mutable std::mutex JobsMutex;
  std::condition_variable JobsChanged;
  std::unordered_map<JobId, std::unique_ptr<Job>> Jobs;
  std::deque<Job *> Queue;
  JobId NextId = 1;
  bool ShuttingDown = false;
  /// Per-tenant ledger (ordered so stats snapshots are stable).
  std::map<uint32_t, TenantCounts> Tenants;
  /// Recently finished jobs' timelines, oldest first (bounded by
  /// Options::TimelineRingCap; guarded by JobsMutex).
  std::deque<JobTimeline> FinishedTimelines;
  /// Delivered jobs still in Jobs, oldest delivery first (bounded by
  /// Options::TimelineRingCap; guarded by JobsMutex).
  std::deque<JobId> DeliveredIds;

  //===--- Completion notification ----------------------------------------===//
  mutable std::mutex CallbackMutex;
  std::function<void(JobId)> OnJobFinished;

  //===--- Compile deduplication ------------------------------------------===//
  std::mutex InFlightMutex;
  std::unordered_map<uint64_t, std::shared_ptr<InFlightCompile>> InFlight;

  //===--- Source memo ----------------------------------------------------===//
  mutable std::mutex MemoMutex;
  std::unordered_map<std::string, MemoEntry> SourceMemo;

  //===--- Stats (the service's private obs registry) ---------------------===//
  // The registry's own atomics are the synchronization; there is no
  // stats mutex. QueueDepth is only written under JobsMutex (push/pop),
  // so its now/max pair stays consistent with the queue it describes.
  obs::Registry Metrics;
  obs::Counter &JobsSubmitted;     ///< service.jobs_submitted
  obs::Counter &JobsCompleted;     ///< service.jobs_completed
  obs::Counter &JobsFailed;        ///< service.jobs_failed
  obs::Counter &FrontEndRuns;      ///< service.frontend_runs
  obs::Counter &SourceMemoHits;    ///< service.source_memo_hits
  obs::Counter &CompilesPerformed; ///< service.compiles_performed
  obs::Counter &CompilesCoalesced; ///< service.compiles_coalesced
  obs::Counter &Rejected;          ///< service.rejected (QueueFull)
  obs::Counter &CancelledJobs;     ///< service.cancelled
  obs::Counter &DeadlinesExceeded; ///< service.deadline_exceeded
  obs::Counter &Retries;           ///< service.retries (attempts past 1st)
  obs::Counter &Fallbacks;         ///< service.fallbacks (jobs, not attempts)
  obs::Counter &SlowJobs;          ///< service.slow_jobs (over SlowJobMs)
  obs::Gauge &QueueDepth;          ///< service.queue_depth (now + max)
  obs::Histogram &CompileUs;       ///< service.compile_us (per performed)
  obs::Histogram &ExecuteUs;       ///< service.execute_us (per completed)
  obs::Sum &SimSeconds;            ///< service.sim_seconds
  obs::Sum &UsefulFlops;           ///< service.useful_flops

  std::vector<std::thread> Workers;
};

} // namespace cmcc

#endif // CMCC_SERVICE_STENCILSERVICE_H
