//===- service/Autotuner.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/Autotuner.h"
#include "core/PlanFingerprint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/TimeTile.h"
#include "support/AtomicFile.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cmcc;

namespace {

/// The tile depths a sweep tries, before clamping to the plan.
constexpr int CandidateDepths[] = {1, 2, 4, 8};

/// "64x32" — the subgrid shape a record is valid for.
std::string subgridStamp(int SubRows, int SubCols) {
  return std::to_string(SubRows) + "x" + std::to_string(SubCols);
}

} // namespace

Autotuner::Autotuner(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(std::move(Opts)) {}

void Autotuner::noteMetric(const char *Name) {
  if (Opts.Metrics)
    Opts.Metrics->counter(Name).add(1);
}

std::string Autotuner::recordPath(const std::string &Dir,
                                  uint64_t Fingerprint, int SubRows,
                                  int SubCols) {
  return Dir + "/" + fingerprintHex(Fingerprint) + "-" +
         subgridStamp(SubRows, SubCols) + ".tune";
}

std::string Autotuner::machineStamp() const {
  std::ostringstream S;
  S << Config.NodeRows << "x" << Config.NodeCols << "@" << Config.ClockMHz;
  return S.str();
}

std::optional<Autotuner::TunedParams>
Autotuner::loadRecord(uint64_t Fingerprint, int SubRows, int SubCols,
                      const std::string &BackendName) {
  if (Opts.Dir.empty())
    return std::nullopt;
  std::ifstream In(recordPath(Opts.Dir, Fingerprint, SubRows, SubCols));
  if (!In)
    return std::nullopt; // Nothing on disk: a plain (uncounted) miss.

  // Strict line-oriented parse: any missing line, bad key, or value
  // mismatch is a counted DiskReject — a damaged or stale record must
  // fall back to a fresh sweep, never half-apply.
  auto Reject = [&]() -> std::optional<TunedParams> {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counts.DiskRejects;
    }
    noteMetric("service.tune_disk_rejects");
    return std::nullopt;
  };
  std::string Line;
  if (!std::getline(In, Line) || Line != "cmcc-tune v3")
    return Reject();

  TunedParams P;
  bool SawFp = false, SawSubgrid = false, SawMachine = false,
       SawBackend = false, SawTile = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "fingerprint") {
      std::string Hex;
      LS >> Hex;
      if (Hex != fingerprintHex(Fingerprint))
        return Reject();
      SawFp = true;
    } else if (Key == "subgrid") {
      std::string Stamp;
      LS >> Stamp;
      if (Stamp != subgridStamp(SubRows, SubCols))
        return Reject();
      SawSubgrid = true;
    } else if (Key == "machine") {
      std::string Stamp;
      LS >> Stamp;
      if (Stamp != machineStamp())
        return Reject();
      SawMachine = true;
    } else if (Key == "backend") {
      std::string Name;
      LS >> Name;
      if (Name != BackendName)
        return Reject();
      SawBackend = true;
    } else if (Key == "time_tile") {
      if (!(LS >> P.TimeTile) || P.TimeTile < 1)
        return Reject();
      SawTile = true;
    } else if (Key == "score_us") {
      if (!(LS >> P.ScoreUs))
        return Reject();
    } else {
      return Reject(); // Unknown key: a future version we cannot trust.
    }
  }
  if (!SawFp || !SawSubgrid || !SawMachine || !SawBackend || !SawTile)
    return Reject(); // Truncated.
  return P;
}

void Autotuner::storeRecord(uint64_t Fingerprint, int SubRows, int SubCols,
                            const std::string &BackendName,
                            const TunedParams &P) {
  if (Opts.Dir.empty())
    return;
  std::error_code EC;
  std::filesystem::create_directories(Opts.Dir, EC);
  std::ostringstream Out;
  Out << "cmcc-tune v3\n"
      << "fingerprint " << fingerprintHex(Fingerprint) << "\n"
      << "subgrid " << subgridStamp(SubRows, SubCols) << "\n"
      << "machine " << machineStamp() << "\n"
      << "backend " << BackendName << "\n"
      << "time_tile " << P.TimeTile << "\n"
      << "score_us " << P.ScoreUs << "\n";
  // Persistence is best-effort; memory still has the winner. Readers
  // see the old record or the new one, never a torn one.
  (void)writeFileAtomic(recordPath(Opts.Dir, Fingerprint, SubRows, SubCols),
                        Out.str());
}

std::optional<Autotuner::TunedParams>
Autotuner::lookup(uint64_t Fingerprint, const ExecutionBackend &Backend,
                  int SubRows, int SubCols) {
  const auto Key = std::make_tuple(Fingerprint, SubRows, SubCols);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Memory.find(Key);
    if (It != Memory.end()) {
      ++Counts.Hits;
      noteMetric("service.tune_hits");
      return It->second;
    }
  }
  if (std::optional<TunedParams> P =
          loadRecord(Fingerprint, SubRows, SubCols, Backend.name())) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counts.DiskHits;
      Memory.emplace(Key, *P);
    }
    noteMetric("service.tune_disk_hits");
    return P;
  }
  return std::nullopt;
}

Autotuner::TunedParams Autotuner::tune(uint64_t Fingerprint,
                                       const ExecutionBackend &Backend,
                                       const CompiledStencil &Plan,
                                       int SubRows, int SubCols) {
  CMCC_SPAN("service.autotune");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.Misses;
    ++Counts.Sweeps;
  }
  noteMetric("service.tune_misses");
  noteMetric("service.tune_sweeps");

  // Candidate depths: each clamped to what the plan and subgrid admit
  // (deep requests collapse onto the deepest legal tile), deduplicated,
  // depth 1 first as the baseline.
  std::vector<int> Depths;
  for (int D : CandidateDepths) {
    int K = timetile::clampTimeTile(Plan.Spec, D, SubRows, SubCols);
    if (std::find(Depths.begin(), Depths.end(), K) == Depths.end())
      Depths.push_back(K);
  }

  TunedParams Best;
  Best.ScoreUs = -1.0;
  for (int K : Depths) {
    RunOptions RO;
    RO.TimeTile = K;
    Expected<TimingReport> Report =
        Backend.timeOnly(Plan, SubRows, SubCols, RO);
    if (!Report)
      continue; // An undeployable depth scores itself out.
    // Each depth is scored from its own probe's report, never from a
    // process-wide total that other workers' jobs also feed. Depth k's
    // run covers k chained steps, so the fair per-timestep comparison
    // divides by k.
    double Us = Report->secondsPerIteration() * 1e6 / K;
    if (Best.ScoreUs < 0.0 || Us < Best.ScoreUs) {
      Best.TimeTile = K;
      Best.ScoreUs = Us;
    }
  }
  if (Best.ScoreUs < 0.0)
    Best = TunedParams{}; // Every probe failed: keep the safe defaults.

  storeRecord(Fingerprint, SubRows, SubCols, Backend.name(), Best);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Memory[std::make_tuple(Fingerprint, SubRows, SubCols)] = Best;
  }
  return Best;
}

Autotuner::TunedParams Autotuner::resolve(uint64_t Fingerprint,
                                          const ExecutionBackend &Backend,
                                          const CompiledStencil &Plan,
                                          int SubRows, int SubCols) {
  if (std::optional<TunedParams> P =
          lookup(Fingerprint, Backend, SubRows, SubCols))
    return *P;

  // Cold: sweep, unless a sweep of this key is in flight; then wait for
  // it. tune() remembers its winner under Mutex before the owner
  // unregisters, so a waiter, like a caller arriving later, reads it
  // from Memory.
  const auto Key = std::make_tuple(Fingerprint, SubRows, SubCols);
  std::unique_lock<std::mutex> Lock(Mutex);
  const bool Waited = InFlight.count(Key) != 0;
  if (Waited) {
    ++Counts.Coalesced;
    SweepDone.wait(Lock, [&] { return InFlight.count(Key) == 0; });
  }
  if (auto It = Memory.find(Key); It != Memory.end()) {
    const TunedParams Remembered = It->second;
    if (!Waited)
      ++Counts.Hits;
    Lock.unlock();
    noteMetric(Waited ? "service.tune_coalesced" : "service.tune_hits");
    return Remembered;
  }
  InFlight.insert(Key);
  Lock.unlock();
  const TunedParams Winner = tune(Fingerprint, Backend, Plan, SubRows, SubCols);
  Lock.lock();
  InFlight.erase(Key);
  Lock.unlock();
  SweepDone.notify_all();
  return Winner;
}

Autotuner::Counters Autotuner::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}
