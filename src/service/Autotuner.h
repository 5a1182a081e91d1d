//===- service/Autotuner.h - Per-plan execution-knob tuner ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small empirical autotuner for the execution knob a compiled plan
/// leaves open: the time-tile depth (runtime/TimeTile.h). Tiling is a
/// cm2 cost-model extension — host backends run one step per exchange —
/// so the service consults the tuner for cm2 (and sharded cm2) only.
///
/// The tuner is keyed per (plan fingerprint, subgrid shape, machine):
/// the best depth moves with the subgrid (deep tiles amortize exchange
/// startup on small subgrids, edge recompute dominates on large ones).
/// A cold key sweeps the candidate depths 1, 2, 4 and 8 through the
/// backend's timeOnly path and scores each by *per-timestep* cost read
/// from that probe's own TimingReport (secondsPerIteration(): the
/// simulated seconds for cm2), so jobs other workers run meanwhile
/// cannot leak into a score. Depth k fuses k steps behind one exchange,
/// so a fair comparison divides by k. The winner persists as a
/// versioned text record beside the cached plan:
///
///     <dir>/<fingerprint-hex>-<rows>x<cols>.tune
///
///     cmcc-tune v3
///     fingerprint <hex16>
///     subgrid <rows>x<cols>
///     machine <rows>x<cols>@<mhz>
///     backend <name>
///     time_tile <k>
///     score_us <float>
///
/// Records are replaced atomically (support/AtomicFile.h). Older
/// versions are stale and re-swept: v2 records carried no subgrid, so
/// the first shape tuned served every shape; v1 records also carried
/// never-applied `threads` and `rows_per_tile` lines.
/// Warm keys are served from memory, then disk — never re-swept
/// (counted, so tests can assert the sweep ran exactly once). A record
/// that is truncated, corrupt, stale-versioned, or stamped for a
/// different subgrid/machine/backend is a counted DiskReject and falls
/// back to a fresh sweep — mirroring the plan cache's discipline that
/// disk state can be lost or damaged but never change behavior
/// silently.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SERVICE_AUTOTUNER_H
#define CMCC_SERVICE_AUTOTUNER_H

#include "cm2/MachineConfig.h"
#include "runtime/Backend.h"
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>

namespace cmcc {
namespace obs {
class Registry;
} // namespace obs

/// Chooses and remembers per-plan execution parameters.
class Autotuner {
public:
  /// The tuned knobs for one (fingerprint, subgrid, machine) key.
  struct TunedParams {
    /// Chained timesteps fused behind one wide halo exchange.
    int TimeTile = 1;
    /// The winner's per-timestep score in microseconds, from the
    /// probe's secondsPerIteration() (simulated us for cm2).
    double ScoreUs = 0.0;
  };

  struct Options {
    /// Directory for persisted records; empty = memory-only tuning.
    std::string Dir;
    /// When set, every Counters increment is mirrored as a
    /// service.tune_* counter in this registry (so metrics exports
    /// carry the tuner's behavior). The registry must outlive the
    /// tuner; it is touched only from lookup()/tune(), never the
    /// constructor.
    obs::Registry *Metrics = nullptr;
  };

  /// Monotonic counters (all reads are lock-free snapshots).
  struct Counters {
    long Hits = 0;        ///< Served from memory.
    long DiskHits = 0;    ///< Loaded from a valid on-disk record.
    long Misses = 0;      ///< No usable record anywhere: a sweep ran.
    long DiskRejects = 0; ///< Record present but corrupt/stale/foreign.
    long Sweeps = 0;      ///< Full candidate sweeps performed.
    /// resolve() calls that waited on another caller's sweep of the
    /// same key instead of sweeping.
    long Coalesced = 0;
  };

  Autotuner(const MachineConfig &Config, Options Opts);

  /// The tuned parameters for \p Fingerprint over SubRows x SubCols
  /// subgrids without sweeping: memory, then disk (a valid disk record
  /// is promoted into memory and counts DiskHits). std::nullopt means
  /// no usable record exists yet.
  std::optional<TunedParams> lookup(uint64_t Fingerprint,
                                    const ExecutionBackend &Backend,
                                    int SubRows, int SubCols);

  /// Sweeps the candidate depths (clamped to the plan and subgrid) through
  /// \p Backend.timeOnly, picks the cheapest per-timestep depth, and
  /// persists + remembers the winner. Returns the winner (TimeTile = 1
  /// when nothing beats the untiled run or the sweep cannot run at
  /// all). Thread-safe; concurrent sweeps of one key are wasteful but
  /// harmless (last writer wins with an equivalent record).
  TunedParams tune(uint64_t Fingerprint, const ExecutionBackend &Backend,
                   const CompiledStencil &Plan, int SubRows, int SubCols);

  /// lookup() falling back to tune() — the warm path never sweeps.
  /// Concurrent cold calls for one (fingerprint, subgrid) key coalesce:
  /// the first sweeps, the others wait for its winner, so a key sweeps
  /// once however many jobs arrive together (a sweep whose probes all
  /// fail still counts as one and yields the defaults).
  TunedParams resolve(uint64_t Fingerprint, const ExecutionBackend &Backend,
                      const CompiledStencil &Plan, int SubRows, int SubCols);

  Counters counters() const;

  /// The record path for \p Fingerprint over SubRows x SubCols
  /// subgrids under \p Dir (exposed so tests can corrupt/truncate/stale
  /// records without path guessing).
  static std::string recordPath(const std::string &Dir, uint64_t Fingerprint,
                                int SubRows, int SubCols);

private:
  /// "4x4@7" — the machine identity a record is valid for.
  std::string machineStamp() const;
  /// Bumps the mirrored obs counter \p Name when Options::Metrics is
  /// set; a no-op otherwise.
  void noteMetric(const char *Name);
  std::optional<TunedParams> loadRecord(uint64_t Fingerprint, int SubRows,
                                        int SubCols,
                                        const std::string &BackendName);
  void storeRecord(uint64_t Fingerprint, int SubRows, int SubCols,
                   const std::string &BackendName, const TunedParams &P);

  MachineConfig Config;
  Options Opts;

  mutable std::mutex Mutex;
  /// By (fingerprint, SubRows, SubCols).
  std::map<std::tuple<uint64_t, int, int>, TunedParams> Memory;
  /// Keys resolve() is sweeping now; SweepDone fires as each leaves.
  std::set<std::tuple<uint64_t, int, int>> InFlight;
  std::condition_variable SweepDone;
  Counters Counts;
};

} // namespace cmcc

#endif // CMCC_SERVICE_AUTOTUNER_H
