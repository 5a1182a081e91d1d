//===- service/PlanCache.h - Sharded compiled-plan cache ------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concurrent in-memory LRU cache of compiled stencil plans keyed by
/// plan fingerprint (core/PlanFingerprint), with an optional on-disk
/// tier in the existing .cmccode format.
///
/// The cache is mutex-striped: fingerprints map to one of N shards, each
/// an independently locked LRU list, so concurrent lookups of different
/// patterns do not contend. Plans are handed out as
/// shared_ptr<const CompiledStencil> — a plan is immutable once compiled
/// (the executor only reads it), so a cached plan can be executing on
/// one thread while another evicts it.
///
/// The disk tier stores each entry as <dir>/<fingerprint-hex>.cmccode
/// via core/ScheduleIO. Loads re-run the full parse + schedule verifier;
/// a file that is truncated, tampered with, or written for a different
/// machine is counted as a miss (DiskRejects) and never crashes or
/// yields an unverified plan. The cache therefore cannot change
/// numerical results or simulated cycles: it only ever returns plans
/// that passed the same verifier a fresh compile would.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SERVICE_PLANCACHE_H
#define CMCC_SERVICE_PLANCACHE_H

#include "cm2/MachineConfig.h"
#include "core/Compiler.h"
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cmcc {

/// A sharded LRU of immutable compiled plans.
class PlanCache {
public:
  struct Options {
    /// Total in-memory entries across all shards (>= Shards; each shard
    /// holds at least one entry).
    size_t Capacity = 64;
    /// Mutex stripes. Clamped to >= 1.
    int Shards = 8;
    /// When nonempty, the on-disk tier's directory (created on first
    /// write if missing). Entries are .cmccode files named by
    /// fingerprint hex.
    std::string DiskDir;
  };

  /// Monotonic counters, all readable without locking a shard.
  struct Counters {
    long Hits = 0;       ///< In-memory fingerprint hits.
    long Misses = 0;     ///< Neither tier had a verified plan.
    long Evictions = 0;  ///< LRU entries dropped to make room.
    long Insertions = 0; ///< Plans added (fresh compiles).
    long DiskHits = 0;   ///< Loaded from disk and re-verified OK.
    long DiskRejects = 0; ///< Disk entry present but corrupt/mismatched.

    long lookups() const { return Hits + Misses; }
    /// Fraction of lookups served without compiling (memory or disk).
    double hitRate() const {
      long L = lookups();
      return L == 0 ? 0.0 : static_cast<double>(Hits) / L;
    }
  };

  /// \p Config is the machine the cached plans were compiled for; the
  /// disk tier re-verifies loaded schedules against it.
  PlanCache(const MachineConfig &Config, Options Opts);

  /// Returns the cached plan for \p Fingerprint, consulting memory then
  /// disk, or nullptr (a miss). A disk hit is promoted into memory only;
  /// its file is never rewritten.
  std::shared_ptr<const CompiledStencil> lookup(uint64_t Fingerprint);

  /// In-memory-only recheck that touches no hit/miss counters (and not
  /// the disk tier). Used by the service's compile-dedup protocol to
  /// close the insert/unregister race without double-counting the
  /// original miss.
  std::shared_ptr<const CompiledStencil> peek(uint64_t Fingerprint);

  /// Inserts \p Plan under \p Fingerprint (no-op if already present),
  /// evicting the shard's least-recently-used entry when over capacity,
  /// and writes through to the disk tier when one is configured.
  void insert(uint64_t Fingerprint,
              std::shared_ptr<const CompiledStencil> Plan);

  /// Drops every in-memory entry (the disk tier is left alone).
  /// Counters keep accumulating.
  void clearMemory();

  Counters counters() const;

  /// Current in-memory entry count (sums shard sizes; a snapshot).
  size_t size() const;

  const Options &options() const { return Opts; }

private:
  struct Shard {
    std::mutex Mutex;
    /// Front = most recently used.
    std::list<std::pair<uint64_t, std::shared_ptr<const CompiledStencil>>>
        Lru;
    std::unordered_map<uint64_t, decltype(Lru)::iterator> Index;
  };

  Shard &shardFor(uint64_t Fingerprint) {
    return *Shards[Fingerprint % Shards.size()];
  }
  /// Puts \p Plan in memory (LRU eviction included); false when the
  /// fingerprint was already there.
  bool insertMemory(uint64_t Fingerprint,
                    const std::shared_ptr<const CompiledStencil> &Plan);
  std::string diskPathFor(uint64_t Fingerprint) const;
  std::shared_ptr<const CompiledStencil> loadFromDisk(uint64_t Fingerprint);
  void storeToDisk(uint64_t Fingerprint, const CompiledStencil &Plan) const;

  MachineConfig Config;
  Options Opts;
  size_t PerShardCapacity;
  std::vector<std::unique_ptr<Shard>> Shards;

  mutable std::atomic<long> Hits{0}, Misses{0}, Evictions{0}, Insertions{0},
      DiskHits{0}, DiskRejects{0};
};

} // namespace cmcc

#endif // CMCC_SERVICE_PLANCACHE_H
