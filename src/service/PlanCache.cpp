//===- service/PlanCache.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/PlanCache.h"
#include "core/PlanFingerprint.h"
#include "core/ScheduleIO.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cmcc;

PlanCache::PlanCache(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(Opts) {
  int ShardCount = std::max(1, this->Opts.Shards);
  if (this->Opts.Capacity < static_cast<size_t>(ShardCount))
    this->Opts.Capacity = static_cast<size_t>(ShardCount);
  PerShardCapacity =
      (this->Opts.Capacity + ShardCount - 1) / static_cast<size_t>(ShardCount);
  Shards.reserve(ShardCount);
  for (int I = 0; I != ShardCount; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

std::string PlanCache::diskPathFor(uint64_t Fingerprint) const {
  return Opts.DiskDir + "/" + fingerprintHex(Fingerprint) + ".cmccode";
}

std::shared_ptr<const CompiledStencil>
PlanCache::loadFromDisk(uint64_t Fingerprint) {
  std::ifstream In(diskPathFor(Fingerprint));
  if (!In)
    return nullptr; // Not on disk: an ordinary miss, not a reject.
  // Injected read fault: the file opened but behaves as corrupt — the
  // same counted-reject outcome a real bit flip produces.
  if (fault::probe("plancache.disk_read")) {
    DiskRejects.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  // The parser revalidates everything — format, counts, and the full
  // schedule verifier against this machine's pipeline model. Whatever is
  // wrong with the file (truncation, bit flips, wrong machine), the
  // outcome is a counted reject, never UB.
  Expected<CompiledStencil> Loaded =
      parseCompiledStencil(Buffer.str(), Config);
  if (!Loaded) {
    DiskRejects.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  DiskHits.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<const CompiledStencil>(Loaded.takeValue());
}

void PlanCache::storeToDisk(uint64_t Fingerprint,
                            const CompiledStencil &Plan) const {
  // Injected write fault: the store is silently lost, like a full disk.
  // The tier is best-effort by design, so this must be invisible to
  // correctness — only future disk hits are forgone.
  if (fault::probe("plancache.disk_write"))
    return;
  std::error_code EC;
  std::filesystem::create_directories(Opts.DiskDir, EC);
  if (EC)
    return; // Disk tier is best-effort; memory tier still works.
  // A failed write leaves no temporary behind and no partial file.
  (void)writeFileAtomic(diskPathFor(Fingerprint),
                        writeCompiledStencil(Plan, Config));
}

std::shared_ptr<const CompiledStencil>
PlanCache::lookup(uint64_t Fingerprint) {
  Shard &S = shardFor(Fingerprint);
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Index.find(Fingerprint);
    if (It != S.Index.end()) {
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      Hits.fetch_add(1, std::memory_order_relaxed);
      return It->second->second;
    }
  }
  if (!Opts.DiskDir.empty()) {
    // Load outside the shard lock: parsing + re-verifying is the slow
    // path and must not serialize other fingerprints of this stripe.
    if (std::shared_ptr<const CompiledStencil> Plan =
            loadFromDisk(Fingerprint)) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      // Memory only: the file it came from is already the stored copy.
      insertMemory(Fingerprint, Plan);
      return Plan;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::shared_ptr<const CompiledStencil> PlanCache::peek(uint64_t Fingerprint) {
  Shard &S = shardFor(Fingerprint);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Index.find(Fingerprint);
  if (It == S.Index.end())
    return nullptr;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  return It->second->second;
}

bool PlanCache::insertMemory(
    uint64_t Fingerprint, const std::shared_ptr<const CompiledStencil> &Plan) {
  Shard &S = shardFor(Fingerprint);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  auto It = S.Index.find(Fingerprint);
  if (It != S.Index.end()) {
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return false;
  }
  S.Lru.emplace_front(Fingerprint, Plan);
  S.Index[Fingerprint] = S.Lru.begin();
  while (S.Lru.size() > PerShardCapacity) {
    S.Index.erase(S.Lru.back().first);
    S.Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void PlanCache::insert(uint64_t Fingerprint,
                       std::shared_ptr<const CompiledStencil> Plan) {
  if (!Plan || !insertMemory(Fingerprint, Plan))
    return;
  Insertions.fetch_add(1, std::memory_order_relaxed);
  if (!Opts.DiskDir.empty())
    storeToDisk(Fingerprint, *Plan);
}

void PlanCache::clearMemory() {
  for (std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Lru.clear();
    S->Index.clear();
  }
}

PlanCache::Counters PlanCache::counters() const {
  Counters C;
  C.Hits = Hits.load(std::memory_order_relaxed);
  C.Misses = Misses.load(std::memory_order_relaxed);
  C.Evictions = Evictions.load(std::memory_order_relaxed);
  C.Insertions = Insertions.load(std::memory_order_relaxed);
  C.DiskHits = DiskHits.load(std::memory_order_relaxed);
  C.DiskRejects = DiskRejects.load(std::memory_order_relaxed);
  return C;
}

size_t PlanCache::size() const {
  size_t N = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    N += S->Lru.size();
  }
  return N;
}
