//===- backends/njit/ArtifactCache.h - Compiled-kernel cache --*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-tier cache of njit-compiled kernels, mirroring the serving
/// layer's PlanCache shape: an in-memory handle table in front of an
/// on-disk artifact directory, both keyed by plan fingerprint.
///
///   memory   fingerprint -> dlopen handle + extracted kernel pointer
///   disk     <dir>/cc-<toolchain-hash>/<fingerprint-hex>.so
///            (the emitted .cpp is kept beside it for inspection)
///
/// The disk key folds in the *toolchain identity* (resolved compiler
/// path + size + mtime + flags + emitter version — see Toolchain.h), so
/// artifacts built by a different compiler, different flags, or an
/// older emitter are simply invisible, never mis-loaded. A warm service
/// restart therefore pays zero toolchain invocations: every lookup is a
/// stat + dlopen.
///
/// Robustness: a truncated, corrupt, or tampered .so on disk fails
/// dlopen or the post-load checks (missing kernel symbol, ABI-version
/// mismatch, fingerprint-stamp mismatch) and is counted as DiskRejects,
/// then recompiled fresh — never a crash, never a stale result
/// (tests/njit_test corrupts artifacts on purpose).
///
/// Handles are never dlclose'd: a kernel pointer may be executing on a
/// pool thread with no lifetime tie to the cache entry, and the table
/// is bounded by the number of distinct plans (the PlanCache already
/// bounds what the service keeps hot).
///
/// Fault sites: `njit.cc` fires as a failed toolchain invocation
/// (transient — the service's retry/fallback ladder handles it), and
/// `plancache`-style disk probes are not duplicated here because a bad
/// artifact already exercises the reject path.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NJIT_ARTIFACTCACHE_H
#define CMCC_BACKENDS_NJIT_ARTIFACTCACHE_H

#include "backends/njit/Emitter.h"
#include "backends/njit/Toolchain.h"
#include "runtime/HostRun.h"
#include "stencil/StencilSpec.h"
#include "support/Error.h"
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cmcc {
namespace njit {

/// One loaded kernel.
struct Artifact {
  RowKernelFn Kernel = nullptr;
};

/// The two-tier kernel cache for one artifact directory.
class ArtifactCache {
public:
  struct Options {
    /// Root of the on-disk tier (created on first compile). Artifacts
    /// live in a per-toolchain subdirectory under it.
    std::string DiskDir = ".cmccjit";
  };

  /// Monotonic counters (relaxed reads; the same shape as
  /// PlanCache::Counters so dashboards line up).
  struct Counters {
    long MemHits = 0;     ///< In-memory handle-table hits.
    long DiskHits = 0;    ///< dlopen'd from disk, all checks passed.
    long DiskRejects = 0; ///< Disk artifact present but unloadable/wrong.
    long Misses = 0;      ///< Neither tier had a usable kernel.
    long Compiles = 0;    ///< Toolchain invocations (the warm path's zero).
  };

  explicit ArtifactCache(Options Opts);

  /// Returns the kernel for \p Fingerprint / \p Spec, consulting memory,
  /// then disk, then emitting + compiling + dlopen'ing. Thread-safe; a
  /// compile is performed at most once per fingerprint per process (the
  /// table mutex doubles as compile dedup — compiles are rare and
  /// front-loaded, exactly like the service's plan compiles).
  Expected<Artifact> lookup(uint64_t Fingerprint, const StencilSpec &Spec);

  Counters counters() const;

  const Options &options() const { return Opts; }

  /// The detected toolchain's resolved compiler path, or the detection
  /// failure. Detection is lazy and cached (stat-only, no exec).
  Expected<std::string> compilerPath();

  /// Where \p Fingerprint's shared object lives on disk (empty until
  /// the toolchain has been detected). Exposed for tests and for the
  /// TUTORIAL's inspect-the-artifact walkthrough.
  std::string artifactPath(uint64_t Fingerprint);

private:
  /// Detects and memoizes the toolchain under Mutex.
  Error ensureToolchain();
  /// dlopen + symbol/ABI/fingerprint checks. Counts nothing itself.
  Expected<Artifact> loadArtifact(const std::string &Path,
                                  const std::string &FingerprintHex);
  /// Emit, shell out to the compiler, atomically install the .so.
  Error compileArtifact(uint64_t Fingerprint, const StencilSpec &Spec,
                        const std::string &Path);

  Options Opts;
  std::mutex Mutex;
  bool ToolchainProbed = false;
  Expected<Toolchain> TC{makeError("njit: toolchain not probed yet")};
  std::unordered_map<uint64_t, Artifact> Table;

  mutable std::atomic<long> MemHits{0}, DiskHits{0}, DiskRejects{0},
      Misses{0}, Compiles{0};
};

} // namespace njit
} // namespace cmcc

#endif // CMCC_BACKENDS_NJIT_ARTIFACTCACHE_H
