//===- support/FaultInjection.h - Deterministic fault registry -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, deterministic, site-tagged fault-injection registry —
/// the chaos half of the serving story. Production stencil systems
/// (Devito's long-lived compiler services, any plan cache backed by real
/// disks) must degrade gracefully when a tier misbehaves; this registry
/// lets the tests *make* every tier misbehave, reproducibly.
///
/// Code under test declares injection sites by probing a tag:
///
///   if (fault::probe("plancache.disk_read"))
///     ...behave as if the read failed...
///
/// Sites wired through the stack (see DESIGN.md §5f):
///
///   plancache.disk_read    disk-tier load behaves as a corrupt entry
///   plancache.disk_write   disk-tier store is silently lost
///   backend.cm2.run        simulated execution fails (transient)
///   backend.native.run     native execution fails (transient)
///   backend.njit.run       njit execution fails (transient)
///   njit.cc                the njit toolchain invocation fails (transient)
///   halo.exchange          a halo exchange fails (transient)
///   threadpool.dispatch    pool dispatch degrades to inline execution
///   service.compile        a service-owned compile fails
///   net.accept             an accepted connection is dropped immediately
///   net.read               a socket read fails; the connection drops
///   net.write              a socket write fails; the connection drops
///   shard.spawn            spawning a shard worker fails (transient)
///   shard.exchange         a halo relay round aborts; workers survive
///   shard.worker_death     a live shard worker is SIGKILLed mid-relay;
///                          the run fails transiently and the fleet
///                          respawns the slot on retry
///
/// Rules are armed programmatically (arm()) or from the environment:
///
///   CMCC_FAULTS=site:rate[:count[:delay_ms]][,site:rate...]
///   CMCC_FAULT_SEED=n
///
/// where <site> is an exact tag or a prefix ending in '*', <rate> is the
/// per-probe fire probability, <count> caps total fires (-1 = unlimited)
/// and a nonzero <delay_ms> turns the rule into a latency fault (the
/// probe sleeps, then reports no failure).
///
/// Determinism: whether the Nth probe of a site fires is a pure function
/// of (seed, site, N, rule) — independent of wall-clock, thread timing,
/// and every other site. The same seed replays the same fire pattern.
///
/// Cost: when nothing is armed a probe is one relaxed atomic load and a
/// branch (bench_obs asserts the probes a warm service job crosses cost
/// it <1%); armed probes take a registry mutex, which only tests and
/// fault drills ever pay.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_FAULTINJECTION_H
#define CMCC_SUPPORT_FAULTINJECTION_H

#include "support/Error.h"
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cmcc {
namespace fault {

/// What a firing rule does to the probing code path.
enum class Action {
  Fail,  ///< The probe returns true: the site takes its failure path.
  Delay, ///< The probe sleeps DelayMs, then reports no failure.
};

/// One armed fault rule.
struct Rule {
  /// Site tag to match: exact, or a prefix ending in '*' ("halo.*",
  /// bare "*" matches everything).
  std::string Site;
  /// Probability each matching probe fires, clamped to [0, 1].
  double Rate = 1.0;
  /// Cap on total fires of this rule; -1 = unlimited.
  long MaxFires = -1;
  Action Kind = Action::Fail;
  /// Sleep per fire for Action::Delay rules.
  long DelayMs = 0;
};

/// The registry: armed rules plus per-site probe/fire counters.
class Registry {
public:
  Registry() = default;
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  /// Arms \p R (rules accumulate; several may match one site).
  void arm(Rule R);

  /// Seeds the deterministic fire pattern (default 0). Takes effect for
  /// subsequent probes; call before the workload for reproducibility.
  void setSeed(uint64_t Seed);

  /// Disarms every rule and zeroes every counter (the seed is kept).
  void reset();

  /// True when at least one rule is armed. Relaxed: this is the entire
  /// disabled-path cost of a probe.
  bool enabled() const { return Armed.load(std::memory_order_relaxed); }

  /// The probe behind fault::probe(): counts the site's probe, sleeps
  /// through firing Delay rules, and returns true when a Fail rule
  /// fires. Never call directly from hot paths — use fault::probe(),
  /// which short-circuits on enabled().
  bool shouldFail(const char *Site);

  /// Fail + delay rule firings observed at \p Site.
  long fires(const std::string &Site) const;

  /// Probes observed at \p Site (counted only while armed).
  long probes(const std::string &Site) const;

  /// Probes observed across all sites (counted only while armed).
  long totalProbes() const;

  /// Parses a CMCC_FAULTS-style spec ("site:rate[:count[:delay_ms]]"
  /// comma-separated) into rules.
  static Expected<std::vector<Rule>> parse(const std::string &Spec);

  /// The process-wide registry, configured from CMCC_FAULTS /
  /// CMCC_FAULT_SEED on first access (a malformed spec is reported to
  /// stderr and ignored).
  static Registry &process();

private:
  struct ArmedRule {
    Rule R;
    long Fires = 0;
  };
  struct SiteCounts {
    long Probes = 0;
    long Fires = 0;
  };

  std::atomic<bool> Armed{false};
  mutable std::mutex Mutex;
  uint64_t Seed = 0;
  std::vector<ArmedRule> Rules;
  std::map<std::string, SiteCounts> Sites;
};

/// The injection-site probe: true when the site must fail now. One
/// relaxed load + branch when nothing is armed.
inline bool probe(const char *Site) {
  Registry &R = Registry::process();
  return R.enabled() && R.shouldFail(Site);
}

/// The transient Error a failing site propagates; the service's retry
/// and fallback machinery keys off isTransient().
Error injectedFault(const char *Site);

} // namespace fault
} // namespace cmcc

#endif // CMCC_SUPPORT_FAULTINJECTION_H
