//===- support/FaultInjection.cpp -----------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "obs/FlightRecorder.h"
#include "support/Fnv1a.h"
#include "support/Random.h"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace cmcc;
using namespace cmcc::fault;

namespace {

/// Exact match, or \p Pattern is a prefix ending in '*'.
bool siteMatches(const std::string &Pattern, const char *Site) {
  if (!Pattern.empty() && Pattern.back() == '*')
    return std::string_view(Site).substr(0, Pattern.size() - 1) ==
           std::string_view(Pattern).substr(0, Pattern.size() - 1);
  return Pattern == Site;
}

/// The deterministic per-probe decision: a pure function of the seed,
/// the site, the site's probe index, and the rule's position — no clocks
/// and no shared RNG stream, so sites never perturb each other and the
/// same seed replays the same pattern.
bool decides(uint64_t Seed, uint64_t SiteHash, long ProbeIndex,
             size_t RuleIndex, double Rate) {
  SplitMix64 G(Seed ^ SiteHash ^
               (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(ProbeIndex + 1)) ^
               (0xbf58476d1ce4e5b9ULL * static_cast<uint64_t>(RuleIndex + 1)));
  return static_cast<double>(G.nextFloat()) < Rate;
}

} // namespace

void Registry::arm(Rule R) {
  if (R.Rate < 0.0)
    R.Rate = 0.0;
  if (R.Rate > 1.0)
    R.Rate = 1.0;
  std::lock_guard<std::mutex> Lock(Mutex);
  Rules.push_back(ArmedRule{std::move(R), 0});
  Armed.store(true, std::memory_order_relaxed);
}

void Registry::setSeed(uint64_t NewSeed) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Seed = NewSeed;
}

void Registry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Rules.clear();
  Sites.clear();
  Armed.store(false, std::memory_order_relaxed);
}

bool Registry::shouldFail(const char *Site) {
  long DelayMs = 0;
  bool Fail = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    SiteCounts &S = Sites[Site];
    const long Probe = S.Probes++;
    const uint64_t SiteHash = fnv1a(Site, std::strlen(Site), Fnv1aNameBasis);
    for (size_t I = 0; I != Rules.size(); ++I) {
      ArmedRule &AR = Rules[I];
      if (!siteMatches(AR.R.Site, Site))
        continue;
      if (AR.R.MaxFires >= 0 && AR.Fires >= AR.R.MaxFires)
        continue;
      if (!decides(Seed, SiteHash, Probe, I, AR.R.Rate))
        continue;
      ++AR.Fires;
      ++S.Fires;
      if (AR.R.Kind == Action::Delay)
        DelayMs += AR.R.DelayMs;
      else
        Fail = true;
    }
  }
  // Record fired faults in the flight recorder (outside the lock; the
  // recorder is lock-free) so a post-mortem dump shows exactly which
  // injected faults the process absorbed. A = 1 for a failure, B =
  // accumulated delay in ms. Site is a string literal at every probe
  // site, so storing the pointer is safe.
  if (Fail || DelayMs > 0)
    obs::FlightRecorder::process().record(
        obs::FlightRecorder::EventKind::FaultFired, Site, Fail ? 1 : 0,
        static_cast<uint64_t>(DelayMs));
  // Sleep outside the lock: a latency fault must not stall every other
  // site's probes.
  if (DelayMs > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
  return Fail;
}

long Registry::fires(const std::string &Site) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sites.find(Site);
  return It == Sites.end() ? 0 : It->second.Fires;
}

long Registry::probes(const std::string &Site) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sites.find(Site);
  return It == Sites.end() ? 0 : It->second.Probes;
}

long Registry::totalProbes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  long N = 0;
  for (const auto &Entry : Sites)
    N += Entry.second.Probes;
  return N;
}

Expected<std::vector<Rule>> Registry::parse(const std::string &Spec) {
  std::vector<Rule> Rules;
  size_t Begin = 0;
  while (Begin <= Spec.size()) {
    size_t End = Spec.find(',', Begin);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Entry = Spec.substr(Begin, End - Begin);
    Begin = End + 1;
    if (Entry.empty())
      continue;

    std::vector<std::string> Fields;
    size_t F = 0;
    while (F <= Entry.size()) {
      size_t Colon = Entry.find(':', F);
      if (Colon == std::string::npos)
        Colon = Entry.size();
      Fields.push_back(Entry.substr(F, Colon - F));
      F = Colon + 1;
    }
    if (Fields.size() < 2 || Fields.size() > 4)
      return makeError("fault rule '" + Entry +
                       "': want site:rate[:count[:delay_ms]]");
    Rule R;
    R.Site = Fields[0];
    if (R.Site.empty())
      return makeError("fault rule '" + Entry + "': empty site");
    char *EndPtr = nullptr;
    R.Rate = std::strtod(Fields[1].c_str(), &EndPtr);
    if (EndPtr == Fields[1].c_str() || *EndPtr != '\0' || R.Rate < 0.0 ||
        R.Rate > 1.0)
      return makeError("fault rule '" + Entry + "': bad rate '" + Fields[1] +
                       "' (want a probability in [0,1])");
    if (Fields.size() >= 3 && !Fields[2].empty()) {
      R.MaxFires = std::strtol(Fields[2].c_str(), &EndPtr, 10);
      if (EndPtr == Fields[2].c_str() || *EndPtr != '\0' || R.MaxFires < -1)
        return makeError("fault rule '" + Entry + "': bad count '" +
                         Fields[2] + "'");
    }
    if (Fields.size() == 4 && !Fields[3].empty()) {
      R.DelayMs = std::strtol(Fields[3].c_str(), &EndPtr, 10);
      if (EndPtr == Fields[3].c_str() || *EndPtr != '\0' || R.DelayMs < 0)
        return makeError("fault rule '" + Entry + "': bad delay_ms '" +
                         Fields[3] + "'");
      if (R.DelayMs > 0)
        R.Kind = Action::Delay;
    }
    Rules.push_back(std::move(R));
  }
  return Rules;
}

Registry &Registry::process() {
  static Registry *R = [] {
    auto *Reg = new Registry();
    if (const char *SeedEnv = std::getenv("CMCC_FAULT_SEED"))
      Reg->setSeed(std::strtoull(SeedEnv, nullptr, 10));
    if (const char *Env = std::getenv("CMCC_FAULTS")) {
      Expected<std::vector<Rule>> Parsed = parse(Env);
      if (Parsed) {
        for (Rule &R : *Parsed)
          Reg->arm(std::move(R));
      } else {
        std::fprintf(stderr, "cmcc: ignoring CMCC_FAULTS: %s\n",
                     Parsed.error().message().c_str());
      }
    }
    return Reg;
  }();
  return *R;
}

Error cmcc::fault::injectedFault(const char *Site) {
  return Error::transient(std::string("injected fault at ") + Site);
}
