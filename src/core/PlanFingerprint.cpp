//===- core/PlanFingerprint.cpp -------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/PlanFingerprint.h"
#include "support/Fnv1a.h"
#include <cstdio>
#include <cstring>

using namespace cmcc;

namespace {

/// Renders a double exactly (round-trippable %.17g), so that 0.25 and
/// 0.250000001 never collide and equal values always agree.
std::string exactDouble(double V) {
  char Buffer[48];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  return Buffer;
}

const char *boundaryWord(BoundaryKind K) {
  return K == BoundaryKind::Circular ? "circular" : "zero";
}

} // namespace

std::string cmcc::planFingerprintText(const StencilSpec &Spec,
                                      const MachineConfig &Config) {
  return planFingerprintText(Spec, Config, "cm2");
}

std::string cmcc::planFingerprintText(const StencilSpec &Spec,
                                      const MachineConfig &Config,
                                      std::string_view Backend) {
  // Version tag: bump when the covered fields or the rendering change,
  // so stale on-disk cache entries from older layouts can never alias a
  // current fingerprint.
  std::string Out = "cmcc-plan-v1\n";

  Out += "result " + Spec.Result + "\n";
  Out += "sources";
  for (int S = 0; S != Spec.sourceCount(); ++S)
    Out += " " + Spec.sourceName(S);
  Out += "\n";
  Out += std::string("boundary ") + boundaryWord(Spec.BoundaryDim1) + " " +
         boundaryWord(Spec.BoundaryDim2) + "\n";
  for (const Tap &T : Spec.Taps) {
    Out += "tap";
    if (T.HasData)
      Out += " data " + std::to_string(T.SourceIndex) + " " +
             std::to_string(T.At.Dy) + " " + std::to_string(T.At.Dx);
    else
      Out += " bare";
    Out += " sign " + exactDouble(T.Sign);
    if (T.Coeff.isArray())
      Out += " coeff array " + T.Coeff.Name;
    else
      Out += " coeff scalar " + exactDouble(T.Coeff.Value);
    Out += "\n";
  }

  // Only what compile() consults: the register budget, the pipeline
  // latencies the schedule builder and verifier enforce, and the
  // scratch-memory capacity the unrolled pattern must fit.
  Out += "machine registers " + std::to_string(Config.NumRegisters) +
         " mul-to-add " + std::to_string(Config.MulToAddCycles) +
         " add-to-write " + std::to_string(Config.AddToWriteCycles) +
         " load-latency " + std::to_string(Config.LoadLatencyCycles) +
         " scratch-parts " + std::to_string(Config.ScratchMemoryParts) +
         "\n";
  // The backend tag is appended only for non-default backends: every
  // pre-seam fingerprint (and on-disk .cmccode stem) stays bit-equal
  // and means "cm2".
  if (Backend != "cm2")
    Out += "backend " + std::string(Backend) + "\n";
  return Out;
}

uint64_t cmcc::planFingerprint(const StencilSpec &Spec,
                               const MachineConfig &Config) {
  return planFingerprint(Spec, Config, "cm2");
}

uint64_t cmcc::planFingerprint(const StencilSpec &Spec,
                               const MachineConfig &Config,
                               std::string_view Backend) {
  const std::string Text = planFingerprintText(Spec, Config, Backend);
  return fnv1a(Text.data(), Text.size(), Fnv1aNameBasis);
}

std::string cmcc::fingerprintHex(uint64_t Fingerprint) {
  char Buffer[20];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(Fingerprint));
  return Buffer;
}
