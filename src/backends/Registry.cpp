//===- backends/Registry.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "backends/cm2/Cm2Backend.h"
#include "backends/native/NativeBackend.h"
#include "backends/njit/NjitBackend.h"
#include "backends/njit/Toolchain.h"

using namespace cmcc;

std::vector<std::string> cmcc::availableBackendNames() {
  // Kept sorted by hand; the seam test asserts the order is sorted so
  // the list stays stable as backends are added.
  return {"cm2", "native", "njit"};
}

bool cmcc::isBackendName(std::string_view Name) {
  return Name == "cm2" || Name == "native" || Name == "njit";
}

bool cmcc::isBackendAvailable(std::string_view Name) {
  if (!isBackendName(Name))
    return false;
  if (Name == "njit")
    return njit::toolchainAvailable();
  return true;
}

Error cmcc::unknownBackendError(std::string_view Name) {
  std::string Known;
  for (const std::string &B : availableBackendNames())
    Known += Known.empty() ? B : ", " + B;
  return makeError("unknown backend '" + std::string(Name) +
                   "' (registered backends: " + Known + ")");
}

std::unique_ptr<ExecutionBackend>
cmcc::createBackend(std::string_view Name, const MachineConfig &Config,
                    const Executor::Options &ExecOpts) {
  if (Name == "cm2")
    return std::make_unique<Cm2Backend>(Config, ExecOpts);
  // The host backends take the host-run part of the executor options.
  if (Name == "native")
    return std::make_unique<NativeBackend>(
        Config, static_cast<const HostRunOptions &>(ExecOpts));
  if (Name == "njit") {
    NjitBackend::Options Opts;
    static_cast<HostRunOptions &>(Opts) = ExecOpts;
    return std::make_unique<NjitBackend>(Config, Opts);
  }
  return nullptr;
}
