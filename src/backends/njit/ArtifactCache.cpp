//===- backends/njit/ArtifactCache.cpp ------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/njit/ArtifactCache.h"
#include "core/PlanFingerprint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sys/stat.h>

using namespace cmcc;
using namespace cmcc::njit;

namespace {

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

/// Single-quotes \p S for a POSIX shell command line.
std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

} // namespace

ArtifactCache::ArtifactCache(Options Opts) : Opts(std::move(Opts)) {}

ArtifactCache::Counters ArtifactCache::counters() const {
  Counters C;
  C.MemHits = MemHits.load(std::memory_order_relaxed);
  C.DiskHits = DiskHits.load(std::memory_order_relaxed);
  C.DiskRejects = DiskRejects.load(std::memory_order_relaxed);
  C.Misses = Misses.load(std::memory_order_relaxed);
  C.Compiles = Compiles.load(std::memory_order_relaxed);
  return C;
}

Error ArtifactCache::ensureToolchain() {
  if (!ToolchainProbed) {
    TC = detectToolchain();
    ToolchainProbed = true;
  }
  if (!TC)
    return makeError(TC.error().message());
  return Error::success();
}

Expected<std::string> ArtifactCache::compilerPath() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Error E = ensureToolchain())
    return E;
  return TC->Compiler;
}

std::string ArtifactCache::artifactPath(uint64_t Fingerprint) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Error E = ensureToolchain()) {
    (void)E;
    return "";
  }
  return Opts.DiskDir + "/cc-" + TC->identityHex() + "/" +
         fingerprintHex(Fingerprint) + ".so";
}

Expected<Artifact> ArtifactCache::loadArtifact(
    const std::string &Path, const std::string &FingerprintHex) {
  CMCC_SPAN("njit.dlopen");
  // Validate the bytes on disk before dlopen: once a pathname is in the
  // process's link map, dlopen returns the cached mapping without ever
  // reopening the file, so post-dlopen symbol checks cannot see on-disk
  // damage. The ELF magic catches garbage and short writes; the
  // embedded fingerprint string catches a stale or mis-keyed object.
  {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    if (Bytes.size() < 64 || Bytes.compare(0, 4, "\x7f" "ELF") != 0)
      return makeError("njit: rejecting '" + Path +
                       "': not an ELF shared object");
    if (Bytes.find(FingerprintHex) == std::string::npos)
      return makeError("njit: rejecting '" + Path +
                       "': no fingerprint stamp " + FingerprintHex);
  }
  ::dlerror(); // Clear any stale error state.
  void *Handle = ::dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *Why = ::dlerror();
    return makeError("njit: dlopen('" + Path +
                     "') failed: " + (Why ? Why : "unknown"));
  }
  // Validate before trusting: the stamp catches a mis-keyed or stale
  // artifact, the ABI check catches one built by an older emitter that
  // somehow survived the toolchain re-namespacing.
  auto Reject = [&](const std::string &Why) -> Expected<Artifact> {
    ::dlclose(Handle);
    return makeError("njit: rejecting '" + Path + "': " + Why);
  };
  const int *Abi = reinterpret_cast<const int *>(::dlsym(Handle, AbiSymbol));
  if (!Abi)
    return Reject(std::string("missing ") + AbiSymbol);
  if (*Abi != KernelAbiVersion)
    return Reject("kernel ABI v" + std::to_string(*Abi) + ", expected v" +
                  std::to_string(KernelAbiVersion));
  const char *Stamp =
      reinterpret_cast<const char *>(::dlsym(Handle, FingerprintSymbol));
  if (!Stamp)
    return Reject(std::string("missing ") + FingerprintSymbol);
  if (FingerprintHex != Stamp)
    return Reject("fingerprint stamp " + std::string(Stamp) + " != " +
                  FingerprintHex);
  void *Sym = ::dlsym(Handle, KernelSymbol);
  if (!Sym)
    return Reject(std::string("missing ") + KernelSymbol);
  Artifact A;
  A.Kernel = reinterpret_cast<RowKernelFn>(Sym);
  return A;
}

Error ArtifactCache::compileArtifact(uint64_t Fingerprint,
                                     const StencilSpec &Spec,
                                     const std::string &Path) {
  const std::string FpHex = fingerprintHex(Fingerprint);
  const std::string Stem = Path.substr(0, Path.size() - 3); // Drop ".so".
  const std::string SrcPath = Stem + ".cpp";
  const std::string LogPath = Stem + ".log";

  std::string Source;
  {
    CMCC_SPAN("njit.emit");
    Source = emitKernelSource(Spec, FpHex);
  }
  const std::string Dir = Path.substr(0, Path.rfind('/'));
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return makeError("njit: cannot create '" + Dir + "': " + EC.message());
  // The .cpp is kept beside the .so for inspection (TUTORIAL §12).
  if (Error E = writeFileAtomic(SrcPath, Source))
    return makeError("njit: " + E.message());

  if (fault::probe("njit.cc"))
    return fault::injectedFault("njit.cc");

  Expected<std::string> MaybeTmp = createTempBeside(Path);
  if (!MaybeTmp)
    return makeError("njit: " + MaybeTmp.error().message());
  const std::string &Tmp = *MaybeTmp;
  const std::string Cmd = shellQuote(TC->Compiler) + " " + CompileFlags +
                          " -o " + shellQuote(Tmp) + " " +
                          shellQuote(SrcPath) + " 2> " + shellQuote(LogPath);
  Compiles.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::process().counter("njit.compiles").add(1);
  int Rc;
  {
    CMCC_SPAN("njit.cc");
    obs::ScopedLatencyUs Latency(
        obs::Registry::process().histogram("njit.compile_us"));
    Rc = std::system(Cmd.c_str());
  }
  if (Rc != 0) {
    ::remove(Tmp.c_str());
    // Transient: the toolchain may be momentarily broken (or a fault
    // drill); the service's ladder retries, then falls back to cm2.
    return Error::transient("njit: compile failed (status " +
                            std::to_string(Rc) + ") for plan " + FpHex +
                            "; see " + LogPath);
  }
  if (Error E = installFile(Tmp, Path))
    return makeError("njit: " + E.message());
  return Error::success();
}

Expected<Artifact> ArtifactCache::lookup(uint64_t Fingerprint,
                                         const StencilSpec &Spec) {
  obs::Registry &Obs = obs::Registry::process();
  std::lock_guard<std::mutex> Lock(Mutex);

  auto It = Table.find(Fingerprint);
  if (It != Table.end()) {
    MemHits.fetch_add(1, std::memory_order_relaxed);
    Obs.counter("njit.cache.mem_hits").add(1);
    return It->second;
  }

  if (Error E = ensureToolchain())
    return E;

  const std::string FpHex = fingerprintHex(Fingerprint);
  const std::string Path =
      Opts.DiskDir + "/cc-" + TC->identityHex() + "/" + FpHex + ".so";

  if (fileExists(Path)) {
    Expected<Artifact> A = loadArtifact(Path, FpHex);
    if (A) {
      DiskHits.fetch_add(1, std::memory_order_relaxed);
      Obs.counter("njit.cache.disk_hits").add(1);
      Table.emplace(Fingerprint, *A);
      return *A;
    }
    // Corrupt / truncated / mis-stamped: count, evict, recompile fresh.
    DiskRejects.fetch_add(1, std::memory_order_relaxed);
    Obs.counter("njit.cache.disk_rejects").add(1);
    ::remove(Path.c_str());
  }

  Misses.fetch_add(1, std::memory_order_relaxed);
  Obs.counter("njit.cache.misses").add(1);
  if (Error E = compileArtifact(Fingerprint, Spec, Path))
    return E;
  Expected<Artifact> A = loadArtifact(Path, FpHex);
  if (!A)
    return makeError("njit: freshly built artifact unusable: " +
                     A.error().message());
  Table.emplace(Fingerprint, *A);
  return *A;
}
