//===- backends/njit/Toolchain.cpp ----------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/njit/Toolchain.h"
#include "support/Fnv1a.h"
#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#elif defined(__linux__)
#include <sys/auxv.h>
#endif
#include <unistd.h>
#include <vector>

using namespace cmcc;
using namespace cmcc::njit;

namespace {

/// Stat-based executable check (no exec).
bool isExecutableFile(const std::string &Path, struct stat *St) {
  return ::stat(Path.c_str(), St) == 0 && S_ISREG(St->st_mode) &&
         ::access(Path.c_str(), X_OK) == 0;
}

/// Resolves \p Command to an absolute executable path: used verbatim
/// when it contains a '/', otherwise searched along PATH.
std::string resolveExecutable(const std::string &Command, struct stat *St) {
  if (Command.empty())
    return "";
  if (Command.find('/') != std::string::npos)
    return isExecutableFile(Command, St) ? Command : "";
  const char *PathEnv = std::getenv("PATH");
  if (!PathEnv)
    return "";
  std::string Paths = PathEnv;
  size_t Begin = 0;
  while (Begin <= Paths.size()) {
    size_t End = Paths.find(':', Begin);
    if (End == std::string::npos)
      End = Paths.size();
    std::string Dir = Paths.substr(Begin, End - Begin);
    if (!Dir.empty()) {
      std::string Candidate = Dir + "/" + Command;
      if (isExecutableFile(Candidate, St))
        return Candidate;
    }
    Begin = End + 1;
  }
  return "";
}

Expected<Toolchain> makeToolchain(const std::string &Resolved,
                                  const struct stat &St) {
  Toolchain TC;
  TC.Compiler = Resolved;
  // The ISA stamp cannot change while the process runs; read it once.
  static const std::string IsaStamp = hostIsaStamp();
  TC.IdentityHash = toolchainIdentity(Resolved, St.st_size, St.st_mtime,
                                      IsaStamp);
  return TC;
}

} // namespace

std::string cmcc::njit::hostIsaStamp() {
  std::string Stamp;
  auto Append = [&Stamp](unsigned long Word) {
    char Buffer[24];
    std::snprintf(Buffer, sizeof(Buffer), "%lx.", Word);
    Stamp += Buffer;
  };
#if defined(__x86_64__) || defined(__i386__)
  // What -march=native keys on: vendor, signature (family/model/
  // stepping), the feature leaves, and the OS-enabled register state.
  unsigned A = 0, B = 0, C = 0, D = 0;
  const unsigned MaxLeaf = __get_cpuid_max(0, nullptr);
  if (MaxLeaf == 0)
    return "x86";
  __cpuid(0, A, B, C, D);
  Stamp.append(reinterpret_cast<const char *>(&B), 4);
  Stamp.append(reinterpret_cast<const char *>(&D), 4);
  Stamp.append(reinterpret_cast<const char *>(&C), 4);
  Stamp += ':';
  __cpuid(1, A, B, C, D);
  Append(A);
  Append(C);
  Append(D);
  const bool OsXsave = (C >> 27) & 1;
  if (MaxLeaf >= 7) {
    __cpuid_count(7, 0, A, B, C, D);
    Append(B);
    Append(C);
    Append(D);
    __cpuid_count(7, 1, A, B, C, D);
    Append(A);
  }
  if (__get_cpuid(0x80000001, &A, &B, &C, &D)) {
    Append(C);
    Append(D);
  }
  if (OsXsave) {
    unsigned Lo, Hi;
    __asm__ volatile("xgetbv" : "=a"(Lo), "=d"(Hi) : "c"(0));
    Append(Lo);
  }
#elif defined(__linux__)
  Append(::getauxval(AT_HWCAP));
#ifdef AT_HWCAP2
  Append(::getauxval(AT_HWCAP2));
#endif
  if (const char *Platform =
          reinterpret_cast<const char *>(::getauxval(AT_PLATFORM)))
    Stamp += Platform;
#endif
  return Stamp;
}

uint64_t cmcc::njit::toolchainIdentity(const std::string &Compiler,
                                       long long Size, long long Mtime,
                                       const std::string &IsaStamp) {
  // Replacing the compiler binary (new mtime/size), changing the
  // flags/emitter, or moving the cache to another CPU re-namespaces
  // every artifact; nothing stale can be dlopen'd by accident.
  uint64_t H = Fnv1aNameBasis;
  for (const std::string &Part :
       {Compiler, std::to_string(Size), std::to_string(Mtime),
        std::string(CompileFlags), std::to_string(EmitterVersion), IsaStamp})
    H = fnv1a(Part.data(), Part.size(), H);
  return H;
}

std::string Toolchain::identityHex() const {
  char Buffer[20];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(IdentityHash));
  return Buffer;
}

Expected<Toolchain> cmcc::njit::detectToolchain() {
  struct stat St;
  // CMCC_NJIT_CC is authoritative: a broken value means "unavailable",
  // never a silent fallback to another compiler.
  if (const char *Env = std::getenv("CMCC_NJIT_CC")) {
    std::string Resolved = resolveExecutable(Env, &St);
    if (Resolved.empty())
      return makeError(std::string("njit: CMCC_NJIT_CC='") + Env +
                       "' is not an executable");
    return makeToolchain(Resolved, St);
  }

  std::vector<std::string> Candidates;
#ifdef CMCC_HOST_CXX
  Candidates.push_back(CMCC_HOST_CXX); // The compiler that built us.
#endif
  Candidates.push_back("c++");
  Candidates.push_back("g++");
  Candidates.push_back("clang++");

  std::string Tried;
  for (const std::string &C : Candidates) {
    std::string Resolved = resolveExecutable(C, &St);
    if (!Resolved.empty())
      return makeToolchain(Resolved, St);
    Tried += Tried.empty() ? C : ", " + C;
  }
  return makeError("njit: no host C++ compiler found (tried " + Tried +
                   "; set CMCC_NJIT_CC)");
}

bool cmcc::njit::toolchainAvailable() {
  Expected<Toolchain> TC = detectToolchain();
  return static_cast<bool>(TC);
}
