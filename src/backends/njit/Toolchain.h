//===- backends/njit/Toolchain.h - Host C++ toolchain discovery *- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locates the host C++ compiler the njit backend shells out to, and
/// derives a stable *identity hash* for it so compiled artifacts can be
/// keyed by the toolchain that produced them (swap the compiler, get a
/// fresh artifact namespace — never a stale .so built by someone else's
/// flags).
///
/// Discovery order:
///
///   1. CMCC_NJIT_CC, when set, is authoritative: if it does not name
///      an executable the backend reports itself unavailable rather
///      than silently picking another compiler;
///   2. the compiler that built this binary (CMCC_HOST_CXX, baked in by
///      CMake), which is guaranteed compatible with the emitted code;
///   3. `c++`, `g++`, `clang++` on PATH.
///
/// Identity is computed without *executing* anything — resolved path +
/// file size + mtime + the compile flags + the emitter version + the
/// host ISA stamp — so a warm artifact cache costs zero toolchain
/// invocations to open (the warm-restart drill in CI asserts exactly
/// that).
///
/// Artifacts are built with -march=native, so they are only valid on a
/// CPU with the same instruction set. The ISA stamp is read in process
/// (cpuid on x86, the auxiliary vector elsewhere): an artifact cache
/// shared by machines with different CPUs keeps one namespace per CPU
/// and never loads code built for another.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NJIT_TOOLCHAIN_H
#define CMCC_BACKENDS_NJIT_TOOLCHAIN_H

#include "support/Error.h"
#include <cstdint>
#include <string>

namespace cmcc {
namespace njit {

/// Bump whenever the emitted source or the kernel ABI changes: the
/// version participates in the toolchain identity hash, so old on-disk
/// artifacts are simply never found again instead of being dlopen'd
/// with a mismatched ABI.
inline constexpr int EmitterVersion = 2;

/// The flags every njit artifact is compiled with. -ffp-contract=off is
/// load-bearing: the emitted chain must round every product before its
/// add, exactly like the native backend and the simulated FPU. With it,
/// -march=native only widens the vectors; each lane still computes the
/// same IEEE products and sums in the same order, so results stay
/// bitwise equal to native. On an AVX-512 host gcc would also vectorize
/// every loop remainder in narrower vectors, which costs more compile
/// time (gcc 12: about 10 ms of a 60 ms cold compile) than it saves on
/// remainders of at most one vector; --param=vect-epilogues-nomask=0
/// keeps remainders scalar (clang ignores the parameter).
inline constexpr const char *CompileFlags =
    "-O3 -march=native --param=vect-epilogues-nomask=0 -shared -fPIC "
    "-ffp-contract=off";

/// A usable host compiler.
struct Toolchain {
  /// Resolved absolute path of the compiler executable.
  std::string Compiler;
  /// toolchainIdentity() of this compiler on this host: the artifact
  /// cache's per-toolchain namespace.
  uint64_t IdentityHash = 0;
  /// The hash as fixed-width hex (the .cmccjit/ subdirectory name).
  std::string identityHex() const;
};

/// The host CPU's instruction-set stamp: vendor, family/model/stepping
/// and feature bits (x86), or the hardware-capability words (other
/// Linux hosts). Read in process, never by running the compiler.
std::string hostIsaStamp();

/// FNV-1a over (compiler path, file size, mtime, CompileFlags,
/// EmitterVersion, \p IsaStamp).
uint64_t toolchainIdentity(const std::string &Compiler, long long Size,
                           long long Mtime, const std::string &IsaStamp);

/// Finds the host compiler per the discovery order above. The result is
/// not cached: callers (the artifact cache) hold onto it. Fails with a
/// message naming what was tried when no compiler is found.
Expected<Toolchain> detectToolchain();

/// True when detectToolchain() would succeed (the registry's
/// availability probe; cheap — a handful of stat calls, no exec).
bool toolchainAvailable();

} // namespace njit
} // namespace cmcc

#endif // CMCC_BACKENDS_NJIT_TOOLCHAIN_H
