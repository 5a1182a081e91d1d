//===- backends/njit/Emitter.h - Plan-specialized C++ codegen -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the plan-specialized C++ a recognized stencil compiles to: the
/// modern analogue of the paper's generated sequencer microcode. Where
/// the generic native backend *interprets* the recognized spec — a loop
/// over taps, each tap a separate pass over the output row — the
/// emitted kernel is the spec turned into straight-line source:
///
///   * the tap chain is fully unrolled — one fused pass per row
///     computes `0.0f + term0 + term1 + ...` per point, the paper's
///     ring-buffered register access pattern with the ring flattened
///     into named locals;
///   * every scalar coefficient is constant-folded into the source as
///     an exact hex-float literal (the same `float(Sign) * float(Value)`
///     the native backend folds at run time);
///   * sign folding is done symbolically: `x * (-c)`, `x * c`, never a
///     multiply by a runtime ±1.0;
///   * the hot loop is branch-free and auto-vectorizable — the §5.1
///     halo protocol pads every source, so there is no boundary
///     interior/edge split left to make: the *whole subgrid* is
///     interior by construction, and the emitted nest says so.
///
/// Numerics contract: the emitted chain performs exactly the native
/// backend's sequence of rounded float operations (each product rounded
/// before its add; compiled with -ffp-contract=off), so njit results
/// are bitwise identical to native and inherit native's ≤ 1-ulp-per-term
/// agreement with the simulated cm2 FPU.
///
/// Kernel ABI (KernelAbiVersion): one extern "C" entry point with the
/// host run driver's RowKernelFn signature (runtime/HostRun.h),
/// computing rows [RowBegin, RowEnd) of one node's output rectangle.
/// Per-tap base pointers arrive pre-resolved — source bases already
/// offset to (Border + Dy, Border + Dx) of the padded halo array — so
/// the kernel contains no offset arithmetic at all, only the unrolled
/// chain. Slots a tap does not use are never read (the emitted code
/// hard-codes which slots exist).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NJIT_EMITTER_H
#define CMCC_BACKENDS_NJIT_EMITTER_H

#include "stencil/StencilSpec.h"
#include <string>

namespace cmcc {
namespace njit {

/// Bump together with Toolchain::EmitterVersion on any ABI change.
inline constexpr int KernelAbiVersion = 1;

/// Symbol names the emitted shared object exports.
inline constexpr const char *KernelSymbol = "cmcc_njit_kernel";
inline constexpr const char *FingerprintSymbol = "cmcc_njit_fingerprint";
inline constexpr const char *AbiSymbol = "cmcc_njit_abi";

/// Renders the specialized kernel source for \p Spec. \p FingerprintHex
/// is stamped into the artifact (and checked after dlopen) so a
/// corrupted or mis-keyed .so can never serve the wrong plan.
std::string emitKernelSource(const StencilSpec &Spec,
                             const std::string &FingerprintHex);

} // namespace njit
} // namespace cmcc

#endif // CMCC_BACKENDS_NJIT_EMITTER_H
