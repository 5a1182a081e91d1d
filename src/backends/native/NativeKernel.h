//===- backends/native/NativeKernel.h - Native row kernels ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native backend's generic row kernel, compiled once per x86 ISA
/// level (baseline SSE2, AVX-512) from one source, with the widest the
/// running CPU supports picked once, at the first run. Not
/// a public interface: the backend calls nativeKernel(), and tests hold
/// every entry of nativeKernelVariants() to the baseline's bits.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_BACKENDS_NATIVE_NATIVEKERNEL_H
#define CMCC_BACKENDS_NATIVE_NATIVEKERNEL_H

#include <cstddef>
#include <vector>

namespace cmcc {
namespace native {

/// One tap's folded scalars: the native analogue of FastNodeBinding's
/// sign handling, resolved once per run.
struct TapFold {
  float Sign = 1.0f;
  /// Sign * (float)Value (scalar coefficients only).
  float Immediate = 0.0f;
};

/// The row kernel over \p Taps folds: the driver's RowKernelFn
/// arguments (runtime/HostRun.h) after the folds.
using ComputeRowsFn = void (*)(const TapFold *Folds, size_t Taps,
                               float *Result, long ResultStride,
                               const float *const *TapSrc,
                               const long *TapSrcStride,
                               const float *const *TapCoeff,
                               const long *TapCoeffStride, long RowBegin,
                               long RowEnd, long Cols);

/// One compiled variant of the kernel.
struct KernelVariant {
  const char *Name;
  /// True when the running CPU can execute Fn.
  bool Available;
  ComputeRowsFn Fn;
};

/// Every variant this build holds, baseline first, widest last.
const std::vector<KernelVariant> &nativeKernelVariants();

/// The widest available variant, chosen once per process.
ComputeRowsFn nativeKernel();

} // namespace native
} // namespace cmcc

#endif // CMCC_BACKENDS_NATIVE_NATIVEKERNEL_H
