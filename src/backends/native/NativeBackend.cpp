//===- backends/native/NativeBackend.cpp ----------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
// Compiled with -ffp-contract=off (see backends/CMakeLists.txt): every
// term's product must round before the add, as the pipeline model's
// chain arithmetic does, or the 1-ulp-per-term equivalence contract
// with the cm2 backend breaks.
//
//===----------------------------------------------------------------------===//

#include "backends/native/NativeBackend.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include <algorithm>
#include <vector>

using namespace cmcc;

namespace {

/// One tap's folded scalars: the native analogue of FastNodeBinding's
/// sign handling, resolved once per run.
struct TapFold {
  float Sign = 1.0f;
  /// Sign * (float)Value (scalar coefficients only).
  float Immediate = 0.0f;
};

/// The generic row kernel behind the driver's RowKernelFn ABI: rows
/// [RowBegin, RowEnd) of one node's output rectangle. Accumulation per
/// point is 0.0f + term0 + term1 + ... in StencilSpec tap order, each
/// term Data * (Sign * Coeff) rounded separately — the same chain the
/// FPU executes, modulo the schedule's tap permutation. The tap loop
/// sits outside the column loop so the column loop vectorizes.
void computeRows(const std::vector<TapFold> &Folds, float *Result,
                 long ResultStride, const float *const *TapSrc,
                 const long *TapSrcStride, const float *const *TapCoeff,
                 const long *TapCoeffStride, long RowBegin, long RowEnd,
                 long Cols) {
  for (long R = RowBegin; R != RowEnd; ++R) {
    float *Out = Result + R * ResultStride;
    std::fill(Out, Out + Cols, 0.0f);
    for (size_t I = 0; I != Folds.size(); ++I) {
      const float Sign = Folds[I].Sign;
      const float *C = TapCoeff[I] ? TapCoeff[I] + R * TapCoeffStride[I]
                                   : nullptr;
      if (TapSrc[I]) {
        const float *Src = TapSrc[I] + R * TapSrcStride[I];
        if (C) {
          for (long J = 0; J != Cols; ++J)
            Out[J] += Src[J] * (Sign * C[J]);
        } else {
          const float Imm = Folds[I].Immediate;
          for (long J = 0; J != Cols; ++J)
            Out[J] += Src[J] * Imm;
        }
      } else if (C) {
        // Bare array-coefficient term: the FPU multiplies by the 1.0
        // register, which is exact.
        for (long J = 0; J != Cols; ++J)
          Out[J] += Sign * C[J];
      } else {
        const float Imm = Folds[I].Immediate;
        for (long J = 0; J != Cols; ++J)
          Out[J] += Imm;
      }
    }
  }
}

} // namespace

Expected<TimingReport>
NativeBackend::runResolved(const CompiledStencil &Compiled,
                           const ResolvedStencilArguments &Resolved,
                           const RunOptions &RO) const {
  CMCC_SPAN("backend.native.run");
  if (fault::probe("backend.native.run"))
    return fault::injectedFault("backend.native.run");
  static obs::Counter &Runs =
      obs::Registry::process().counter("backend.native.runs");
  static obs::Histogram &RunHostUs =
      obs::Registry::process().histogram("backend.native.run_host_us");
  Runs.add(1);
  obs::ScopedLatencyUs RunTimer(RunHostUs);

  const StencilSpec &Spec = Compiled.Spec;
  std::vector<TapFold> Folds(Spec.Taps.size());
  for (size_t I = 0; I != Spec.Taps.size(); ++I) {
    const Tap &T = Spec.Taps[I];
    Folds[I].Sign = static_cast<float>(T.Sign);
    if (!T.Coeff.isArray())
      Folds[I].Immediate = Folds[I].Sign * static_cast<float>(T.Coeff.Value);
  }
  const RowKernel Kernel =
      [&Folds](float *Out, long OutStride, const float *const *TapSrc,
               const long *TapSrcStride, const float *const *TapCoeff,
               const long *TapCoeffStride, long RowBegin, long RowEnd,
               long Cols) {
        computeRows(Folds, Out, OutStride, TapSrc, TapSrcStride, TapCoeff,
                    TapCoeffStride, RowBegin, RowEnd, Cols);
      };
  return runOnHost(Config, Opts, Spec, Resolved, RO, Kernel,
                   {"backend.native.halo_exchange", "backend.native.compute"});
}

Expected<TimingReport> NativeBackend::timeOnly(const CompiledStencil &Compiled,
                                               int SubRows, int SubCols,
                                               const RunOptions &RO) const {
  CMCC_SPAN("backend.native.time_only");
  return runOnScratch(Compiled, SubRows, SubCols, RO);
}
