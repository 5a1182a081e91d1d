//===- backends/native/NativeBackend.cpp ----------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/native/NativeBackend.h"
#include "backends/native/NativeKernel.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include <vector>

using namespace cmcc;
using native::TapFold;

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
  const native::ComputeRowsFn Rows = native::nativeKernel();
  const RowKernel Kernel =
      [&Folds, Rows](float *Out, long OutStride, const float *const *TapSrc,
                     const long *TapSrcStride, const float *const *TapCoeff,
                     const long *TapCoeffStride, long RowBegin, long RowEnd,
                     long Cols) {
        Rows(Folds.data(), Folds.size(), Out, OutStride, TapSrc, TapSrcStride,
             TapCoeff, TapCoeffStride, RowBegin, RowEnd, Cols);
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
