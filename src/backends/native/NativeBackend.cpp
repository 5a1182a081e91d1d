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
#include <cstring>
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

/// Four floats as one value: the native target splits it into
/// whatever vector registers it has, and -ffp-contract=off keeps every
/// lane's multiply and add separately rounded.
typedef float Lanes __attribute__((vector_size(16)));
constexpr long LaneCount = sizeof(Lanes) / sizeof(float);
/// Columns one pass accumulates in registers.
constexpr long BlockCols = 8 * LaneCount;

/// Loads \p V from the row position \p P (unaligned). Values travel by
/// reference so no vector crosses a function-call ABI.
inline void load(float &V, const float *P) { V = *P; }
inline void load(Lanes &V, const float *P) { std::memcpy(&V, P, sizeof V); }

/// Adds tap \p F's term to the N accumulators of consecutive columns
/// from \p J, each rounded exactly as the FPU rounds it: Data * (Sign *
/// Coeff), or the bare coefficient times the exact 1.0 register.
template <typename T, int N>
inline void addTerm(T (&Acc)[N], const TapFold &F, const float *Src,
                    const float *C, long J) {
  constexpr long Step = sizeof(T) / sizeof(float);
  T D{}, K{};
  if (Src && C) {
#pragma GCC unroll 8
    for (int V = 0; V != N; ++V) {
      load(D, Src + J + V * Step);
      load(K, C + J + V * Step);
      Acc[V] += D * (F.Sign * K);
    }
  } else if (Src) {
#pragma GCC unroll 8
    for (int V = 0; V != N; ++V) {
      load(D, Src + J + V * Step);
      Acc[V] += D * F.Immediate;
    }
  } else if (C) {
#pragma GCC unroll 8
    for (int V = 0; V != N; ++V) {
      load(K, C + J + V * Step);
      Acc[V] += F.Sign * K;
    }
  } else {
#pragma GCC unroll 8
    for (int V = 0; V != N; ++V)
      Acc[V] += F.Immediate;
  }
}

/// The generic row kernel behind the driver's RowKernelFn ABI: rows
/// [RowBegin, RowEnd) of one node's output rectangle. Accumulation per
/// point is 0.0f + term0 + term1 + ... in StencilSpec tap order, each
/// term rounded separately — the same chain the FPU executes, modulo
/// the schedule's tap permutation. Each block of BlockCols columns
/// accumulates every tap in registers and is stored once; the tail
/// columns take the same chain one at a time.
void computeRows(const std::vector<TapFold> &Folds, float *Result,
                 long ResultStride, const float *const *TapSrc,
                 const long *TapSrcStride, const float *const *TapCoeff,
                 const long *TapCoeffStride, long RowBegin, long RowEnd,
                 long Cols) {
  const size_t Taps = Folds.size();
  std::vector<const float *> Src(Taps), C(Taps);
  for (long R = RowBegin; R != RowEnd; ++R) {
    for (size_t I = 0; I != Taps; ++I) {
      Src[I] = TapSrc[I] ? TapSrc[I] + R * TapSrcStride[I] : nullptr;
      C[I] = TapCoeff[I] ? TapCoeff[I] + R * TapCoeffStride[I] : nullptr;
    }
    float *Out = Result + R * ResultStride;
    long J = 0;
    for (; J + BlockCols <= Cols; J += BlockCols) {
      Lanes Acc[BlockCols / LaneCount] = {};
      for (size_t I = 0; I != Taps; ++I)
        addTerm(Acc, Folds[I], Src[I], C[I], J);
      std::memcpy(Out + J, Acc, sizeof Acc);
    }
    for (; J != Cols; ++J) {
      float Acc[1] = {0.0f};
      for (size_t I = 0; I != Taps; ++I)
        addTerm(Acc, Folds[I], Src[I], C[I], J);
      Out[J] = Acc[0];
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
