//===- backends/native/NativeKernel.cpp -----------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
// Compiled with -ffp-contract=off (see backends/CMakeLists.txt): every
// term's product must round before the add, as the pipeline model's
// chain arithmetic does, or the 1-ulp-per-term equivalence contract
// with the cm2 backend breaks. That holds in every ISA variant below,
// AVX-512's FMA units included.
//
//===----------------------------------------------------------------------===//

#include "backends/native/NativeKernel.h"
#include <cstring>

using namespace cmcc;
using namespace cmcc::native;

namespace {

/// One register of floats at each variant's width: xmm (baseline SSE2)
/// or zmm (AVX-512). A vector wider than the ISA's registers would live
/// on the stack, not in registers, so each variant uses its own. Every
/// lane does the same multiplies and adds in the same order at any
/// width, so all variants give the same bits.
typedef float Lanes4 __attribute__((vector_size(16)));
typedef float Lanes16 __attribute__((vector_size(64)));
/// Columns one pass accumulates in registers: 8 xmm or 2 zmm.
constexpr long BlockCols = 32;

/// Loads \p V from the row position \p P (unaligned). Values travel by
/// reference so no vector crosses a function-call ABI.
template <typename T>
[[gnu::always_inline]] inline void load(T &V, const float *P) {
  std::memcpy(&V, P, sizeof V);
}

/// Adds tap \p F's term to the N accumulators of consecutive columns
/// from \p J, each rounded exactly as the FPU rounds it: Data * (Sign *
/// Coeff), or the bare coefficient times the exact 1.0 register.
template <typename T, int N>
[[gnu::always_inline]] inline void addTerm(T (&Acc)[N], const TapFold &F,
                                           const float *Src, const float *C,
                                           long J) {
  constexpr long Step = sizeof(T) / sizeof(float);
  T D{}, K{};
  if (Src && C) {
    for (int V = 0; V != N; ++V) {
      load(D, Src + J + V * Step);
      load(K, C + J + V * Step);
      Acc[V] += D * (F.Sign * K);
    }
  } else if (Src) {
    for (int V = 0; V != N; ++V) {
      load(D, Src + J + V * Step);
      Acc[V] += D * F.Immediate;
    }
  } else if (C) {
    for (int V = 0; V != N; ++V) {
      load(K, C + J + V * Step);
      Acc[V] += F.Sign * K;
    }
  } else {
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
/// columns take the same chain one at a time. Inlined into each ISA
/// variant, which is what compiles it for that ISA.
template <typename Lanes>
[[gnu::always_inline]] inline void
computeRows(const TapFold *Folds, size_t Taps, float *Result,
            long ResultStride, const float *const *TapSrc,
            const long *TapSrcStride, const float *const *TapCoeff,
            const long *TapCoeffStride, long RowBegin, long RowEnd,
            long Cols) {
  std::vector<const float *> Src(Taps), C(Taps);
  for (long R = RowBegin; R != RowEnd; ++R) {
    for (size_t I = 0; I != Taps; ++I) {
      Src[I] = TapSrc[I] ? TapSrc[I] + R * TapSrcStride[I] : nullptr;
      C[I] = TapCoeff[I] ? TapCoeff[I] + R * TapCoeffStride[I] : nullptr;
    }
    float *Out = Result + R * ResultStride;
    long J = 0;
    for (; J + BlockCols <= Cols; J += BlockCols) {
      Lanes Acc[BlockCols * sizeof(float) / sizeof(Lanes)] = {};
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

#define CMCC_NATIVE_KERNEL_PARAMS                                              \
  const TapFold *Folds, size_t Taps, float *Result, long ResultStride,         \
      const float *const *TapSrc, const long *TapSrcStride,                    \
      const float *const *TapCoeff, const long *TapCoeffStride,                \
      long RowBegin, long RowEnd, long Cols
#define CMCC_NATIVE_KERNEL_ARGS                                                \
  Folds, Taps, Result, ResultStride, TapSrc, TapSrcStride, TapCoeff,           \
      TapCoeffStride, RowBegin, RowEnd, Cols

void computeRowsBaseline(CMCC_NATIVE_KERNEL_PARAMS) {
  computeRows<Lanes4>(CMCC_NATIVE_KERNEL_ARGS);
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) void
computeRowsAvx512(CMCC_NATIVE_KERNEL_PARAMS) {
  computeRows<Lanes16>(CMCC_NATIVE_KERNEL_ARGS);
}
#endif

} // namespace

const std::vector<KernelVariant> &native::nativeKernelVariants() {
  static const std::vector<KernelVariant> Variants = [] {
    std::vector<KernelVariant> V = {
        {"baseline", true, computeRowsBaseline}};
#if defined(__x86_64__)
    __builtin_cpu_init();
    V.push_back({"avx512", __builtin_cpu_supports("avx512f") != 0,
                 computeRowsAvx512});
#endif
    return V;
  }();
  return Variants;
}

ComputeRowsFn native::nativeKernel() {
  static const ComputeRowsFn Picked = [] {
    ComputeRowsFn Fn = nullptr;
    for (const KernelVariant &V : nativeKernelVariants())
      if (V.Available)
        Fn = V.Fn;
    return Fn;
  }();
  return Picked;
}
