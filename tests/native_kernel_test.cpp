//===- tests/native_kernel_test.cpp - Native ISA variants agree -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native row kernel is compiled once per ISA level, and the widest
/// the CPU supports runs. Every lane performs the same multiplies and
/// adds in the same order in every variant, so each variant this host
/// can execute must give the baseline's bits exactly: for the paper's
/// stencils, for scalar, signed and bare-coefficient terms, and at
/// subgrid widths that are all tail (8), a block plus a tail (37) and
/// whole blocks (64, 128).
///
//===----------------------------------------------------------------------===//

#include "backends/native/NativeKernel.h"
#include "runtime/Array2D.h"
#include "stencil/PatternLibrary.h"
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <string>

using namespace cmcc;
using namespace cmcc::native;

namespace {

/// Square9 with every other tap turned into a scalar coefficient, odd
/// taps negated, and two bare-coefficient terms (one scalar, one array)
/// appended: every branch of the kernel's term.
StencilSpec mixedSpec() {
  StencilSpec Spec = makePattern(PatternId::Square9);
  for (size_t I = 0; I != Spec.Taps.size(); ++I) {
    Tap &T = Spec.Taps[I];
    if (I % 2 == 0) {
      T.Coeff.TheKind = Coefficient::Kind::Scalar;
      T.Coeff.Value = 0.37 * static_cast<double>(I + 1);
    }
    if (I % 3 == 1)
      T.Sign = -1.0;
  }
  Tap Bare;
  Bare.HasData = false;
  Bare.Coeff.Value = 0.5;
  Bare.Sign = -1.0;
  Spec.Taps.push_back(Bare);
  Bare.Coeff.TheKind = Coefficient::Kind::Array;
  Bare.Coeff.Name = "C1";
  Bare.Sign = 1.0;
  Spec.Taps.push_back(Bare);
  return Spec;
}

/// Runs \p Fn over rows [0, Rows) of \p Spec on seeded operands; the
/// output's pitch leaves a gap after each row.
Array2D runVariant(ComputeRowsFn Fn, const StencilSpec &Spec, int Rows,
                   int Cols) {
  const int Border = Spec.borderWidths().maximum();
  Array2D Src(Rows + 2 * Border, Cols + 2 * Border);
  Src.fillRandom(101);
  std::map<std::string, Array2D> Coeffs;
  std::vector<TapFold> Folds;
  std::vector<const float *> TapSrc, TapCoeff;
  std::vector<long> SrcStride, CoeffStride;
  for (const Tap &T : Spec.Taps) {
    TapFold F;
    F.Sign = static_cast<float>(T.Sign);
    if (!T.Coeff.isArray())
      F.Immediate = F.Sign * static_cast<float>(T.Coeff.Value);
    Folds.push_back(F);
    TapSrc.push_back(T.HasData
                         ? &Src.at(Border + T.At.Dy, Border + T.At.Dx)
                         : nullptr);
    SrcStride.push_back(Src.cols());
    const float *C = nullptr;
    if (T.Coeff.isArray()) {
      auto [It, New] = Coeffs.try_emplace(T.Coeff.Name, Rows, Cols);
      if (New)
        It->second.fillRandom(200 + Coeffs.size());
      C = It->second.data();
    }
    TapCoeff.push_back(C);
    CoeffStride.push_back(Cols);
  }
  Array2D Out(Rows, Cols + 3, -7.0f);
  Fn(Folds.data(), Folds.size(), Out.data(), Out.cols(), TapSrc.data(),
     SrcStride.data(), TapCoeff.data(), CoeffStride.data(), 0, Rows, Cols);
  return Out;
}

} // namespace

TEST(NativeKernelTest, BaselineComesFirstAndTheWidestAvailableRuns) {
  const std::vector<KernelVariant> &Variants = nativeKernelVariants();
  ASSERT_FALSE(Variants.empty());
  EXPECT_STREQ(Variants.front().Name, "baseline");
  EXPECT_TRUE(Variants.front().Available);
  ComputeRowsFn Widest = nullptr;
  for (const KernelVariant &V : Variants)
    if (V.Available)
      Widest = V.Fn;
  EXPECT_EQ(nativeKernel(), Widest);
}

TEST(NativeKernelTest, EveryAvailableVariantMatchesBaselineBitwise) {
  std::vector<std::pair<std::string, StencilSpec>> Specs;
  for (PatternId Id : allPatterns())
    Specs.emplace_back(patternName(Id), makePattern(Id));
  Specs.emplace_back("mixed", mixedSpec());
  const ComputeRowsFn Baseline = nativeKernelVariants().front().Fn;
  int Compared = 0;
  for (const auto &[Name, Spec] : Specs)
    for (int Cols : {8, 37, 64, 128}) {
      constexpr int Rows = 6;
      const Array2D Want = runVariant(Baseline, Spec, Rows, Cols);
      for (const KernelVariant &V : nativeKernelVariants()) {
        if (!V.Available || V.Fn == Baseline)
          continue;
        const Array2D Got = runVariant(V.Fn, Spec, Rows, Cols);
        EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                              sizeof(float) * Rows * Got.cols()),
                  0)
            << V.Name << " differs from baseline on " << Name << " at "
            << Cols << " columns";
        ++Compared;
      }
    }
  if (Compared == 0)
    GTEST_SKIP() << "this CPU runs only the baseline variant";
}
