//===- runtime/FpuBinding.cpp ---------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/FpuBinding.h"
#include "support/Assert.h"

using namespace cmcc;

FastNodeBinding::FastNodeBinding(const HalfStripOperands &O) {
  const std::vector<ConstSubgridRef> &Sources = *O.PaddedSources;
  assert(!Sources.empty() && "a stencil always has a source array");
  SourceOrigins.reserve(Sources.size());
  for (ConstSubgridRef P : Sources) {
    SourceStrides.push_back(P.pitch());
    SourceOrigins.push_back(P.data() + O.Border * P.pitch() + O.LeftCol +
                            O.Border);
  }
  SourceRows = SourceOrigins;

  Taps.reserve(O.Spec->Taps.size());
  for (size_t I = 0; I != O.Spec->Taps.size(); ++I) {
    const Tap &T = O.Spec->Taps[I];
    TapStream S;
    S.Sign = static_cast<float>(T.Sign);
    if (T.Coeff.isArray()) {
      const ConstSubgridRef Coef = (*O.TapCoefficients)[I];
      S.Stride = Coef.pitch();
      S.Base = Coef.data() + O.LeftCol;
      S.Row = S.Base;
    } else {
      // Same float product the virtual binding computes per access,
      // performed once.
      S.Immediate = S.Sign * static_cast<float>(T.Coeff.Value);
    }
    Taps.push_back(S);
  }

  ResultStride = O.Result.pitch();
  ResultBase = O.Result.data() + O.LeftCol;
  ResultRow = ResultBase;
}

void FastNodeBinding::setLine(int Row) {
  for (size_t S = 0; S != SourceRows.size(); ++S)
    SourceRows[S] = SourceOrigins[S] + Row * SourceStrides[S];
  for (TapStream &T : Taps)
    if (T.Base)
      T.Row = T.Base + Row * T.Stride;
  ResultRow = ResultBase + Row * ResultStride;
}
