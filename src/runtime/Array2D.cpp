//===- runtime/Array2D.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Array2D.h"
#include <cmath>
#include <limits>

using namespace cmcc;

/// Non-negative modulus.
static int wrap(int V, int M) {
  int R = V % M;
  return R < 0 ? R + M : R;
}

float Array2D::atWrapped(int R, int C) const {
  assert(Rows > 0 && Cols > 0 && "wrapped access to an empty array");
  return at(wrap(R, Rows), wrap(C, Cols));
}

void Array2D::fillRandom(uint64_t Seed, float Low, float High) {
  view().fillRandom(Seed, Low, High);
}

float Array2D::maxAbsDifference(ConstSubgridRef A, ConstSubgridRef B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return std::numeric_limits<float>::infinity();
  float Max = 0.0f;
  for (int R = 0; R != A.rows(); ++R)
    for (int C = 0; C != A.cols(); ++C) {
      float D = std::fabs(A.row(R)[C] - B.row(R)[C]);
      if (std::isnan(D))
        return std::numeric_limits<float>::infinity();
      if (D > Max)
        Max = D;
    }
  return Max;
}
