//===- runtime/Array2D.h - Host-side 2-D float arrays ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense row-major single-precision 2-D array. Single precision is the
/// paper's setting throughout (all measurements are 32-bit).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_ARRAY2D_H
#define CMCC_RUNTIME_ARRAY2D_H

#include "support/Assert.h"
#include <cstdint>
#include <vector>

namespace cmcc {

/// A rows x cols array of floats.
class Array2D {
public:
  Array2D() = default;
  Array2D(int Rows, int Cols, float Fill = 0.0f)
      : Rows(Rows), Cols(Cols),
        Data(static_cast<size_t>(Rows) * Cols, Fill) {
    assert(Rows >= 0 && Cols >= 0 && "negative array shape");
  }

  int rows() const { return Rows; }
  int cols() const { return Cols; }
  bool empty() const { return Data.empty(); }

  float &at(int R, int C) {
    assert(R >= 0 && R < Rows && C >= 0 && C < Cols && "index out of range");
    return Data[static_cast<size_t>(R) * Cols + C];
  }
  float at(int R, int C) const {
    assert(R >= 0 && R < Rows && C >= 0 && C < Cols && "index out of range");
    return Data[static_cast<size_t>(R) * Cols + C];
  }

  /// Raw row-major storage (rows() * cols() floats); the executor's
  /// fast-path bindings index it with precomputed strides.
  float *data() { return Data.data(); }
  const float *data() const { return Data.data(); }

  /// Row \p R's cols() contiguous floats. Whole-row copies go through
  /// this, bounds-checked once per row rather than once per element.
  float *row(int R) {
    assert(R >= 0 && R < Rows && "row out of range");
    return Data.data() + static_cast<size_t>(R) * Cols;
  }
  const float *row(int R) const {
    assert(R >= 0 && R < Rows && "row out of range");
    return Data.data() + static_cast<size_t>(R) * Cols;
  }

  /// Element with circular (toroidal) index wrapping — Fortran CSHIFT
  /// semantics.
  float atWrapped(int R, int C) const;

  void fill(float Value) { Data.assign(Data.size(), Value); }

  /// Fills with deterministic pseudo-random values in [Low, High).
  void fillRandom(uint64_t Seed, float Low = -1.0f, float High = 1.0f);

  /// Largest absolute elementwise difference; returns +inf on shape
  /// mismatch or if either array holds a NaN.
  static float maxAbsDifference(const Array2D &A, const Array2D &B);

private:
  int Rows = 0, Cols = 0;
  std::vector<float> Data;
};

} // namespace cmcc

#endif // CMCC_RUNTIME_ARRAY2D_H
