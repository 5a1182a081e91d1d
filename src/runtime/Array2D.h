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
#include "support/DefaultInitAllocator.h"
#include "support/Random.h"
#include <cstdint>
#include <type_traits>
#include <vector>

namespace cmcc {

/// A rows x cols window of row-major floats whose rows lie pitch()
/// floats apart: a DistributedArray subgrid inside its halo margin, a
/// subgrid extended into that margin, or a whole Array2D. A view refers
/// to storage it does not own; copying it copies the reference.
template <typename T> class Array2DView {
public:
  Array2DView() = default;
  Array2DView(T *Origin, long Pitch, int Rows, int Cols)
      : Origin(Origin), Pitch(Pitch), Rows(Rows), Cols(Cols) {
    assert(Rows >= 0 && Cols >= 0 && Pitch >= Cols && "bad view shape");
  }
  /// A mutable view reads as a const one.
  template <typename U, typename = std::enable_if_t<
                            std::is_same_v<const U, T> &&
                            !std::is_same_v<U, T>>>
  Array2DView(Array2DView<U> Other)
      : Array2DView(Other.data(), Other.pitch(), Other.rows(),
                    Other.cols()) {}

  int rows() const { return Rows; }
  int cols() const { return Cols; }
  /// Floats from one row's start to the next's.
  long pitch() const { return Pitch; }
  /// Element (0, 0); null for a default-constructed view.
  T *data() const { return Origin; }

  T *row(int R) const {
    assert(R >= 0 && R < Rows && "row out of range");
    return Origin + static_cast<long>(R) * Pitch;
  }
  T &at(int R, int C) const {
    assert(R >= 0 && R < Rows && C >= 0 && C < Cols && "index out of range");
    return Origin[static_cast<long>(R) * Pitch + C];
  }

  /// Fills row by row with deterministic pseudo-random values in [Low,
  /// High): the same values Array2D::fillRandom gives a same-shaped
  /// array.
  void fillRandom(uint64_t Seed, float Low = -1.0f, float High = 1.0f) const {
    SplitMix64 Rng(Seed);
    for (int R = 0; R != Rows; ++R)
      for (T *P = row(R), *End = P + Cols; P != End; ++P)
        *P = Rng.nextFloatInRange(Low, High);
  }

private:
  T *Origin = nullptr;
  long Pitch = 0;
  int Rows = 0, Cols = 0;
};

using SubgridRef = Array2DView<float>;
using ConstSubgridRef = Array2DView<const float>;

/// A rows x cols array of floats.
class Array2D {
public:
  Array2D() = default;
  Array2D(int Rows, int Cols, float Fill = 0.0f)
      : Rows(Rows), Cols(Cols),
        Data(static_cast<size_t>(Rows) * Cols, Fill) {
    assert(Rows >= 0 && Cols >= 0 && "negative array shape");
  }
  /// A rows x cols array whose elements are left unwritten, for a
  /// caller about to overwrite every one of them.
  static Array2D uninitialized(int Rows, int Cols) {
    assert(Rows >= 0 && Cols >= 0 && "negative array shape");
    Array2D A;
    A.Rows = Rows;
    A.Cols = Cols;
    A.Data.resize(static_cast<size_t>(Rows) * Cols);
    return A;
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

  /// The whole array as a view (pitch == cols()).
  SubgridRef view() { return {Data.data(), Cols, Rows, Cols}; }
  ConstSubgridRef view() const { return {Data.data(), Cols, Rows, Cols}; }
  operator ConstSubgridRef() const { return view(); }

  /// Element with circular (toroidal) index wrapping — Fortran CSHIFT
  /// semantics.
  float atWrapped(int R, int C) const;

  void fill(float Value) { Data.assign(Data.size(), Value); }

  /// Fills with deterministic pseudo-random values in [Low, High).
  void fillRandom(uint64_t Seed, float Low = -1.0f, float High = 1.0f);

  /// Largest absolute elementwise difference; returns +inf on shape
  /// mismatch or if either array holds a NaN.
  static float maxAbsDifference(ConstSubgridRef A, ConstSubgridRef B);

private:
  int Rows = 0, Cols = 0;
  std::vector<float, DefaultInitAllocator<float>> Data;
};

} // namespace cmcc

#endif // CMCC_RUNTIME_ARRAY2D_H
