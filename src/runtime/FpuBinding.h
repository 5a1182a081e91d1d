//===- runtime/FpuBinding.h - Half-strip operand bindings -----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-time address generation for one half-strip on one node — the
/// sequencer's job in the real machine — in two interchangeable forms:
///
///   * VirtualNodeBinding implements the FpuMemoryInterface abstract
///     interface and resolves every operand through Array2D::at. It is
///     the readable reference form, kept for tests.
///
///   * FastNodeBinding is a concrete (non-virtual) binding that resolves
///     each WidthSchedule operand class once per half-strip into flat
///     arrays: padded-source row pointers with their row strides,
///     per-tap coefficient-stream pointers or sign-folded scalar
///     immediates, and a result row pointer. FloatingPointUnit's
///     templated executeSequence then runs against it with every call
///     inlined — no virtual dispatch, no per-access bounds re-checks.
///
/// Both forms perform the *same* float operations in the same order, so
/// their results are bitwise identical and their op counters agree — a
/// property the tests assert. The executor uses the fast form by
/// default (Options::UseFastPath).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_FPUBINDING_H
#define CMCC_RUNTIME_FPUBINDING_H

#include "cm2/FloatingPointUnit.h"
#include "runtime/Array2D.h"
#include "stencil/StencilSpec.h"
#include <limits>
#include <vector>

namespace cmcc {

/// The inputs shared by both binding forms: everything that identifies
/// one half-strip's operands on one node.
struct HalfStripOperands {
  /// One halo-padded source subgrid per source array (all padded by the
  /// same border; their row pitches may differ).
  const std::vector<ConstSubgridRef> *PaddedSources = nullptr;
  int Border = 0;
  const StencilSpec *Spec = nullptr;
  /// Parallel to Spec->Taps; empty views for scalar coefficients.
  const std::vector<ConstSubgridRef> *TapCoefficients = nullptr;
  SubgridRef Result;
  int LeftCol = 0;
};

/// Reference binding: resolves operands through the virtual
/// FpuMemoryInterface, one Array2D::at per access.
class VirtualNodeBinding : public FpuMemoryInterface {
public:
  explicit VirtualNodeBinding(const HalfStripOperands &O) : O(O) {}

  void setLine(int Row) { AbsRow = Row; }

  float loadData(int Source, int Dy, int Dx) override {
    return (*O.PaddedSources)[Source].at(AbsRow + Dy + O.Border,
                                         O.LeftCol + Dx + O.Border);
  }

  float loadCoefficient(int TapIndex, int ResultIndex) override {
    const Tap &T = O.Spec->Taps[TapIndex];
    float C = T.Coeff.isArray()
                  ? (*O.TapCoefficients)[TapIndex].at(AbsRow,
                                                      O.LeftCol + ResultIndex)
                  : static_cast<float>(T.Coeff.Value);
    return static_cast<float>(T.Sign) * C;
  }

  void storeResult(int ResultIndex, float Value) override {
    O.Result.at(AbsRow, O.LeftCol + ResultIndex) = Value;
  }

private:
  HalfStripOperands O;
  int AbsRow = 0;
};

/// Owner-region binding for time-tiled intermediate steps: executes one
/// *owner* node's half-strip at owner-relative positions against this
/// node's wide-padded scratch arrays (runtime/TimeTile.h). Coordinates
/// stay in owner subgrid space; the binding translates them through the
/// per-array origin offsets. Two clamps make full-width strip replay
/// safe:
///
///   * loads falling outside an array's allocation (a full-width owner
///     strip can reach beyond the scratch pad) return NaN — such values
///     only ever feed result columns outside the kept window;
///   * stores land only inside the kept owner-space window; everything
///     else is dropped (but still *counted* as executed, matching the
///     SIMD machine, where deselected processors burn the cycles).
///
/// The float operations for kept cells are exactly the owner's — same
/// schedule, same order — so intermediate pad values are bitwise equal
/// to the owner's step-by-step results.
class ClampedRegionBinding {
public:
  /// Owner cell (r, c) reads input at (r + InRow0, c + InCol0), reads
  /// tap I's coefficient at (r + CoRow0, c + CoCol0) of
  /// PaddedCoefficients[I], and writes output at (r + OutRow0,
  /// c + OutCol0). Kept window [KeepRow0, KeepRow1) x [KeepCol0,
  /// KeepCol1) is in owner space.
  struct Operands {
    ConstSubgridRef Input;
    int InRow0 = 0, InCol0 = 0;
    const StencilSpec *Spec = nullptr;
    /// Parallel to Spec->Taps; empty views for scalar coefficients.
    /// Entries are *padded* coefficient subgrids (border (k-1) x radius).
    const std::vector<ConstSubgridRef> *PaddedCoefficients = nullptr;
    int CoRow0 = 0, CoCol0 = 0;
    Array2D *Output = nullptr;
    int OutRow0 = 0, OutCol0 = 0;
    int LeftCol = 0;
    int KeepRow0 = 0, KeepRow1 = 0, KeepCol0 = 0, KeepCol1 = 0;
  };

  explicit ClampedRegionBinding(const Operands &O) : O(O) {}

  void setLine(int Row) { AbsRow = Row; }

  float loadData(int Source, int Dy, int Dx) {
    (void)Source; // Depths > 1 imply a single source (validated).
    return clampedAt(O.Input, AbsRow + Dy + O.InRow0,
                     O.LeftCol + Dx + O.InCol0);
  }

  float loadCoefficient(int TapIndex, int ResultIndex) {
    const Tap &T = O.Spec->Taps[TapIndex];
    float C = T.Coeff.isArray()
                  ? clampedAt((*O.PaddedCoefficients)[TapIndex],
                              AbsRow + O.CoRow0,
                              O.LeftCol + ResultIndex + O.CoCol0)
                  : static_cast<float>(T.Coeff.Value);
    return static_cast<float>(T.Sign) * C;
  }

  void storeResult(int ResultIndex, float Value) {
    const int Col = O.LeftCol + ResultIndex;
    if (AbsRow < O.KeepRow0 || AbsRow >= O.KeepRow1 || Col < O.KeepCol0 ||
        Col >= O.KeepCol1)
      return;
    O.Output->at(AbsRow + O.OutRow0, Col + O.OutCol0) = Value;
  }

private:
  static float clampedAt(ConstSubgridRef A, int R, int C) {
    if (R < 0 || R >= A.rows() || C < 0 || C >= A.cols())
      return std::numeric_limits<float>::quiet_NaN();
    return A.at(R, C);
  }

  Operands O;
  int AbsRow = 0;
};

/// Fast binding: operand references pre-resolved to raw pointers and
/// strides once per half-strip; setLine only advances row pointers.
class FastNodeBinding {
public:
  explicit FastNodeBinding(const HalfStripOperands &O);

  void setLine(int Row);

  float loadData(int Source, int Dy, int Dx) {
    return SourceRows[Source][Dy * SourceStrides[Source] + Dx];
  }

  float loadCoefficient(int TapIndex, int ResultIndex) {
    const TapStream &T = Taps[TapIndex];
    return T.Row ? T.Sign * T.Row[ResultIndex] : T.Immediate;
  }

  void storeResult(int ResultIndex, float Value) {
    ResultRow[ResultIndex] = Value;
  }

private:
  struct TapStream {
    /// Base of the coefficient subgrid at column LeftCol (row 0); null
    /// for scalar coefficients.
    const float *Base = nullptr;
    /// Base + AbsRow * Stride, updated by setLine.
    const float *Row = nullptr;
    long Stride = 0;
    float Sign = 1.0f;
    /// Sign-folded scalar value (scalar coefficients only).
    float Immediate = 0.0f;
  };

  /// Per source: padded base translated so that index 0 is the element
  /// at (Border, LeftCol + Border) of the padded array — i.e. (0,
  /// LeftCol) of the subgrid.
  std::vector<const float *> SourceOrigins;
  std::vector<const float *> SourceRows;
  std::vector<long> SourceStrides;
  std::vector<TapStream> Taps;
  float *ResultBase = nullptr;
  float *ResultRow = nullptr;
  long ResultStride = 0;
};

} // namespace cmcc

#endif // CMCC_RUNTIME_FPUBINDING_H
