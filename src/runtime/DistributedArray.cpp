//===- runtime/DistributedArray.cpp ---------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/DistributedArray.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

using namespace cmcc;

DistributedArray::DistributedArray(const NodeGrid &Grid, int SubRows,
                                   int SubCols)
    : Grid(Grid), SubRows(SubRows), SubCols(SubCols) {
  assert(SubRows > 0 && SubCols > 0 && "subgrid must be nonempty");
  Storage.reserve(Grid.nodeCount());
  for (int I = 0; I != Grid.nodeCount(); ++I)
    Storage.emplace_back(SubRows, SubCols);
}

DistributedArray::DistributedArray(const NodeGrid &Grid, int SubRows,
                                   int SubCols, const void *RowMajor)
    : Grid(Grid), SubRows(SubRows), SubCols(SubCols) {
  assert(SubRows > 0 && SubCols > 0 && "subgrid must be nonempty");
  Storage.reserve(Grid.nodeCount());
  for (int I = 0; I != Grid.nodeCount(); ++I)
    Storage.push_back(Array2D::uninitialized(SubRows, SubCols));
  scatter(RowMajor);
}

SubgridRef DistributedArray::subgrid(NodeCoord C) { return halo(C, 0); }

ConstSubgridRef DistributedArray::subgrid(NodeCoord C) const {
  return halo(C, 0);
}

SubgridRef DistributedArray::halo(NodeCoord C, int Border) const {
  assert(Border >= 0 && Border <= Margin && "border exceeds the margin");
  Array2D &S = Storage[Grid.nodeId(C)];
  return {S.row(Margin - Border) + Margin - Border, pitch(),
          SubRows + 2 * Border, SubCols + 2 * Border};
}

DistributedArray::DistributedArray(const DistributedArray &Src, int Margin,
                                   ThreadPool *Pool)
    : Grid(Src.Grid), SubRows(Src.SubRows), SubCols(Src.SubCols),
      Margin(Margin), Storage(Src.copyWithMargin(Margin, Pool)) {}

std::vector<Array2D> DistributedArray::copyWithMargin(int NewMargin,
                                                      ThreadPool *Pool) const {
  std::vector<Array2D> Out(Storage.size());
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const int Cols = SubCols + 2 * NewMargin;
  // Only the margin ring is poisoned; the core is written once, by the
  // copy.
  auto Copy = [&](int Id) {
    Array2D S = Array2D::uninitialized(SubRows + 2 * NewMargin, Cols);
    ConstSubgridRef Core = subgrid(Grid.coordOf(Id));
    for (int R = 0; R != NewMargin; ++R) {
      std::fill_n(S.row(R), Cols, Nan);
      std::fill_n(S.row(NewMargin + SubRows + R), Cols, Nan);
    }
    for (int R = 0; R != SubRows; ++R) {
      float *Row = S.row(R + NewMargin);
      std::fill_n(Row, NewMargin, Nan);
      std::copy_n(Core.row(R), SubCols, Row + NewMargin);
      std::fill_n(Row + NewMargin + SubCols, NewMargin, Nan);
    }
    Out[static_cast<size_t>(Id)] = std::move(S);
  };
  if (Pool)
    Pool->parallelFor(Grid.nodeCount(), Copy);
  else
    for (int Id = 0; Id != Grid.nodeCount(); ++Id)
      Copy(Id);
  return Out;
}

size_t DistributedArray::reserveMargin(int Border) const {
  if (Border <= Margin)
    return 0;
  Storage = copyWithMargin(Border, /*Pool=*/nullptr);
  Margin = Border;
  return static_cast<size_t>(Grid.nodeCount()) * SubRows * SubCols *
         sizeof(float);
}

std::vector<Array2D> DistributedArray::takeStorage() && {
  Margin = 0;
  return std::move(Storage);
}

void DistributedArray::scatter(const Array2D &Global) {
  assert(Global.rows() == globalRows() && Global.cols() == globalCols() &&
         "global shape mismatch");
  scatter(Global.data());
}

void DistributedArray::scatter(const void *RowMajor) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(RowMajor);
  const size_t Stride = static_cast<size_t>(globalCols()) * sizeof(float);
  const size_t RowBytes = static_cast<size_t>(SubCols) * sizeof(float);
  for (int NR = 0; NR != Grid.rows(); ++NR)
    for (int NC = 0; NC != Grid.cols(); ++NC) {
      SubgridRef Sub = subgrid({NR, NC});
      for (int R = 0; R != SubRows; ++R)
        std::memcpy(Sub.row(R),
                    Bytes + static_cast<size_t>(NR * SubRows + R) * Stride +
                        NC * RowBytes,
                    RowBytes);
    }
}

Array2D DistributedArray::gather() const {
  Array2D Global = Array2D::uninitialized(globalRows(), globalCols());
  gather(Global.data());
  return Global;
}

void DistributedArray::gather(void *RowMajor) const {
  uint8_t *Out = static_cast<uint8_t *>(RowMajor);
  forEachGlobalRowPiece([&](const float *Piece, int Floats) {
    const size_t Bytes = static_cast<size_t>(Floats) * sizeof(float);
    std::memcpy(Out, Piece, Bytes);
    Out += Bytes;
  });
}

float DistributedArray::atGlobal(int R, int C) const {
  assert(R >= 0 && R < globalRows() && C >= 0 && C < globalCols() &&
         "global index out of range");
  NodeCoord Node{R / SubRows, C / SubCols};
  return subgrid(Node).at(R % SubRows, C % SubCols);
}

HaloLocks::HaloLocks(std::vector<const DistributedArray *> Arrays) {
  std::sort(Arrays.begin(), Arrays.end(), std::less<>());
  Arrays.erase(std::unique(Arrays.begin(), Arrays.end()), Arrays.end());
  Held.reserve(Arrays.size());
  for (const DistributedArray *A : Arrays)
    if (A)
      Held.emplace_back(A->haloLock());
}

std::string
DistributedArray::describeDecomposition(const std::string &Name) const {
  std::string Out;
  for (int NR = 0; NR != Grid.rows(); ++NR) {
    for (int NC = 0; NC != Grid.cols(); ++NC) {
      Out += Name + "(" + std::to_string(NR * SubRows + 1) + ":" +
             std::to_string((NR + 1) * SubRows) + "," +
             std::to_string(NC * SubCols + 1) + ":" +
             std::to_string((NC + 1) * SubCols) + ")";
      Out += NC + 1 == Grid.cols() ? "\n" : "  ";
    }
  }
  return Out;
}

Array2D cmcc::buildPaddedSubgrid(const DistributedArray &A, NodeCoord Node,
                                 int Border, BoundaryKind BoundaryDim1,
                                 BoundaryKind BoundaryDim2,
                                 bool FetchCorners) {
  const int SR = A.subRows();
  const int SC = A.subCols();
  const int GR = A.globalRows();
  const int GC = A.globalCols();
  assert(Border >= 0 && "negative border width");
  assert(Border <= SR && Border <= SC &&
         "border width exceeds the subgrid (data would come from beyond "
         "the four neighbors)");

  const float Nan = std::numeric_limits<float>::quiet_NaN();
  Array2D Padded(SR + 2 * Border, SC + 2 * Border);

  const int BaseR = Node.Row * SR;
  const int BaseC = Node.Col * SC;
  for (int R = -Border; R != SR + Border; ++R) {
    for (int C = -Border; C != SC + Border; ++C) {
      bool RowPad = R < 0 || R >= SR;
      bool ColPad = C < 0 || C >= SC;
      if (RowPad && ColPad && !FetchCorners) {
        // Corner data was not exchanged: poison it so that any kernel
        // that touches unfetched data is caught.
        Padded.at(R + Border, C + Border) = Nan;
        continue;
      }
      int GRow = BaseR + R;
      int GCol = BaseC + C;
      bool RowOutside = GRow < 0 || GRow >= GR;
      bool ColOutside = GCol < 0 || GCol >= GC;
      float Value;
      if ((RowOutside && BoundaryDim1 == BoundaryKind::Zero) ||
          (ColOutside && BoundaryDim2 == BoundaryKind::Zero)) {
        Value = 0.0f;
      } else {
        int WR = ((GRow % GR) + GR) % GR;
        int WC = ((GCol % GC) + GC) % GC;
        Value = A.atGlobal(WR, WC);
      }
      Padded.at(R + Border, C + Border) = Value;
    }
  }
  return Padded;
}
