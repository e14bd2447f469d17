//===- runtime/DistributedArray.cpp ---------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/DistributedArray.h"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace cmcc;

DistributedArray::DistributedArray(const NodeGrid &Grid, int SubRows,
                                   int SubCols)
    : DistributedArray(Grid, SubRows, SubCols, Init::Zero) {}

DistributedArray::DistributedArray(const NodeGrid &Grid, int SubRows,
                                   int SubCols, Init How)
    : Grid(Grid), SubRows(SubRows), SubCols(SubCols) {
  assert(SubRows > 0 && SubCols > 0 && "subgrid must be nonempty");
  const size_t Floats = nodeFloats() * Grid.nodeCount();
  Storage = How == Init::Zero ? std::make_unique<float[]>(Floats)
                              : std::make_unique_for_overwrite<float[]>(Floats);
}

std::unique_ptr<DistributedArray>
DistributedArray::fromGlobal(const NodeGrid &Grid, int SubRows, int SubCols,
                             const void *Global) {
  std::unique_ptr<DistributedArray> A(
      new DistributedArray(Grid, SubRows, SubCols, Init::None));
  A->scatterFrom(Global);
  return A;
}

size_t DistributedArray::nodeFloats() const {
  return static_cast<size_t>(SubRows + 2 * Margin) * (SubCols + 2 * Margin);
}

SubgridView DistributedArray::writableSubgrid(int NodeId) const {
  const int Stride = SubCols + 2 * Margin;
  float *Origin = Storage.get() + nodeFloats() * NodeId +
                  static_cast<size_t>(Margin) * Stride + Margin;
  return {Origin, SubRows, SubCols, Stride, Margin};
}

SubgridView DistributedArray::subgrid(NodeCoord C) {
  return writableSubgrid(Grid.nodeId(C));
}

ConstSubgridView DistributedArray::subgrid(NodeCoord C) const {
  return writableSubgrid(Grid.nodeId(C));
}

/// NaN-fills every margin cell around \p V's subgrid, row by row.
static void poisonMargin(SubgridView V) {
  const float Nan = std::numeric_limits<float>::quiet_NaN();
  const int M = V.margin();
  for (int R = -M; R != V.rows() + M; ++R) {
    if (R < 0 || R >= V.rows()) {
      std::fill_n(V.row(R) - M, V.stride(), Nan);
      continue;
    }
    std::fill_n(V.row(R) - M, M, Nan);
    std::fill_n(V.row(R) + V.cols(), M, Nan);
  }
}

void DistributedArray::prepareMargin(int Border, bool Corners) const {
  if (Border > Margin) {
    // Regrow: each core moves into the wider layout and the new margin
    // starts all NaN, so nothing is filled yet.
    const std::unique_ptr<float[]> Old = std::move(Storage);
    const size_t OldFloats = nodeFloats();
    const int OldMargin = Margin;
    const int OldStride = SubCols + 2 * OldMargin;
    Margin = Border;
    Storage = std::make_unique_for_overwrite<float[]>(nodeFloats() *
                                                      Grid.nodeCount());
    for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
      const float *From = Old.get() + OldFloats * Id +
                          static_cast<size_t>(OldMargin) * OldStride +
                          OldMargin;
      const SubgridView To = writableSubgrid(Id);
      for (int R = 0; R != SubRows; ++R)
        std::memcpy(To.row(R), From + static_cast<size_t>(R) * OldStride,
                    static_cast<size_t>(SubCols) * sizeof(float));
      poisonMargin(To);
    }
  } else if (FilledBorder > Border || (FilledCorners && !Corners)) {
    // The previous exchange filled cells this one will not.
    for (int Id = 0; Id != Grid.nodeCount(); ++Id)
      poisonMargin(writableSubgrid(Id));
  }
  FilledBorder = Border;
  FilledCorners = Corners;
}

void DistributedArray::scatter(const Array2D &Global) {
  assert(Global.rows() == globalRows() && Global.cols() == globalCols() &&
         "global shape mismatch");
  scatterFrom(Global.data());
}

Array2D DistributedArray::gather() const {
  Array2D Global(globalRows(), globalCols());
  gatherInto(Global.data());
  return Global;
}

void DistributedArray::scatterFrom(const void *Global) {
  const auto *Src = static_cast<const unsigned char *>(Global);
  const size_t RowBytes = static_cast<size_t>(SubCols) * sizeof(float);
  for (int GR = 0; GR != globalRows(); ++GR)
    for (int NC = 0; NC != Grid.cols(); ++NC, Src += RowBytes)
      std::memcpy(subgrid({GR / SubRows, NC}).row(GR % SubRows), Src,
                  RowBytes);
}

void DistributedArray::gatherInto(void *Global) const {
  auto *Dst = static_cast<unsigned char *>(Global);
  const size_t RowBytes = static_cast<size_t>(SubCols) * sizeof(float);
  for (int GR = 0; GR != globalRows(); ++GR)
    for (int NC = 0; NC != Grid.cols(); ++NC, Dst += RowBytes)
      std::memcpy(Dst, subgrid({GR / SubRows, NC}).row(GR % SubRows),
                  RowBytes);
}

float DistributedArray::atGlobal(int R, int C) const {
  assert(R >= 0 && R < globalRows() && C >= 0 && C < globalCols() &&
         "global index out of range");
  NodeCoord Node{R / SubRows, C / SubCols};
  return subgrid(Node).at(R % SubRows, C % SubCols);
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
