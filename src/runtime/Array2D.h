//===- runtime/Array2D.h - Host-side 2-D float arrays ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense row-major single-precision 2-D array. Single precision is the
/// paper's setting throughout (all measurements are 32-bit). Also the
/// view every execution path reads and writes subgrids through: one
/// subgrid inside padded row-major storage, margin included.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_ARRAY2D_H
#define CMCC_RUNTIME_ARRAY2D_H

#include "support/Assert.h"
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace cmcc {

/// A rows() x cols() subgrid inside row-major storage of row stride
/// stride(): element (R, C) lives at data()[R * stride() + C]. The
/// margin() cells on every side of it (R or C in [-margin(), 0) or past
/// the subgrid) belong to the same storage, so halo reads index exactly
/// as core reads do. A view does not own its storage.
template <typename T> class BasicSubgridView {
public:
  BasicSubgridView() = default;
  BasicSubgridView(T *Origin, int Rows, int Cols, int Stride, int Margin)
      : Origin(Origin), Rows(Rows), Cols(Cols), Stride(Stride),
        Margin(Margin) {}
  /// A writable view converts to a read-only one.
  template <typename U, typename = std::enable_if_t<
                            std::is_same_v<const U, T> &&
                            !std::is_same_v<U, T>>>
  BasicSubgridView(const BasicSubgridView<U> &O)
      : BasicSubgridView(O.data(), O.rows(), O.cols(), O.stride(),
                         O.margin()) {}

  int rows() const { return Rows; }
  int cols() const { return Cols; }
  int stride() const { return Stride; }
  int margin() const { return Margin; }
  /// Element (0, 0) of the subgrid.
  T *data() const { return Origin; }
  /// Element (R, 0); R may reach into the margin.
  T *row(int R) const { return Origin + static_cast<ptrdiff_t>(R) * Stride; }

  /// True when (R, C) lies in the subgrid or its margin.
  bool contains(int R, int C) const {
    return R >= -Margin && R < Rows + Margin && C >= -Margin &&
           C < Cols + Margin;
  }
  T &at(int R, int C) const {
    assert(contains(R, C) && "index outside the subgrid and its margin");
    return row(R)[C];
  }

  /// Fills the subgrid (not the margin) row-major with the values
  /// Array2D::fillRandom would give an unpadded rows() x cols() array.
  void fillRandom(uint64_t Seed, float Low = -1.0f, float High = 1.0f) const;

private:
  T *Origin = nullptr;
  int Rows = 0, Cols = 0, Stride = 0, Margin = 0;
};

using SubgridView = BasicSubgridView<float>;
using ConstSubgridView = BasicSubgridView<const float>;

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

  /// Element with circular (toroidal) index wrapping — Fortran CSHIFT
  /// semantics.
  float atWrapped(int R, int C) const;

  void fill(float Value) { Data.assign(Data.size(), Value); }

  /// This array as a subgrid padded by \p Margin on every side.
  SubgridView view(int Margin = 0) {
    assert(2 * Margin <= Rows && 2 * Margin <= Cols && "margin too wide");
    return {data() + static_cast<size_t>(Margin) * Cols + Margin,
            Rows - 2 * Margin, Cols - 2 * Margin, Cols, Margin};
  }
  ConstSubgridView view(int Margin = 0) const {
    return const_cast<Array2D *>(this)->view(Margin);
  }

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
