//===- runtime/Array2D.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Array2D.h"
#include "support/Random.h"
#include <cmath>
#include <limits>
#include <span>

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
  SplitMix64 Rng(Seed);
  for (float &V : Data)
    V = Rng.nextFloatInRange(Low, High);
}

template <>
void SubgridView::fillRandom(uint64_t Seed, float Low, float High) const {
  SplitMix64 Rng(Seed);
  for (int R = 0; R != Rows; ++R)
    for (float &V : std::span(row(R), static_cast<size_t>(Cols)))
      V = Rng.nextFloatInRange(Low, High);
}

float Array2D::maxAbsDifference(const Array2D &A, const Array2D &B) {
  if (A.Rows != B.Rows || A.Cols != B.Cols)
    return std::numeric_limits<float>::infinity();
  float Max = 0.0f;
  for (size_t I = 0; I != A.Data.size(); ++I) {
    float D = std::fabs(A.Data[I] - B.Data[I]);
    if (std::isnan(D))
      return std::numeric_limits<float>::infinity();
    if (D > Max)
      Max = D;
  }
  return Max;
}
