//===- perfbench/src/Checks.cpp -------------------------------*- C++ -*-===//

#include "Checks.h"
#include <cmath>
#include <cstring>
#include <limits>

using namespace cmcc;

namespace perfbench {

namespace {

float ulpOf(float X) {
  const float A = std::fabs(X);
  return std::nextafter(A, std::numeric_limits<float>::infinity()) - A;
}

/// The per-point scale of the reordering tolerance: sum of |term|,
/// with the reference evaluator's boundary rules.
Array2D absTermSums(const StencilSpec &Spec, const ReferenceBindings &B,
                    int Rows, int Cols) {
  Array2D Scale(Rows, Cols);
  auto SourceAt = [&](int Index, int R, int C) -> float {
    const bool RowOutside = R < 0 || R >= Rows;
    const bool ColOutside = C < 0 || C >= Cols;
    if ((RowOutside && Spec.BoundaryDim1 == BoundaryKind::Zero) ||
        (ColOutside && Spec.BoundaryDim2 == BoundaryKind::Zero))
      return 0.0f;
    const Array2D *A =
        Index == 0 ? B.Source : B.ExtraSources.at(Spec.sourceName(Index));
    return A->atWrapped(R, C);
  };
  for (int R = 0; R != Rows; ++R)
    for (int C = 0; C != Cols; ++C) {
      double Sum = 0.0;
      for (const Tap &T : Spec.Taps) {
        const float Coeff = T.Coeff.isArray()
                                ? B.Coefficients.at(T.Coeff.Name)->at(R, C)
                                : static_cast<float>(T.Coeff.Value);
        const float Data =
            T.HasData ? SourceAt(T.SourceIndex, R + T.At.Dy, C + T.At.Dx)
                      : 1.0f;
        Sum += std::fabs(static_cast<double>(T.Sign) * Coeff * Data);
      }
      Scale.at(R, C) = static_cast<float>(Sum);
    }
  return Scale;
}

} // namespace

bool matchesReference(const StencilSpec &Spec, const ReferenceBindings &B,
                      const Array2D &Got, std::string &Why) {
  const Array2D Want = evaluateReference(Spec, B, Got.rows(), Got.cols());
  if (Spec.Taps.size() == 1) {
    if (bitwiseEqual(Want, Got))
      return true;
    Why = "single-term stencil differs from the reference bitwise";
    return false;
  }
  const Array2D Scale = absTermSums(Spec, B, Got.rows(), Got.cols());
  const float Terms = static_cast<float>(Spec.Taps.size());
  for (int R = 0; R != Got.rows(); ++R)
    for (int C = 0; C != Got.cols(); ++C) {
      const float Diff = std::fabs(Want.at(R, C) - Got.at(R, C));
      const float Tol = Terms * ulpOf(Scale.at(R, C));
      if (!(Diff <= Tol)) {
        Why = "point (" + std::to_string(R) + "," + std::to_string(C) +
              "): got " + std::to_string(Got.at(R, C)) + ", reference " +
              std::to_string(Want.at(R, C)) + ", beyond " +
              std::to_string(Spec.Taps.size()) + " ulp/term";
        return false;
      }
    }
  return true;
}

bool finiteAndNormal(const Array2D &A, std::string &Why) {
  const float *P = A.data();
  const size_t N = static_cast<size_t>(A.rows()) * A.cols();
  for (size_t I = 0; I != N; ++I) {
    const int Class = std::fpclassify(P[I]);
    if (Class == FP_NORMAL || Class == FP_ZERO)
      continue;
    Why = std::string(Class == FP_SUBNORMAL ? "subnormal" : "non-finite") +
          " value " + std::to_string(P[I]) + " at element " +
          std::to_string(I);
    return false;
  }
  return true;
}

bool bitwiseEqual(const Array2D &A, const Array2D &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.data(), B.data(),
                     sizeof(float) * static_cast<size_t>(A.rows()) *
                         A.cols()) == 0;
}

} // namespace perfbench
