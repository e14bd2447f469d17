//===- tests/haloexchange_test.cpp - §5.1 protocol tests ------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the three-step exchange protocol (edges to four neighbors,
/// then corners relayed through two hops): for every machine shape,
/// boundary kind, border width, and corner flag, the protocol result
/// must be cell-for-cell identical (NaN poisoning included) to the
/// direct global-torus construction. The protocol writes in place, so
/// each node's subgrid view, margin included, is what is compared.
///
//===----------------------------------------------------------------------===//

#include "runtime/HaloExchange.h"
#include "support/Random.h"
#include <cmath>
#include <gtest/gtest.h>

using namespace cmcc;

namespace {

/// Equality where NaN == NaN (poisoned corners must match exactly), of
/// \p A's subgrid and its \p Border wide halo against the padded \p B.
bool sameCells(ConstSubgridView A, const Array2D &B, int Border,
               std::string *Where) {
  if (A.margin() < Border || A.rows() + 2 * Border != B.rows() ||
      A.cols() + 2 * Border != B.cols()) {
    *Where = "shape mismatch";
    return false;
  }
  const ConstSubgridView BV = B.view(Border);
  for (int R = -Border; R != A.rows() + Border; ++R)
    for (int C = -Border; C != A.cols() + Border; ++C) {
      float X = A.at(R, C), Y = BV.at(R, C);
      bool Equal = (std::isnan(X) && std::isnan(Y)) || X == Y;
      if (!Equal) {
        *Where = "(" + std::to_string(R) + "," + std::to_string(C) +
                 "): " + std::to_string(X) + " vs " + std::to_string(Y);
        return false;
      }
    }
  return true;
}

} // namespace

struct HaloCase {
  int NodeRows, NodeCols, SubRows, SubCols, Border;
  BoundaryKind B1, B2;
  bool Corners;
};

class HaloProtocolTest : public ::testing::TestWithParam<int> {};

TEST_P(HaloProtocolTest, MatchesDirectConstruction) {
  SplitMix64 Rng(0x4a10 + GetParam());
  const int Shapes[][2] = {{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 4}, {4, 4}};
  auto [NR, NC] = std::pair{Shapes[GetParam() % 6][0],
                            Shapes[GetParam() % 6][1]};
  int SubRows = 2 + static_cast<int>(Rng.nextBelow(6));
  int SubCols = 2 + static_cast<int>(Rng.nextBelow(6));
  int Border = static_cast<int>(
      Rng.nextBelow(std::min(SubRows, SubCols) + 1));
  BoundaryKind B1 =
      Rng.nextBelow(2) ? BoundaryKind::Circular : BoundaryKind::Zero;
  BoundaryKind B2 =
      Rng.nextBelow(2) ? BoundaryKind::Circular : BoundaryKind::Zero;
  bool Corners = Rng.nextBelow(2) != 0;

  NodeGrid Grid(NR, NC);
  DistributedArray A(Grid, SubRows, SubCols);
  Array2D Global(A.globalRows(), A.globalCols());
  Global.fillRandom(GetParam() * 97 + 5);
  A.scatter(Global);

  exchangeHalosInPlace(A, Border, B1, B2, Corners);
  EXPECT_EQ(A.margin(), Border);
  for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
    Array2D Direct = buildPaddedSubgrid(A, Grid.coordOf(Id), Border, B1,
                                        B2, Corners);
    std::string Where;
    EXPECT_TRUE(sameCells(A.subgrid(Grid.coordOf(Id)), Direct, Border,
                          &Where))
        << "node " << Id << " at " << Where << "  [grid " << NR << "x" << NC
        << " sub " << SubRows << "x" << SubCols << " border " << Border
        << " b1=" << (B1 == BoundaryKind::Zero ? "zero" : "circ")
        << " b2=" << (B2 == BoundaryKind::Zero ? "zero" : "circ")
        << " corners=" << Corners << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HaloProtocolTest, ::testing::Range(0, 36));

TEST(HaloProtocolTest, CornerDataTravelsTwoHops) {
  // The defining property of the relay: the NE corner pad equals the
  // diagonal neighbor's data even though only N/S/W/E exchanges happen.
  NodeGrid Grid(4, 4);
  DistributedArray A(Grid, 4, 4);
  Array2D Global(16, 16);
  for (int R = 0; R != 16; ++R)
    for (int C = 0; C != 16; ++C)
      Global.at(R, C) = static_cast<float>(R * 100 + C);
  A.scatter(Global);
  exchangeHalosInPlace(A, 2, BoundaryKind::Circular, BoundaryKind::Circular,
                       /*FetchCorners=*/true);
  // Node (1,1) covers rows 4..7, cols 4..7. Its NW corner pad cell
  // (-2,-2) is global (2,2) — owned by diagonal node (0,0).
  const ConstSubgridView P = A.subgrid({1, 1});
  EXPECT_EQ(P.at(-2, -2), 2 * 100 + 2);
  EXPECT_EQ(P.at(5, 5), 9 * 100 + 9); // SE corner interior edge.
}

TEST(HaloProtocolTest, ZeroBorderIsJustTheSubgrid) {
  NodeGrid Grid(2, 2);
  DistributedArray A(Grid, 3, 3);
  Array2D Global(6, 6);
  Global.fillRandom(1);
  A.scatter(Global);
  exchangeHalosInPlace(A, 0, BoundaryKind::Circular, BoundaryKind::Circular,
                       true);
  EXPECT_EQ(A.margin(), 0);
  EXPECT_EQ(Array2D::maxAbsDifference(A.gather(), Global), 0.0f);
}
