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
/// The same holds for the partitioned form of the protocol: the node
/// grid split into blocks (runtime/Partition.h), each block exchanged
/// in its own thread over a LocalTransport, must give every node the
/// cells the whole-grid exchange gives it, for every split axis,
/// boundary kind and corner flag, and for several arrays exchanged back
/// to back through one transport.
///
//===----------------------------------------------------------------------===//

#include "runtime/HaloExchange.h"
#include "runtime/HaloTransport.h"
#include "runtime/Partition.h"
#include "support/Random.h"
#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

/// The block of \p Global that domain \p D owns, as its own array.
std::unique_ptr<DistributedArray> blockOf(const Array2D &Global,
                                          const PartitionDomain &D,
                                          int SubRows, int SubCols) {
  auto Local = std::make_unique<DistributedArray>(
      NodeGrid(D.LocalRows, D.LocalCols), SubRows, SubCols);
  Array2D Slice(D.LocalRows * SubRows, D.LocalCols * SubCols);
  for (int R = 0; R != Slice.rows(); ++R)
    for (int C = 0; C != Slice.cols(); ++C)
      Slice.at(R, C) = Global.at(D.NodeRowBegin * SubRows + R,
                                 D.NodeColBegin * SubCols + C);
  Local->scatter(Slice);
  return Local;
}

/// Runs \p Body(S) for every block S in its own thread and joins them
/// (endpoint exchanges are all-block rendezvous).
void onEveryBlock(int Blocks, const std::function<void(int)> &Body) {
  std::vector<std::thread> Threads;
  for (int S = 0; S != Blocks; ++S)
    Threads.emplace_back(Body, S);
  for (std::thread &T : Threads)
    T.join();
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

//===----------------------------------------------------------------------===//
// Partition algebra
//===----------------------------------------------------------------------===//

TEST(PartitionTest, MakeShardGridValidatesDimensions) {
  Expected<ShardGrid> Ok = makeShardGrid(4, 4, 2, 2);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Ok->Rows, 2);
  EXPECT_EQ(Ok->Cols, 2);
  EXPECT_EQ(Ok->count(), 4);
  EXPECT_TRUE(makeShardGrid(4, 4, 1, 1));
  EXPECT_TRUE(makeShardGrid(2, 4, 1, 4));
  EXPECT_TRUE(makeShardGrid(4, 4, 4, 4));

  // Non-power-of-two dimensions are rejected before divisibility.
  Expected<ShardGrid> Bad = makeShardGrid(4, 4, 3, 1);
  ASSERT_FALSE(Bad);
  EXPECT_NE(Bad.error().message().find("power-of-two"), std::string::npos);
  // Power of two but larger than the grid.
  EXPECT_FALSE(makeShardGrid(4, 4, 8, 1));
  EXPECT_FALSE(makeShardGrid(4, 4, 1, 8));
  EXPECT_FALSE(makeShardGrid(4, 4, 0, 2));
}

TEST(PartitionTest, ShardDomainsTileTheNodeGrid) {
  const int NR = 4, NC = 8;
  Expected<ShardGrid> SG = makeShardGrid(NR, NC, 2, 4);
  ASSERT_TRUE(SG);
  std::vector<int> Owner(NR * NC, -1);
  for (int S = 0; S != SG->count(); ++S) {
    PartitionDomain D = shardDomain(*SG, S, NR, NC);
    EXPECT_EQ(D.LocalRows, NR / SG->Rows);
    EXPECT_EQ(D.LocalCols, NC / SG->Cols);
    EXPECT_EQ(D.GlobalRows, NR);
    EXPECT_EQ(D.GlobalCols, NC);
    EXPECT_EQ(D.localNodeCount(), D.LocalRows * D.LocalCols);
    EXPECT_FALSE(D.wholeGrid());
    for (int R = 0; R != D.LocalRows; ++R)
      for (int C = 0; C != D.LocalCols; ++C) {
        int At = D.globalRow(R) * NC + D.globalCol(C);
        ASSERT_GE(At, 0);
        ASSERT_LT(At, NR * NC);
        EXPECT_EQ(Owner[At], -1) << "node covered twice";
        Owner[At] = S;
      }
  }
  for (int At = 0; At != NR * NC; ++At)
    EXPECT_NE(Owner[At], -1) << "node " << At << " uncovered";

  // The single-block domain is the whole grid: both axes wrap locally
  // and the transport is never consulted.
  Expected<ShardGrid> One = makeShardGrid(NR, NC, 1, 1);
  ASSERT_TRUE(One);
  EXPECT_TRUE(shardDomain(*One, 0, NR, NC).wholeGrid());
  EXPECT_EQ(shardDomain(*One, 0, NR, NC), PartitionDomain::whole(NR, NC));
}

TEST(PartitionTest, ShardTorusNeighborsWrap) {
  ShardGrid SG{2, 4};
  // Block 0 is (0,0); east walks the row, wrapping at the end.
  EXPECT_EQ(SG.eastOf(0), 1);
  EXPECT_EQ(SG.eastOf(3), 0);
  EXPECT_EQ(SG.westOf(0), 3);
  // North/south wrap between the two rows.
  EXPECT_EQ(SG.southOf(0), 4);
  EXPECT_EQ(SG.southOf(4), 0);
  EXPECT_EQ(SG.northOf(0), 4);
  // Row-major ids round-trip.
  for (int S = 0; S != SG.count(); ++S)
    EXPECT_EQ(SG.shardId(SG.rowOf(S), SG.colOf(S)), S);
  // Degenerate single-block torus: every neighbor is itself.
  ShardGrid One{1, 1};
  EXPECT_EQ(One.westOf(0), 0);
  EXPECT_EQ(One.northOf(0), 0);
}

//===----------------------------------------------------------------------===//
// The partitioned exchange over LocalTransport is bitwise the
// whole-grid protocol
//===----------------------------------------------------------------------===//

struct TransportCase {
  int NodeRows, NodeCols, ShardRows, ShardCols, SubRows, SubCols, Border;
  BoundaryKind B1, B2;
  bool Corners;
};

static const TransportCase TransportCases[] = {
    // Both axes split, corners relayed across two block hops.
    {4, 4, 2, 2, 4, 5, 2, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Column axis split only; cornerless (pads must stay NaN).
    {4, 4, 1, 2, 3, 4, 1, BoundaryKind::Circular, BoundaryKind::Circular,
     false},
    // Row axis split only; cornerless.
    {4, 4, 4, 1, 4, 3, 2, BoundaryKind::Circular, BoundaryKind::Circular,
     false},
    // Zero boundaries cross block edges at the global grid border.
    {4, 4, 2, 2, 4, 4, 1, BoundaryKind::Zero, BoundaryKind::Circular, true},
    {4, 4, 2, 2, 4, 4, 2, BoundaryKind::Zero, BoundaryKind::Zero, false},
    // One node per block: every neighbor is remote.
    {2, 4, 2, 4, 5, 4, 2, BoundaryKind::Circular, BoundaryKind::Zero, true},
    // Single node row; the split axis wraps through the transport.
    {1, 4, 1, 4, 3, 6, 2, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Single block: degenerates to the in-process exchange.
    {4, 4, 1, 1, 4, 4, 1, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Zero border: no exchange at all, any decomposition.
    {4, 4, 2, 2, 3, 3, 0, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
    // Border equal to the subgrid dimension (the widest legal halo).
    {4, 4, 2, 2, 3, 3, 3, BoundaryKind::Circular, BoundaryKind::Circular,
     true},
};

class LocalTransportTest : public ::testing::TestWithParam<int> {};

TEST_P(LocalTransportTest, PartitionedExchangeMatchesWholeGrid) {
  const TransportCase &TC = TransportCases[GetParam()];
  SCOPED_TRACE("shards " + std::to_string(TC.ShardRows) + "x" +
               std::to_string(TC.ShardCols) + " border " +
               std::to_string(TC.Border) +
               (TC.Corners ? " corners" : " cornerless"));

  NodeGrid Grid(TC.NodeRows, TC.NodeCols);
  DistributedArray A(Grid, TC.SubRows, TC.SubCols);
  Array2D Global(A.globalRows(), A.globalCols());
  Global.fillRandom(0x5a4d + GetParam());
  A.scatter(Global);

  Expected<ShardGrid> SG =
      makeShardGrid(TC.NodeRows, TC.NodeCols, TC.ShardRows, TC.ShardCols);
  ASSERT_TRUE(SG);
  LocalTransport LT(*SG);

  // Each block runs the partitioned protocol over its own nodes in its
  // own thread.
  const int N = SG->count();
  std::vector<std::unique_ptr<DistributedArray>> Results(N);
  std::vector<std::string> Failures(N);
  std::vector<std::unique_ptr<HaloTransport>> Endpoints;
  for (int S = 0; S != N; ++S)
    Endpoints.push_back(LT.endpoint(S));
  onEveryBlock(N, [&](int S) {
    PartitionDomain D = shardDomain(*SG, S, TC.NodeRows, TC.NodeCols);
    Results[S] = blockOf(Global, D, TC.SubRows, TC.SubCols);
    if (Error E = exchangeHalosPartitioned(
            *Results[S], D, Endpoints[S].get(), /*SourceIndex=*/0, TC.Border,
            TC.B1, TC.B2, TC.Corners))
      Failures[S] = E.message();
  });

  for (int S = 0; S != N; ++S)
    ASSERT_EQ(Failures[S], "") << "shard " << S;

  for (int S = 0; S != N; ++S) {
    PartitionDomain D = shardDomain(*SG, S, TC.NodeRows, TC.NodeCols);
    ASSERT_EQ(Results[S]->grid().nodeCount(), D.localNodeCount());
    for (int LR = 0; LR != D.LocalRows; ++LR)
      for (int LC = 0; LC != D.LocalCols; ++LC) {
        const ConstSubgridView P = Results[S]->subgrid({LR, LC});
        Array2D Direct = buildPaddedSubgrid(
            A, {D.globalRow(LR), D.globalCol(LC)}, TC.Border, TC.B1, TC.B2,
            TC.Corners);
        std::string Where;
        EXPECT_TRUE(sameCells(P, Direct, TC.Border, &Where))
            << "shard " << S << " local node (" << LR << "," << LC
            << ") at " << Where;
        // The NaN poison of skipped corners survives the transport: a
        // cornerless exchange never ships the corner pads at all.
        if (!TC.Corners && TC.Border > 0) {
          EXPECT_TRUE(std::isnan(P.at(-TC.Border, -TC.Border)));
          EXPECT_TRUE(std::isnan(P.at(P.rows() + TC.Border - 1,
                                      P.cols() + TC.Border - 1)));
        }
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalTransportTest,
    ::testing::Range(0, static_cast<int>(std::size(TransportCases))));

TEST(LocalTransportTest, TwoArraysBackToBackShareOneTransport) {
  // A tiled run's exchange sequence: the source at k x r (SourceIndex
  // 0), then a coefficient array at (k - 1) x r (SourceIndex 1), through
  // the same transport, corners fetched. Each must land bitwise on the
  // whole-grid construction.
  const int NR = 4, NC = 4, Sub = 5, Radius = 1, K = 3;
  const int Borders[] = {K * Radius, (K - 1) * Radius};
  const BoundaryKind B1 = BoundaryKind::Zero, B2 = BoundaryKind::Circular;
  NodeGrid Grid(NR, NC);
  std::vector<std::unique_ptr<DistributedArray>> Whole;
  std::vector<Array2D> Globals;
  for (int I = 0; I != 2; ++I) {
    Whole.push_back(std::make_unique<DistributedArray>(Grid, Sub, Sub));
    Globals.emplace_back(NR * Sub, NC * Sub);
    Globals.back().fillRandom(0x7a11 + I);
    Whole.back()->scatter(Globals.back());
  }

  Expected<ShardGrid> SG = makeShardGrid(NR, NC, 2, 2);
  ASSERT_TRUE(SG);
  LocalTransport LT(*SG);
  const int N = SG->count();
  std::vector<std::unique_ptr<HaloTransport>> Endpoints;
  for (int S = 0; S != N; ++S)
    Endpoints.push_back(LT.endpoint(S));
  std::vector<std::vector<std::unique_ptr<DistributedArray>>> Blocks(N);
  std::vector<std::string> Failures(N);
  onEveryBlock(N, [&](int S) {
    PartitionDomain D = shardDomain(*SG, S, NR, NC);
    for (int I = 0; I != 2; ++I) {
      Blocks[S].push_back(blockOf(Globals[I], D, Sub, Sub));
      if (Error E = exchangeHalosPartitioned(*Blocks[S][I], D,
                                             Endpoints[S].get(), I,
                                             Borders[I], B1, B2, true)) {
        Failures[S] = E.message();
        return;
      }
    }
  });

  for (int S = 0; S != N; ++S) {
    ASSERT_EQ(Failures[S], "") << "shard " << S;
    PartitionDomain D = shardDomain(*SG, S, NR, NC);
    for (int I = 0; I != 2; ++I)
      for (int LR = 0; LR != D.LocalRows; ++LR)
        for (int LC = 0; LC != D.LocalCols; ++LC) {
          Array2D Direct = buildPaddedSubgrid(
              *Whole[I], {D.globalRow(LR), D.globalCol(LC)}, Borders[I], B1,
              B2, true);
          std::string Where;
          EXPECT_TRUE(sameCells(Blocks[S][I]->subgrid({LR, LC}), Direct,
                                Borders[I], &Where))
              << "array " << I << " shard " << S << " local node (" << LR
              << "," << LC << ") at " << Where;
        }
  }
}
