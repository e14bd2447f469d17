//===- tests/runtime_test.cpp - Run-time library unit tests ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the run-time library pieces in isolation: arrays,
/// block decomposition, the §5.1 halo fill (boundaries, corner
/// poisoning), strip mining, and the reference evaluator.
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "backends/native/NativeBackend.h"
#include "core/Compiler.h"
#include "obs/Metrics.h"
#include "runtime/DistributedArray.h"
#include "runtime/HaloExchange.h"
#include "runtime/Reference.h"
#include "runtime/StripMiner.h"
#include "stencil/PatternLibrary.h"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <utility>
#include <vector>

using namespace cmcc;

//===----------------------------------------------------------------------===//
// Array2D
//===----------------------------------------------------------------------===//

TEST(Array2DTest, BasicAccess) {
  Array2D A(3, 4, 1.5f);
  EXPECT_EQ(A.rows(), 3);
  EXPECT_EQ(A.cols(), 4);
  EXPECT_EQ(A.at(2, 3), 1.5f);
  A.at(1, 2) = -2.0f;
  EXPECT_EQ(A.at(1, 2), -2.0f);
}

TEST(Array2DTest, WrappedAccess) {
  Array2D A(3, 3);
  A.at(0, 0) = 1.0f;
  A.at(2, 2) = 9.0f;
  EXPECT_EQ(A.atWrapped(-1, -1), 9.0f);
  EXPECT_EQ(A.atWrapped(3, 3), 1.0f);
  EXPECT_EQ(A.atWrapped(-3, 0), 1.0f);
}

TEST(Array2DTest, FillRandomDeterministic) {
  Array2D A(8, 8), B(8, 8);
  A.fillRandom(5);
  B.fillRandom(5);
  EXPECT_EQ(Array2D::maxAbsDifference(A, B), 0.0f);
  B.fillRandom(6);
  EXPECT_GT(Array2D::maxAbsDifference(A, B), 0.0f);
}

TEST(Array2DTest, MaxAbsDifferenceEdgeCases) {
  Array2D A(2, 2), B(3, 2);
  EXPECT_TRUE(std::isinf(Array2D::maxAbsDifference(A, B)));
  Array2D C(2, 2), D(2, 2);
  D.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isinf(Array2D::maxAbsDifference(C, D)));
}

//===----------------------------------------------------------------------===//
// DistributedArray
//===----------------------------------------------------------------------===//

TEST(DistributedArrayTest, ScatterGatherRoundTrip) {
  NodeGrid Grid(2, 4);
  DistributedArray A(Grid, 5, 3);
  Array2D Global(10, 12);
  Global.fillRandom(11);
  A.scatter(Global);
  EXPECT_EQ(Array2D::maxAbsDifference(A.gather(), Global), 0.0f);
}

TEST(DistributedArrayTest, GlobalAccessMatchesSubgrids) {
  NodeGrid Grid(2, 2);
  DistributedArray A(Grid, 4, 4);
  Array2D Global(8, 8);
  Global.fillRandom(3);
  A.scatter(Global);
  for (int R = 0; R != 8; ++R)
    for (int C = 0; C != 8; ++C)
      EXPECT_EQ(A.atGlobal(R, C), Global.at(R, C));
  EXPECT_EQ(A.subgrid({1, 1}).at(0, 0), Global.at(4, 4));
}

namespace {

uint32_t bitsOf(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}

/// Random values with signed zeros, denormals and NaNs of several
/// payloads (quiet and signalling) planted every 7th element: bit
/// patterns that an arithmetic copy would not keep.
Array2D patterned(int Rows, int Cols) {
  Array2D G(Rows, Cols);
  G.fillRandom(static_cast<uint64_t>(Rows) * 131 + Cols);
  const uint32_t Specials[] = {0x80000000u, 0x7fc00001u, 0xffc12345u,
                               0x7f800001u, 0xff8000ffu, 0x00000001u};
  for (int I = 0; I < Rows * Cols; I += 7)
    std::memcpy(G.data() + I, &Specials[(I / 7) % 6], sizeof(float));
  return G;
}

} // namespace

TEST(DistributedArrayTest, RowCopiesAreBitwiseOverNodeGridShapes) {
  // scatter/gather and their pointer forms copy whole subgrid rows; the
  // element-wise atGlobal is the reference, bit for bit. 3x5 subgrids
  // keep the rows odd-sized, and the pointer forms run at an odd address,
  // as a grid inside a received frame does.
  const std::pair<int, int> Shapes[] = {{4, 4}, {2, 8}, {1, 16}};
  for (const auto &[NodeRows, NodeCols] : Shapes) {
    SCOPED_TRACE(std::to_string(NodeRows) + "x" + std::to_string(NodeCols));
    const NodeGrid Grid(NodeRows, NodeCols);
    DistributedArray A(Grid, 3, 5);
    const Array2D Global = patterned(A.globalRows(), A.globalCols());
    const size_t Bytes = static_cast<size_t>(Global.rows()) * Global.cols() *
                         sizeof(float);
    auto ExpectHolds = [&](const DistributedArray &D) {
      for (int R = 0; R != Global.rows(); ++R)
        for (int C = 0; C != Global.cols(); ++C)
          ASSERT_EQ(bitsOf(D.atGlobal(R, C)), bitsOf(Global.at(R, C)))
              << "(" << R << "," << C << ")";
    };

    A.scatter(Global);
    ExpectHolds(A);
    const Array2D Back = A.gather();
    EXPECT_EQ(std::memcmp(Back.data(), Global.data(), Bytes), 0);

    std::vector<unsigned char> Frame(Bytes + 1);
    std::memcpy(Frame.data() + 1, Global.data(), Bytes);
    DistributedArray B(Grid, 3, 5);
    B.scatterFrom(Frame.data() + 1);
    ExpectHolds(B);
    std::vector<unsigned char> Out(Bytes + 3, 0xEE);
    B.gatherInto(Out.data() + 3);
    EXPECT_EQ(std::memcmp(Out.data() + 3, Global.data(), Bytes), 0);
    EXPECT_EQ(Out[0], 0xEE); // Nothing written before the destination.

    // The same rows, written straight into fresh storage.
    ExpectHolds(*DistributedArray::fromGlobal(Grid, 3, 5, Frame.data() + 1));

    // Row copies skip the margin once an exchange has grown one.
    exchangeHalosInPlace(B, 2, BoundaryKind::Circular, BoundaryKind::Zero,
                         true);
    ASSERT_EQ(B.margin(), 2);
    ExpectHolds(B);
    B.scatterFrom(Frame.data() + 1);
    ExpectHolds(B);
    std::fill(Out.begin(), Out.end(), 0xEE);
    B.gatherInto(Out.data() + 3);
    EXPECT_EQ(std::memcmp(Out.data() + 3, Global.data(), Bytes), 0);
  }
}

TEST(DistributedArrayTest, DecompositionMatchesFigure1) {
  NodeGrid Grid(4, 4);
  DistributedArray A(Grid, 64, 64);
  std::string Map = A.describeDecomposition("A");
  EXPECT_NE(Map.find("A(1:64,1:64)"), std::string::npos);
  EXPECT_NE(Map.find("A(65:128,129:192)"), std::string::npos);
  EXPECT_NE(Map.find("A(193:256,193:256)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Halo building (§5.1)
//===----------------------------------------------------------------------===//

namespace {

DistributedArray makeCounting(const NodeGrid &Grid, int Sub) {
  DistributedArray A(Grid, Sub, Sub);
  Array2D Global(A.globalRows(), A.globalCols());
  for (int R = 0; R != Global.rows(); ++R)
    for (int C = 0; C != Global.cols(); ++C)
      Global.at(R, C) = static_cast<float>(R * 1000 + C);
  A.scatter(Global);
  return A;
}

} // namespace

TEST(HaloTest, InteriorNodeGetsNeighborData) {
  NodeGrid Grid(4, 4);
  DistributedArray A = makeCounting(Grid, 8);
  Array2D P = buildPaddedSubgrid(A, {1, 1}, 2, BoundaryKind::Circular,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(P.rows(), 12);
  // Center of node (1,1) covers global rows 8..15, cols 8..15.
  EXPECT_EQ(P.at(2, 2), 8 * 1000 + 8);
  // One row above the subgrid: global row 7 (from the north neighbor).
  EXPECT_EQ(P.at(1, 2), 7 * 1000 + 8);
  // Corner: global (6, 6) from the diagonal neighbor.
  EXPECT_EQ(P.at(0, 0), 6 * 1000 + 6);
  // East pad: global col 16.
  EXPECT_EQ(P.at(2, 10), 8 * 1000 + 16);
}

TEST(HaloTest, CircularWrapAtGlobalEdges) {
  NodeGrid Grid(2, 2);
  DistributedArray A = makeCounting(Grid, 4);
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 1, BoundaryKind::Circular,
                                 BoundaryKind::Circular, true);
  // Above global row 0 wraps to global row 7.
  EXPECT_EQ(P.at(0, 1), 7 * 1000 + 0);
  // Left of global col 0 wraps to col 7.
  EXPECT_EQ(P.at(1, 0), 0 * 1000 + 7);
  // Corner wraps both.
  EXPECT_EQ(P.at(0, 0), 7 * 1000 + 7);
}

TEST(HaloTest, ZeroBoundaryPerDimension) {
  NodeGrid Grid(2, 2);
  DistributedArray A = makeCounting(Grid, 4);
  // Dim 1 zero, dim 2 circular.
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 1, BoundaryKind::Zero,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(P.at(0, 1), 0.0f);          // Above the global top: zero.
  EXPECT_EQ(P.at(1, 0), 0 * 1000 + 7);  // Left: circular wrap.
  EXPECT_EQ(P.at(0, 0), 0.0f);          // Corner: row side is outside.
  // The interior node's halo is neighbor data regardless of boundary.
  Array2D Q = buildPaddedSubgrid(A, {1, 0}, 1, BoundaryKind::Zero,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(Q.at(0, 1), 3 * 1000 + 0); // Global row 3 from node (0,0).
}

TEST(HaloTest, SkippedCornersArePoisoned) {
  NodeGrid Grid(2, 2);
  DistributedArray A = makeCounting(Grid, 4);
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 2, BoundaryKind::Circular,
                                 BoundaryKind::Circular,
                                 /*FetchCorners=*/false);
  EXPECT_TRUE(std::isnan(P.at(0, 0)));
  EXPECT_TRUE(std::isnan(P.at(1, 1)));
  EXPECT_TRUE(std::isnan(P.at(0, 7)));
  EXPECT_TRUE(std::isnan(P.at(7, 0)));
  EXPECT_TRUE(std::isnan(P.at(7, 7)));
  // Edges are still fetched.
  EXPECT_FALSE(std::isnan(P.at(0, 3)));
  EXPECT_FALSE(std::isnan(P.at(3, 0)));
}

TEST(HaloTest, SingleNodeMachineWrapsOntoItself) {
  NodeGrid Grid(1, 1);
  DistributedArray A = makeCounting(Grid, 4);
  Array2D P = buildPaddedSubgrid(A, {0, 0}, 1, BoundaryKind::Circular,
                                 BoundaryKind::Circular, true);
  EXPECT_EQ(P.at(0, 1), 3 * 1000 + 0); // Row above row 0 is row 3.
}

//===----------------------------------------------------------------------===//
// Pad-resident halo margins
//===----------------------------------------------------------------------===//

namespace {

/// Every margin cell of \p A inside the band an exchange at \p Border
/// fills (corners only when \p Corners) holds data; every other margin
/// cell holds NaN. The inputs are finite, so NaN marks exactly what the
/// exchange did not fetch.
void expectFilledBand(const DistributedArray &A, int Border, bool Corners) {
  const NodeGrid &Grid = A.grid();
  const int M = A.margin();
  long Wrong = 0;
  for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
    const ConstSubgridView V = A.subgrid(Grid.coordOf(Id));
    for (int R = -M; R != V.rows() + M; ++R)
      for (int C = -M; C != V.cols() + M; ++C) {
        const int DR = R < 0 ? -R : std::max(0, R - V.rows() + 1);
        const int DC = C < 0 ? -C : std::max(0, C - V.cols() + 1);
        if (DR == 0 && DC == 0)
          continue;
        const bool Filled = DR <= Border && DC <= Border &&
                            (Corners || DR == 0 || DC == 0);
        if (std::isnan(V.at(R, C)) == Filled && Wrong++ < 5)
          ADD_FAILURE() << "node " << Id << " margin cell (" << R << ","
                        << C << ") " << (Filled ? "unfilled" : "not NaN")
                        << " after a border-" << Border << " exchange";
      }
  }
  EXPECT_EQ(Wrong, 0);
}

CompiledStencil compileOrDie(const MachineConfig &Config,
                             const StencilSpec &Spec) {
  ConvolutionCompiler CC(Config);
  CC.setAllowMultipleSources(true);
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  EXPECT_TRUE(Compiled) << (Compiled ? "" : Compiled.error().message());
  return *Compiled;
}

/// Runs \p Compiled with \p Source bound as its source (any extra
/// sources and coefficient arrays are fresh, seeded deterministically)
/// and returns the gathered result.
Array2D runWithSource(ExecutionBackend &Backend,
                      const CompiledStencil &Compiled,
                      const DistributedArray &Source, int TimeTile) {
  const NodeGrid &Grid = Source.grid();
  DistributedArray Result(Grid, Source.subRows(), Source.subCols());
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  uint64_t Seed = 900;
  auto Fresh = [&] {
    Owned.push_back(std::make_unique<DistributedArray>(
        Grid, Source.subRows(), Source.subCols()));
    Array2D G(Source.globalRows(), Source.globalCols());
    G.fillRandom(Seed++);
    Owned.back()->scatter(G);
    return Owned.back().get();
  };
  StencilArguments Args;
  Args.Result = &Result;
  Args.Source = &Source;
  for (const std::string &Name : Compiled.Spec.ExtraSources)
    Args.ExtraSources[Name] = Fresh();
  for (const std::string &Name : Compiled.Spec.coefficientArrayNames())
    Args.Coefficients[Name] = Fresh();
  RunOptions RO;
  RO.TimeTile = TimeTile;
  Expected<TimingReport> Report = Backend.run(Compiled, Args, RO);
  EXPECT_TRUE(Report) << (Report ? "" : Report.error().message());
  return Result.gather();
}

} // namespace

TEST(PaddedArrayTest, MarginReuseMatchesFreshArrays) {
  // One source array carries its margin from run to run: a radius-2
  // k=4 run with corners grows it to 8, a radius-1 cornerless EOSHIFT
  // run and a k=1 run then exchange narrower bands into it. Each result
  // equals the same run on a fresh array, bit for bit, and after each
  // exchange every margin cell it did not fetch is NaN.
  const MachineConfig Config = MachineConfig::testMachine16();
  const NodeGrid Grid(Config);
  const int Sub = 8;
  Array2D Global(Grid.rows() * Sub, Grid.cols() * Sub);
  Global.fillRandom(77);
  struct Run {
    PatternId Pattern;
    BoundaryKind Boundary;
    int TimeTile, Border;
    bool Corners;
  };
  const Run Runs[] = {
      {PatternId::Diamond13, BoundaryKind::Circular, 4, 8, true},
      {PatternId::Cross5, BoundaryKind::Zero, 1, 1, false},
      {PatternId::Diamond13, BoundaryKind::Circular, 1, 2, true},
  };
  for (const char *Name : {"native", "cm2"}) {
    SCOPED_TRACE(Name);
    std::unique_ptr<ExecutionBackend> Backend = createBackend(Name, Config);
    ASSERT_NE(Backend, nullptr);
    DistributedArray Reused(Grid, Sub, Sub);
    Reused.scatter(Global);
    for (const Run &R : Runs) {
      SCOPED_TRACE(std::string(patternName(R.Pattern)) + " k=" +
                   std::to_string(R.TimeTile));
      StencilSpec Spec = makePattern(R.Pattern);
      Spec.BoundaryDim1 = Spec.BoundaryDim2 = R.Boundary;
      const CompiledStencil Compiled = compileOrDie(Config, Spec);
      DistributedArray Fresh(Grid, Sub, Sub);
      Fresh.scatter(Global);
      const Array2D Want =
          runWithSource(*Backend, Compiled, Fresh, R.TimeTile);
      const Array2D Got =
          runWithSource(*Backend, Compiled, Reused, R.TimeTile);
      ASSERT_EQ(Got.rows(), Want.rows());
      EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                            sizeof(float) * Got.rows() * Got.cols()),
                0);
      EXPECT_EQ(Reused.margin(), 8);
      expectFilledBand(Reused, R.Border, R.Corners);
      expectFilledBand(Fresh, R.Border, R.Corners);
      // The exchange never touches the array's own data.
      EXPECT_EQ(Array2D::maxAbsDifference(Reused.gather(), Global), 0.0f);
    }
  }
}

TEST(PaddedArrayTest, NativeUntiledRunFansOutOnce) {
  // The exchange runs in place on the caller, and each node's tap
  // streams are resolved before the compute pass: a k=1 native run's
  // only pool fan-out is that pass, for one source and for two.
  const MachineConfig Config = MachineConfig::testMachine16();
  StencilSpec OneSource = makePattern(PatternId::Cross5);
  StencilSpec TwoSources = OneSource;
  TwoSources.ExtraSources.push_back("Y");
  for (Tap &T : TwoSources.Taps)
    if (T.HasData && T.At.Dy == 0 && T.At.Dx == 0)
      T.SourceIndex = 1;
  ASSERT_EQ(TwoSources.sourceCount(), 2);
  obs::Counter &Loops =
      obs::Registry::process().counter("threadpool.loops_total");
  for (const StencilSpec *Spec : {&OneSource, &TwoSources}) {
    SCOPED_TRACE(std::to_string(Spec->sourceCount()) + " source(s)");
    const CompiledStencil Compiled = compileOrDie(Config, *Spec);
    for (int Threads : {1, 2}) {
      NativeBackend::Options Opts;
      Opts.ThreadCount = Threads;
      NativeBackend Native(Config, Opts);
      DistributedArray Source(NodeGrid(Config), 16, 16);
      const long Before = Loops.value();
      runWithSource(Native, Compiled, Source, 1);
      EXPECT_EQ(Loops.value() - Before, 1) << Threads << " thread(s)";
    }
  }
}

//===----------------------------------------------------------------------===//
// StripMiner (§5.2–5.3)
//===----------------------------------------------------------------------===//

TEST(StripMinerTest, PaperLength21Example) {
  // "a subgrid one of whose axes is of length 21 might be processed as
  // two strips of width 8, one strip of width 4, and one strip of
  // width 1".
  auto Strips = planStrips(21, {8, 4, 2, 1});
  ASSERT_EQ(Strips.size(), 4u);
  EXPECT_EQ(Strips[0].Width, 8);
  EXPECT_EQ(Strips[1].Width, 8);
  EXPECT_EQ(Strips[2].Width, 4);
  EXPECT_EQ(Strips[3].Width, 1);
  EXPECT_EQ(Strips[3].LeftCol, 20);
}

TEST(StripMinerTest, MissingWidth8FallsBack) {
  // "the run-time library routine would process the subgrid as five
  // strips of width 4 and a strip of width 1" (length 21, widths 4..1).
  auto Strips = planStrips(21, {4, 2, 1});
  ASSERT_EQ(Strips.size(), 6u);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Strips[I].Width, 4);
  EXPECT_EQ(Strips[5].Width, 1);
}

TEST(StripMinerTest, CoverageIsExactAndOrdered) {
  for (int Cols = 1; Cols <= 64; ++Cols) {
    auto Strips = planStrips(Cols, {8, 4, 2, 1});
    int Covered = 0;
    for (const Strip &S : Strips) {
      EXPECT_EQ(S.LeftCol, Covered);
      Covered += S.Width;
    }
    EXPECT_EQ(Covered, Cols);
  }
}

TEST(StripMinerTest, UncoverableReturnsEmpty) {
  EXPECT_TRUE(planStrips(7, {4, 2}).empty());
  EXPECT_FALSE(planStrips(6, {4, 2}).empty());
}

TEST(StripMinerTest, HalfStripsSplitRows) {
  auto Half = planHalfStrips({{0, 8}}, 21, true);
  ASSERT_EQ(Half.size(), 2u);
  EXPECT_EQ(Half[0].RowBegin, 0);
  EXPECT_EQ(Half[0].RowEnd, 10);
  EXPECT_EQ(Half[1].RowBegin, 10);
  EXPECT_EQ(Half[1].RowEnd, 21);
  EXPECT_EQ(Half[0].lines() + Half[1].lines(), 21);
}

TEST(StripMinerTest, FullStripsWhenDisabled) {
  auto Full = planHalfStrips({{0, 8}, {8, 4}}, 16, false);
  ASSERT_EQ(Full.size(), 2u);
  EXPECT_EQ(Full[0].lines(), 16);
}

TEST(StripMinerTest, SingleRowSubgridNotSplit) {
  auto Half = planHalfStrips({{0, 4}}, 1, true);
  ASSERT_EQ(Half.size(), 1u);
  EXPECT_EQ(Half[0].lines(), 1);
}

//===----------------------------------------------------------------------===//
// Reference evaluator
//===----------------------------------------------------------------------===//

TEST(ReferenceTest, IdentityStencil) {
  StencilSpec Spec = makeSpecFromOffsets({{0, 0}});
  Array2D X(4, 4);
  X.fillRandom(9);
  ReferenceBindings B;
  B.Source = &X;
  Array2D R = evaluateReference(Spec, B, 4, 4);
  EXPECT_EQ(Array2D::maxAbsDifference(R, X), 0.0f);
}

TEST(ReferenceTest, ShiftWrapsCircularly) {
  StencilSpec Spec = makeSpecFromOffsets({{-1, 0}});
  Array2D X(3, 1);
  X.at(0, 0) = 1;
  X.at(1, 0) = 2;
  X.at(2, 0) = 3;
  ReferenceBindings B;
  B.Source = &X;
  Array2D R = evaluateReference(Spec, B, 3, 1);
  EXPECT_EQ(R.at(0, 0), 3.0f); // Row -1 wraps to row 2.
  EXPECT_EQ(R.at(1, 0), 1.0f);
}

TEST(ReferenceTest, ZeroBoundary) {
  StencilSpec Spec = makeSpecFromOffsets({{-1, 0}});
  Spec.BoundaryDim1 = BoundaryKind::Zero;
  Array2D X(3, 1, 5.0f);
  ReferenceBindings B;
  B.Source = &X;
  Array2D R = evaluateReference(Spec, B, 3, 1);
  EXPECT_EQ(R.at(0, 0), 0.0f);
  EXPECT_EQ(R.at(1, 0), 5.0f);
}

TEST(ReferenceTest, SignsAndBareTerms) {
  // R = 2*X - C1  (C1 bare, subtracted).
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "X";
  Tap D;
  D.At = {0, 0};
  D.Coeff = Coefficient::scalar(2.0);
  Spec.Taps.push_back(D);
  Tap Bare;
  Bare.HasData = false;
  Bare.Coeff = Coefficient::array("C1");
  Bare.Sign = -1.0;
  Spec.Taps.push_back(Bare);

  Array2D X(2, 2, 3.0f), C1(2, 2, 1.0f);
  ReferenceBindings B;
  B.Source = &X;
  B.Coefficients["C1"] = &C1;
  Array2D R = evaluateReference(Spec, B, 2, 2);
  EXPECT_EQ(R.at(0, 0), 5.0f);
}
