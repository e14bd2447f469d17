//===- runtime/HaloExchange.cpp -------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/HaloExchange.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include <algorithm>
#include <cstring>

using namespace cmcc;

void cmcc::exchangeHalosInPlace(const DistributedArray &A, int Border,
                                BoundaryKind BoundaryDim1,
                                BoundaryKind BoundaryDim2,
                                bool FetchCorners) {
  [[maybe_unused]] Error E = exchangeHalosPartitioned(
      A, PartitionDomain::whole(A.grid().rows(), A.grid().cols()),
      /*Transport=*/nullptr, /*SourceIndex=*/0, Border, BoundaryDim1,
      BoundaryDim2, FetchCorners);
  // The whole-grid domain never touches a transport, so the partitioned
  // protocol cannot fail here.
  assert(!E && "whole-grid halo exchange failed");
}

std::vector<Array2D> cmcc::exchangeHalos(const DistributedArray &A,
                                         int Border,
                                         BoundaryKind BoundaryDim1,
                                         BoundaryKind BoundaryDim2,
                                         bool FetchCorners, ThreadPool *) {
  const std::unique_lock<std::mutex> Lock = A.lockHalo();
  exchangeHalosInPlace(A, Border, BoundaryDim1, BoundaryDim2, FetchCorners);
  const NodeGrid &Grid = A.grid();
  const int Cols = A.subCols() + 2 * Border;
  std::vector<Array2D> Padded;
  Padded.reserve(Grid.nodeCount());
  for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
    Array2D P(A.subRows() + 2 * Border, Cols);
    const ConstSubgridView V = A.subgrid(Grid.coordOf(Id));
    for (int R = -Border; R != A.subRows() + Border; ++R)
      std::memcpy(P.view(Border).row(R) - Border, V.row(R) - Border,
                  static_cast<size_t>(Cols) * sizeof(float));
    Padded.push_back(std::move(P));
  }
  return Padded;
}

Error cmcc::exchangeHalosPartitioned(const DistributedArray &A,
                                     const PartitionDomain &Domain,
                                     HaloTransport *Transport,
                                     int SourceIndex, int Border,
                                     BoundaryKind BoundaryDim1,
                                     BoundaryKind BoundaryDim2,
                                     bool FetchCorners) {
  CMCC_SPAN("halo.exchange");
  static obs::Counter &Exchanges =
      obs::Registry::process().counter("halo.exchanges");
  Exchanges.add(1);
  const NodeGrid &Grid = A.grid();
  assert(Grid.rows() == Domain.LocalRows && Grid.cols() == Domain.LocalCols &&
         "array grid does not match the partition domain's local block");
  const int SR = A.subRows();
  const int SC = A.subCols();
  const int B = Border;
  assert(B >= 0 && B <= SR && B <= SC &&
         "border width exceeds the subgrid");

  // A split axis moves its block edges through the transport; an axis
  // the domain spans entirely wraps locally (the local torus is the
  // global torus there — the whole-grid domain reduces to the original
  // in-process protocol, transport never consulted).
  const bool RemoteWE = !Domain.spansAllCols();
  const bool RemoteNS = !Domain.spansAllRows();
  assert((!(RemoteWE || RemoteNS) || Transport) &&
         "split domain requires a transport");

  // Step 1: a margin wide enough, NaN wherever this exchange will not
  // write.
  A.prepareMargin(B, FetchCorners);
  if (B == 0)
    return Error::success();
  auto Sub = [&](NodeCoord C) { return A.writableSubgrid(Grid.nodeId(C)); };
  // One band row piece: B floats in step 2, ShipCols in step 3, from
  // a neighbor's row, from a transport block, or zeros across a Zero
  // (EOSHIFT) global edge.
  auto Put = [](float *Dst, const float *Src, int Count) {
    if (Src)
      std::memcpy(Dst, Src, static_cast<size_t>(Count) * sizeof(float));
    else
      std::fill_n(Dst, Count, 0.0f);
  };

  // Step 2: every node exchanges its edge columns with its West and
  // East neighbors simultaneously. On a split axis the block-edge
  // columns cross the transport: Low carries the west-edge nodes'
  // leftmost core columns, High the east-edge nodes' rightmost, one
  // SR x B row-major block per local node row.
  {
    CMCC_SPAN("halo.step2_we");
    HaloBlocks In;
    if (RemoteWE) {
      const size_t BlockFloats =
          static_cast<size_t>(Domain.LocalRows) * SR * B;
      HaloBlocks Out;
      Out.Low.resize(BlockFloats);
      Out.High.resize(BlockFloats);
      for (int LR = 0; LR != Domain.LocalRows; ++LR) {
        const SubgridView WestEdge = Sub({LR, 0});
        const SubgridView EastEdge = Sub({LR, Grid.cols() - 1});
        for (int R = 0; R != SR; ++R) {
          const size_t At = (static_cast<size_t>(LR) * SR + R) * B;
          Put(&Out.Low[At], WestEdge.row(R), B);
          Put(&Out.High[At], EastEdge.row(R) + SC - B, B);
        }
      }
      Expected<HaloBlocks> Got =
          Transport->exchange(SourceIndex, HaloStep::WestEast, Out);
      if (!Got)
        return Got.error();
      In = std::move(*Got);
      if (In.Low.size() != BlockFloats || In.High.size() != BlockFloats)
        return Error::transient(
            "halo transport returned a west/east block of the wrong size");
    }

    for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
      const NodeCoord Here = Grid.coordOf(Id);
      const SubgridView P = A.writableSubgrid(Id);
      const size_t InRow0 = static_cast<size_t>(Here.Row) * SR;

      // West pad <- west neighbor's rightmost core columns.
      const bool ZeroW = Domain.globalCol(Here.Col) == 0 &&
                         BoundaryDim2 == BoundaryKind::Zero;
      const bool FromInW = RemoteWE && Here.Col == 0;
      const SubgridView West = Sub(Grid.neighbor(Here, Direction::West));
      // East pad <- east neighbor's leftmost core columns.
      const bool ZeroE =
          Domain.globalCol(Here.Col) == Domain.GlobalCols - 1 &&
          BoundaryDim2 == BoundaryKind::Zero;
      const bool FromInE = RemoteWE && Here.Col == Grid.cols() - 1;
      const SubgridView East = Sub(Grid.neighbor(Here, Direction::East));
      for (int R = 0; R != SR; ++R) {
        Put(P.row(R) - B,
            ZeroW     ? nullptr
            : FromInW ? &In.Low[(InRow0 + R) * B]
                      : West.row(R) + SC - B,
            B);
        Put(P.row(R) + SC,
            ZeroE     ? nullptr
            : FromInE ? &In.High[(InRow0 + R) * B]
                      : East.row(R),
            B);
      }
    }
  }

  // Step 3: exchange edge rows with the North and South neighbors. The
  // shipped rows include the side pads received in step 2, so corner
  // data arrives from the diagonal neighbor in two hops — including
  // across block boundaries, where the side pads a block edge ships may
  // themselves have just crossed the transport. For cornerless stencils
  // only the core columns move and the corner pads stay poisoned
  // (§5.1's skipped third step) — on a split axis those columns never
  // enter the transport blocks at all. A node writes its own top and
  // bottom pad rows and reads its neighbors' *core* edge rows (B <= SR
  // keeps the two disjoint), so the order nodes go in does not matter.
  const int Col0 = FetchCorners ? -B : 0;
  const int ShipCols = FetchCorners ? SC + 2 * B : SC;
  {
    CMCC_SPAN("halo.step3_ns");
    HaloBlocks In;
    if (RemoteNS) {
      const size_t BlockFloats =
          static_cast<size_t>(Domain.LocalCols) * B * ShipCols;
      HaloBlocks Out;
      Out.Low.resize(BlockFloats);
      Out.High.resize(BlockFloats);
      for (int LC = 0; LC != Domain.LocalCols; ++LC) {
        const SubgridView NorthEdge = Sub({0, LC});
        const SubgridView SouthEdge = Sub({Grid.rows() - 1, LC});
        for (int R = 0; R != B; ++R) {
          const size_t At = (static_cast<size_t>(LC) * B + R) * ShipCols;
          Put(&Out.Low[At], NorthEdge.row(R) + Col0, ShipCols);
          Put(&Out.High[At], SouthEdge.row(SR - B + R) + Col0, ShipCols);
        }
      }
      Expected<HaloBlocks> Got =
          Transport->exchange(SourceIndex, HaloStep::NorthSouth, Out);
      if (!Got)
        return Got.error();
      In = std::move(*Got);
      if (In.Low.size() != BlockFloats || In.High.size() != BlockFloats)
        return Error::transient(
            "halo transport returned a north/south block of the wrong size");
    }

    for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
      const NodeCoord Here = Grid.coordOf(Id);
      const SubgridView P = A.writableSubgrid(Id);
      const size_t InRow0 = static_cast<size_t>(Here.Col) * B;

      // North pad <- north neighbor's bottommost core rows (with pads).
      const bool ZeroN = Domain.globalRow(Here.Row) == 0 &&
                         BoundaryDim1 == BoundaryKind::Zero;
      const bool FromInN = RemoteNS && Here.Row == 0;
      const SubgridView North = Sub(Grid.neighbor(Here, Direction::North));
      // South pad <- south neighbor's topmost core rows (with pads).
      const bool ZeroS =
          Domain.globalRow(Here.Row) == Domain.GlobalRows - 1 &&
          BoundaryDim1 == BoundaryKind::Zero;
      const bool FromInS = RemoteNS && Here.Row == Grid.rows() - 1;
      const SubgridView South = Sub(Grid.neighbor(Here, Direction::South));
      for (int R = 0; R != B; ++R) {
        Put(P.row(R - B) + Col0,
            ZeroN     ? nullptr
            : FromInN ? &In.Low[(InRow0 + R) * ShipCols]
                      : North.row(SR - B + R) + Col0,
            ShipCols);
        Put(P.row(SR + R) + Col0,
            ZeroS     ? nullptr
            : FromInS ? &In.High[(InRow0 + R) * ShipCols]
                      : South.row(R) + Col0,
            ShipCols);
      }
    }
  }
  return Error::success();
}

Expected<RunHalos>
RunHalos::exchange(const StencilSpec &Spec,
                   const ResolvedStencilArguments &Resolved, int TimeTile,
                   bool AllowCornerSkip) {
  const bool FetchCorners =
      TimeTile > 1 || Spec.needsCornerData() || !AllowCornerSkip;
  const int Radius = Spec.borderWidths().maximum();
  const int Border = TimeTile * Radius;
  const int CoeffBorder = (TimeTile - 1) * Radius;

  // (array, border) in exchange order.
  std::vector<std::pair<const DistributedArray *, int>> Plan;
  for (const DistributedArray *S : Resolved.Sources)
    Plan.push_back({S, Border});
  if (TimeTile > 1) {
    for (const std::string &Name : Spec.coefficientArrayNames()) {
      const DistributedArray *C = nullptr;
      for (size_t I = 0; I != Spec.Taps.size() && !C; ++I)
        if (Spec.Taps[I].Coeff.isArray() && Spec.Taps[I].Coeff.Name == Name)
          C = Resolved.TapCoefficients[I];
      assert(C && "coefficient name resolved to no array");
      // Re-exchanging a source at the narrower coefficient border would
      // poison the wider band the source's readers need.
      const bool IsSource =
          std::find(Resolved.Sources.begin(), Resolved.Sources.end(), C) !=
          Resolved.Sources.end();
      Plan.push_back({C, IsSource ? Border : CoeffBorder});
    }
  }

  // Lock every distinct array the run reads, exchanged or not (another
  // run's exchange may regrow its storage), once each and in address
  // order, so runs sharing arrays cannot deadlock.
  std::vector<const DistributedArray *> Arrays(Resolved.Sources);
  for (const DistributedArray *C : Resolved.TapCoefficients)
    if (C)
      Arrays.push_back(C);
  std::sort(Arrays.begin(), Arrays.end());
  Arrays.erase(std::unique(Arrays.begin(), Arrays.end()), Arrays.end());
  RunHalos Halos;
  for (const DistributedArray *A : Arrays)
    Halos.Locks.push_back(A->lockHalo());

  for (const auto &[A, B] : Plan) {
    // Probed per exchange step, not per run: any one of a run's
    // exchanges can be lost.
    if (fault::probe("halo.exchange"))
      return fault::injectedFault("halo.exchange");
    exchangeHalosInPlace(*A, B, Spec.BoundaryDim1, Spec.BoundaryDim2,
                         FetchCorners);
  }
  return Halos;
}
