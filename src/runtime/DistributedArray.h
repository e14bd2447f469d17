//===- runtime/DistributedArray.h - Block-decomposed arrays ---*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A global array divided among the node grid exactly as Figure 1 of the
/// paper shows: nodes arranged in a 2-D grid, each containing an equal
/// rectangular subgrid of every array.
///
/// Each node's subgrid lives inside padded storage that owns its halo
/// margin, the way Devito allocates a Function together with its halo.
/// The margin starts at zero and grows on demand to the widest border
/// (k x radius) any exchange asks for; the §5.1 exchange
/// (runtime/HaloExchange.h) then writes the border bands straight into
/// it and every execution path reads sources from this one storage
/// layout — no per-run padded copy. Every margin cell the latest
/// exchange did not fill holds NaN: skipped corners and any margin
/// beyond that exchange's border, so a schedule that touches data it
/// did not fetch is caught by the tests.
///
/// The margin is a cache of neighbor data, not part of the array's
/// value, so a run exchanges even a const source array. A run holds
/// each array it reads under lockHalo() from its exchange to the end of
/// its compute, so runs that share an array never see each other's
/// borders or a storage regrow.
///
/// Also provides buildPaddedSubgrid, the direct global-torus
/// construction of one node's padded subgrid that the tests hold the
/// exchange protocol to.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_DISTRIBUTEDARRAY_H
#define CMCC_RUNTIME_DISTRIBUTEDARRAY_H

#include "cm2/NodeGrid.h"
#include "runtime/Array2D.h"
#include "stencil/StencilSpec.h"
#include <memory>
#include <mutex>
#include <string>

namespace cmcc {

class Error;
class HaloTransport;
struct PartitionDomain;

/// A global (SubRows*NodeRows) x (SubCols*NodeCols) array stored as one
/// padded subgrid per node.
class DistributedArray {
public:
  /// Zero-filled subgrids, no margin.
  DistributedArray(const NodeGrid &Grid, int SubRows, int SubCols);
  DistributedArray(DistributedArray &&) = default;
  DistributedArray &operator=(DistributedArray &&) = default;

  /// The array holding the globalRows() x globalCols() row-major floats
  /// at \p Global (any alignment, e.g. a grid inside a received frame).
  /// Each subgrid is written once, straight from \p Global, never
  /// zero-filled first.
  static std::unique_ptr<DistributedArray>
  fromGlobal(const NodeGrid &Grid, int SubRows, int SubCols,
             const void *Global);

  int subRows() const { return SubRows; }
  int subCols() const { return SubCols; }
  int globalRows() const { return SubRows * Grid.rows(); }
  int globalCols() const { return SubCols * Grid.cols(); }
  const NodeGrid &grid() const { return Grid; }

  /// The node's subgrid inside its padded storage, margin included.
  SubgridView subgrid(NodeCoord C);
  ConstSubgridView subgrid(NodeCoord C) const;

  /// Width of the halo margin around every subgrid.
  int margin() const { return Margin; }

  /// Scatters \p Global (must match the global shape).
  void scatter(const Array2D &Global);

  /// Gathers the subgrids back into one global array.
  Array2D gather() const;

  /// scatter() from globalRows() x globalCols() row-major floats at
  /// \p Global, which may have any alignment (a grid inside a received
  /// frame): one memcpy per subgrid row, the bits unchanged.
  void scatterFrom(const void *Global);

  /// gather() into globalRows() x globalCols() row-major floats at
  /// \p Global (any alignment), one memcpy per subgrid row.
  void gatherInto(void *Global) const;

  /// Global element access (for tests).
  float atGlobal(int R, int C) const;

  /// Renders the Figure-1 style block map, e.g. "A(1:64,1:64)" per node.
  std::string describeDecomposition(const std::string &Name) const;

  /// The lock a run holds on every array it reads, from its exchange to
  /// the end of its compute: an exchange rewrites the margin and may
  /// regrow the storage.
  std::unique_lock<std::mutex> lockHalo() const {
    return std::unique_lock<std::mutex>(*HaloMutex);
  }

private:
  enum class Init { Zero, None };
  DistributedArray(const NodeGrid &Grid, int SubRows, int SubCols, Init How);

  /// The exchange writes the margin of a const array: the margin is a
  /// cache of neighbor data, refreshed by every exchange.
  friend Error exchangeHalosPartitioned(const DistributedArray &,
                                        const PartitionDomain &,
                                        HaloTransport *, int, int,
                                        BoundaryKind, BoundaryKind, bool);

  /// Prepares the margin for an exchange at \p Border: grows it to at
  /// least \p Border, and NaN-fills it unless the cells this exchange
  /// fills cover every cell the previous one filled (so whatever the
  /// new exchange leaves alone is NaN).
  void prepareMargin(int Border, bool Corners) const;
  SubgridView writableSubgrid(int NodeId) const;
  size_t nodeFloats() const;

  NodeGrid Grid;
  int SubRows, SubCols;
  mutable int Margin = 0;
  /// The band the latest exchange filled: border width and corners.
  mutable int FilledBorder = 0;
  mutable bool FilledCorners = false;
  /// nodeCount() padded subgrids of nodeFloats() each, node-id order.
  mutable std::unique_ptr<float[]> Storage;
  std::unique_ptr<std::mutex> HaloMutex = std::make_unique<std::mutex>();
};

/// The halo exchange of §5.1, for one node: returns the node's subgrid
/// padded by \p Border on all four sides. Data comes from the global
/// torus (neighbor subgrids; wraparound at edges) with EOSHIFT
/// dimensions zero-filled outside the global array. When \p FetchCorners
/// is false the four Border x Border corner pads are filled with NaN.
Array2D buildPaddedSubgrid(const DistributedArray &A, NodeCoord Node,
                           int Border, BoundaryKind BoundaryDim1,
                           BoundaryKind BoundaryDim2, bool FetchCorners);

} // namespace cmcc

#endif // CMCC_RUNTIME_DISTRIBUTEDARRAY_H
