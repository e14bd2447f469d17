//===- runtime/HaloExchange.h - The §5.1 exchange protocol ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocessor communication step of §5.1, implemented as the
/// protocol the paper describes rather than by global-index gathering,
/// writing straight into each subgrid's own halo margin
/// (runtime/DistributedArray.h):
///
///   1. the margin is made wide enough for the border (it grows on
///      demand, once, and keeps its NaN poison wherever this exchange
///      does not write);
///   2. data is exchanged with all four neighbors at once — the
///      West/East edge columns move first;
///   3. a second exchange moves the North/South edge rows *including
///      the just-received side pads*, so corner data reaches the
///      diagonal neighbor in two hops ("corner sections must be copied
///      to two neighbors (and, ultimately, to a diagonal neighbor as
///      well)"). For cornerless stencils this step ships only the core
///      columns and the corner pads are left poisoned (NaN), matching
///      the §5.1 optimization.
///
/// Every node performs the same steps simultaneously (the machine is
/// synchronous SIMD), so the protocol is computed for all nodes in one
/// call, on the calling thread: each step copies only border bands,
/// one row piece at a time, which is cheaper done in place than fanned
/// out. The result is bit-identical to the direct global-torus
/// construction in buildPaddedSubgrid — a property the tests enforce —
/// but the data really moves neighbor to neighbor here.
///
/// The protocol is written once, over a block of the node grid
/// (runtime/Partition.h): exchangeHalosPartitioned performs the steps
/// over the block's nodes and hands traffic crossing a split block edge
/// to a HaloTransport. exchangeHalosInPlace is that function over the
/// whole grid with no transport, the path every backend runs; the
/// partitioned form keeps the decomposition seam, and its LocalTransport
/// tests prove a split grid bitwise-equal to the whole one.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_HALOEXCHANGE_H
#define CMCC_RUNTIME_HALOEXCHANGE_H

#include "runtime/Backend.h"
#include "runtime/DistributedArray.h"
#include "runtime/HaloTransport.h"
#include "runtime/Partition.h"
#include "support/Error.h"
#include <mutex>
#include <vector>

namespace cmcc {

class ThreadPool;

/// Performs the three-step exchange for every node of \p A at once,
/// writing the border bands into A's margin (see the file comment).
/// The caller holds A.lockHalo() if other runs may exchange A
/// concurrently.
void exchangeHalosInPlace(const DistributedArray &A, int Border,
                          BoundaryKind BoundaryDim1,
                          BoundaryKind BoundaryDim2, bool FetchCorners);

/// The same protocol over one block of the node grid. \p A holds only
/// the local block (its grid shape must equal the domain's local
/// shape); axes the domain spans entirely wrap locally exactly as the
/// whole-grid exchange does, split axes pack their block edges and
/// exchange them through \p Transport (one WestEast call, then — when
/// the border is nonzero — one NorthSouth call, per source). \p
/// SourceIndex tags the transport calls so a multi-source job's
/// exchanges stay matched across blocks. Fails only when the transport
/// fails.
Error exchangeHalosPartitioned(const DistributedArray &A,
                               const PartitionDomain &Domain,
                               HaloTransport *Transport, int SourceIndex,
                               int Border, BoundaryKind BoundaryDim1,
                               BoundaryKind BoundaryDim2, bool FetchCorners);

/// exchangeHalosInPlace, then one padded copy per node, indexed by
/// NodeGrid::nodeId: the node's subgrid with \p Border cells of halo
/// on every side. Kept for callers that want the copies; no backend
/// uses it. \p Pool is accepted for compatibility and unused — the
/// exchange runs on the calling thread.
std::vector<Array2D> exchangeHalos(const DistributedArray &A, int Border,
                                   BoundaryKind BoundaryDim1,
                                   BoundaryKind BoundaryDim2,
                                   bool FetchCorners,
                                   ThreadPool *Pool = nullptr);

/// The halo exchanges of one run, in place, in the order every backend
/// makes them: each source at TimeTile x radius, then, for tiled runs,
/// each distinct coefficient array by name in first-appearance tap
/// order at (TimeTile - 1) x radius (intermediate pad cells multiply by
/// the *owner's* coefficients). A coefficient array that is also a
/// source keeps the source's wider border. Corners are fetched when the
/// stencil reads diagonal data, when \p AllowCornerSkip is off, and
/// always for tiled runs (intermediate side-pad values feed
/// corner-adjacent cells of later steps). Each exchange probes the
/// "halo.exchange" fault site first, so a failed run fails before its
/// compute writes anything. Holds the halo lock of every source and
/// coefficient array while alive: keep it until the compute that reads
/// them ends.
class RunHalos {
public:
  static Expected<RunHalos>
  exchange(const StencilSpec &Spec, const ResolvedStencilArguments &Resolved,
           int TimeTile, bool AllowCornerSkip);

private:
  std::vector<std::unique_lock<std::mutex>> Locks;
};

} // namespace cmcc

#endif // CMCC_RUNTIME_HALOEXCHANGE_H
