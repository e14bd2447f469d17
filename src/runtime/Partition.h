//===- runtime/Partition.h - Shard partitions of the node grid *- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partition seam: which rectangular block of the machine's node
/// grid one exchange covers. The paper's runtime decomposes a grid over
/// nodes inside one synchronous machine; the same decomposition split
/// into blocks runs the §5.1 protocol over each block's local nodes and
/// hands the block-edge traffic to a HaloTransport instead of reading a
/// neighbor's memory (runtime/HaloTransport.h). Every backend runs the
/// whole grid in one process; the split form is kept as the seam a
/// distributed executor would plug into, and its tests prove it
/// bitwise-equal to the whole-grid exchange.
///
/// A PartitionDomain describes the block: its offset and shape in node
/// coordinates plus the global grid shape. The whole-grid domain
/// degenerates exactly to the in-process exchange — local torus
/// wraparound *is* the global torus when the block spans the axis.
///
/// A ShardGrid is the factorization of the node grid into such blocks.
/// Both dimensions must be powers of two dividing the node-grid
/// dimensions (node grids are hypercube sub-dimensions, so the per-block
/// quotients stay powers of two).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_RUNTIME_PARTITION_H
#define CMCC_RUNTIME_PARTITION_H

#include "support/Error.h"

namespace cmcc {

/// The rectangular node-grid block one shard owns, in node coordinates.
/// Local node (r, c) is global node (NodeRowBegin + r, NodeColBegin + c).
struct PartitionDomain {
  int NodeRowBegin = 0;
  int NodeColBegin = 0;
  /// Shape of the owned block.
  int LocalRows = 0;
  int LocalCols = 0;
  /// Shape of the whole machine's node grid.
  int GlobalRows = 0;
  int GlobalCols = 0;

  /// True when the block is the whole grid (the unsharded case).
  bool wholeGrid() const { return spansAllRows() && spansAllCols(); }

  /// When the block spans an entire axis, that axis's exchange wraps
  /// locally (the local torus is the global torus) and needs no
  /// transport.
  bool spansAllRows() const { return LocalRows == GlobalRows; }
  bool spansAllCols() const { return LocalCols == GlobalCols; }

  int globalRow(int LocalRow) const { return NodeRowBegin + LocalRow; }
  int globalCol(int LocalCol) const { return NodeColBegin + LocalCol; }

  int localNodeCount() const { return LocalRows * LocalCols; }

  static PartitionDomain whole(int NodeRows, int NodeCols) {
    return {0, 0, NodeRows, NodeCols, NodeRows, NodeCols};
  }

  friend bool operator==(const PartitionDomain &A, const PartitionDomain &B) {
    return A.NodeRowBegin == B.NodeRowBegin &&
           A.NodeColBegin == B.NodeColBegin && A.LocalRows == B.LocalRows &&
           A.LocalCols == B.LocalCols && A.GlobalRows == B.GlobalRows &&
           A.GlobalCols == B.GlobalCols;
  }
};

/// The factorization of the node grid into ShardRows x ShardCols equal
/// blocks, shard ids row-major (the same numbering NodeGrid uses for
/// nodes).
struct ShardGrid {
  int Rows = 1;
  int Cols = 1;

  int count() const { return Rows * Cols; }
  int shardId(int R, int C) const { return R * Cols + C; }
  int rowOf(int Shard) const { return Shard / Cols; }
  int colOf(int Shard) const { return Shard % Cols; }

  /// Torus neighbors in the shard grid (block-level wraparound mirrors
  /// the node-level torus).
  int westOf(int Shard) const {
    return shardId(rowOf(Shard), (colOf(Shard) + Cols - 1) % Cols);
  }
  int eastOf(int Shard) const {
    return shardId(rowOf(Shard), (colOf(Shard) + 1) % Cols);
  }
  int northOf(int Shard) const {
    return shardId((rowOf(Shard) + Rows - 1) % Rows, colOf(Shard));
  }
  int southOf(int Shard) const {
    return shardId((rowOf(Shard) + 1) % Rows, colOf(Shard));
  }
};

/// Validates an explicit ShardRows x ShardCols decomposition of a
/// NodeRows x NodeCols grid: both shard dimensions must be powers of
/// two that divide the grid dimensions.
Expected<ShardGrid> makeShardGrid(int NodeRows, int NodeCols, int ShardRows,
                                  int ShardCols);

/// The node block shard \p Shard owns under \p SG.
PartitionDomain shardDomain(const ShardGrid &SG, int Shard, int NodeRows,
                            int NodeCols);

} // namespace cmcc

#endif // CMCC_RUNTIME_PARTITION_H
