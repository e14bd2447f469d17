//===- runtime/Partition.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Partition.h"
#include <cassert>
#include <string>

using namespace cmcc;

namespace {

bool isPowerOfTwo(int V) { return V > 0 && (V & (V - 1)) == 0; }

} // namespace

Expected<ShardGrid> cmcc::makeShardGrid(int NodeRows, int NodeCols,
                                        int ShardRows, int ShardCols) {
  if (!isPowerOfTwo(ShardRows) || !isPowerOfTwo(ShardCols))
    return makeError("shard grid " + std::to_string(ShardRows) + "x" +
                     std::to_string(ShardCols) +
                     " must have power-of-two dimensions (shard blocks are "
                     "hypercube sub-grids)");
  if (ShardRows > NodeRows || ShardCols > NodeCols)
    return makeError("shard grid " + std::to_string(ShardRows) + "x" +
                     std::to_string(ShardCols) + " exceeds the " +
                     std::to_string(NodeRows) + "x" +
                     std::to_string(NodeCols) + " node grid");
  // Power-of-two dims of a power-of-two grid always divide evenly, but
  // the grid could in principle be configured oddly; check explicitly.
  if (NodeRows % ShardRows != 0 || NodeCols % ShardCols != 0)
    return makeError("shard grid " + std::to_string(ShardRows) + "x" +
                     std::to_string(ShardCols) +
                     " does not divide the node grid evenly");
  return ShardGrid{ShardRows, ShardCols};
}

PartitionDomain cmcc::shardDomain(const ShardGrid &SG, int Shard, int NodeRows,
                                  int NodeCols) {
  assert(Shard >= 0 && Shard < SG.count() && "shard id out of range");
  assert(NodeRows % SG.Rows == 0 && NodeCols % SG.Cols == 0 &&
         "shard grid does not divide the node grid");
  PartitionDomain D;
  D.LocalRows = NodeRows / SG.Rows;
  D.LocalCols = NodeCols / SG.Cols;
  D.NodeRowBegin = SG.rowOf(Shard) * D.LocalRows;
  D.NodeColBegin = SG.colOf(Shard) * D.LocalCols;
  D.GlobalRows = NodeRows;
  D.GlobalCols = NodeCols;
  return D;
}
