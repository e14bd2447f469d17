//===- bench/bench_scaling.cpp - SIMD scaling sweeps ----------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment S1: the machine-scaling behavior underlying the paper's
/// extrapolation method.
///
///   * Scaled problem (per-node subgrid fixed): a synchronous SIMD
///     machine takes the *same* time regardless of node count, so the
///     rate grows exactly linearly — this is why "such extrapolations
///     are quite reliable".
///   * Fixed global problem (strong scaling): as nodes grow the per-node
///     subgrid shrinks, the per-line/strip/front-end overheads stop
///     amortizing, and the communication share grows — efficiency falls
///     off, quantifying §4.1's square-root argument from the other side.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace cmccbench;

namespace {

TimingReport runOn(const MachineConfig &Config, int SubRows, int SubCols) {
  CompiledStencil Compiled = compilePattern(Config, PatternId::Square9);
  Executor Exec(Config);
  return Exec.timeOnly(Compiled, SubRows, SubCols, 100);
}

void printScaledProblem() {
  TextTable T;
  T.setHeader({"nodes", "grid", "subgrid", "s/iter", "Gflops",
               "Gflops/node", "linearity"});
  double PerNode16 = 0.0;
  for (auto [NR, NC] : {std::pair{4, 4}, std::pair{8, 8}, std::pair{16, 16},
                        std::pair{32, 32}, std::pair{64, 32}}) {
    MachineConfig Config = MachineConfig::withNodeGrid(NR, NC);
    TimingReport R = runOn(Config, 128, 128);
    double PerNode = R.measuredGflops() / Config.nodeCount();
    if (PerNode16 == 0.0)
      PerNode16 = PerNode;
    T.addRow({std::to_string(Config.nodeCount()),
              std::to_string(NR) + "x" + std::to_string(NC), "128x128",
              formatFixed(R.secondsPerIteration(), 4),
              formatFixed(R.measuredGflops(), 2),
              formatFixed(PerNode * 1000, 2) + " Mf",
              formatFixed(PerNode / PerNode16, 4)});
  }
  std::printf("\n=== S1a: scaled problem (square9, 128x128 per node) ===\n"
              "\n%s\nThe synchronous machine's time per iteration is "
              "independent of node count, so the\nrate is exactly linear — "
              "the paper's extrapolation premise.\n",
              T.str().c_str());
}

void printStrongScaling() {
  TextTable T;
  T.setHeader({"nodes", "subgrid", "s/iter", "Gflops", "efficiency",
               "comm share", "host share"});
  const int Global = 512;
  double BaseRate = 0.0;
  int BaseNodes = 0;
  for (auto [NR, NC] : {std::pair{4, 4}, std::pair{8, 8}, std::pair{16, 16},
                        std::pair{32, 32}}) {
    MachineConfig Config = MachineConfig::withNodeGrid(NR, NC);
    int SubRows = Global / NR, SubCols = Global / NC;
    TimingReport R = runOn(Config, SubRows, SubCols);
    if (BaseRate == 0.0) {
      BaseRate = R.measuredGflops();
      BaseNodes = Config.nodeCount();
    }
    double Ideal = BaseRate * Config.nodeCount() / BaseNodes;
    double MachineSeconds = R.Cycles.total() / (Config.ClockMHz * 1e6);
    double CommShare = (R.Cycles.Communication / (Config.ClockMHz * 1e6)) /
                       R.secondsPerIteration();
    double HostShare = R.HostSecondsPerIteration / R.secondsPerIteration();
    (void)MachineSeconds;
    T.addRow({std::to_string(Config.nodeCount()),
              std::to_string(SubRows) + "x" + std::to_string(SubCols),
              formatFixed(R.secondsPerIteration(), 4),
              formatFixed(R.measuredGflops(), 2),
              formatFixed(R.measuredGflops() / Ideal, 3),
              formatFixed(100 * CommShare, 1) + "%",
              formatFixed(100 * HostShare, 1) + "%"});
  }
  std::printf("\n=== S1b: fixed 512x512 global problem (square9) ===\n"
              "\n%s\nShrinking subgrids stop amortizing the fixed "
              "overheads: the front-end share\nexplodes and efficiency "
              "collapses — why the paper measures large per-node\n"
              "subgrids and why its small machines are front-end bound.\n",
              T.str().c_str());
}

} // namespace

int main(int argc, char **argv) {
  for (auto [NR, NC] : {std::pair{4, 4}, std::pair{16, 16},
                        std::pair{64, 32}}) {
    MachineConfig Config = MachineConfig::withNodeGrid(NR, NC);
    registerSimulatedBenchmark("S1a/scaled/nodes:" +
                                   std::to_string(Config.nodeCount()),
                               runOn(Config, 128, 128));
  }
  for (auto [NR, NC] : {std::pair{4, 4}, std::pair{16, 16}}) {
    MachineConfig Config = MachineConfig::withNodeGrid(NR, NC);
    registerSimulatedBenchmark("S1b/strong/nodes:" +
                                   std::to_string(Config.nodeCount()),
                               runOn(Config, 512 / NR, 512 / NC));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printScaledProblem();
  printStrongScaling();
  return 0;
}
