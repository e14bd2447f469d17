//===- perfbench/src/Heat.cpp - The heat_tiled workload -------*- C++ -*-===//
///
/// \file
/// heat_tiled: chained native runs of the heat_diffusion five-point
/// update (scalar coefficients, EOSHIFT zero boundaries) on 8x8 nodes at
/// 64x64 per node, with a fixed RunOptions::TimeTile = 4: one wide halo
/// exchange per four steps, redundant edge compute and wide scratch.
/// The depth is fixed rather than autotuned because the tuner's choice
/// would add its own noise.
///
/// The field starts as the slowest decaying modes plus noise, all
/// positive: the slowest mode loses about half its amplitude over a
/// 30-second run, which keeps every value far above the subnormal range.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Direct.h"
#include "backends/native/NativeBackend.h"
#include "support/StringUtils.h"
#include <cmath>

using namespace cmcc;

namespace perfbench {

namespace {

constexpr int SubgridEdge = 64;
constexpr int TileDepth = 4;
constexpr int WarmupCalls = 10;

/// The heat_diffusion example's statement at diffusion number 0.2.
std::string heatSource() {
  const double Alpha = 0.2;
  const std::string A = formatFixed(Alpha, 6);
  std::string S = "UNEXT = " + formatFixed(1.0 - 4.0 * Alpha, 6) + " * U";
  for (const char *Shift : {"1, -1", "1, +1", "2, -1", "2, +1"})
    S += " + " + A + " * EOSHIFT(U, " + Shift + ")";
  return S;
}

Array2D heatInput(uint64_t Seed, int Rows, int Cols) {
  Array2D Noise(Rows, Cols);
  fillUniform(Noise, Seed * 2 + 1, 0.0f, 0.5f);
  Array2D U(Rows, Cols);
  const double Pi = 3.14159265358979323846;
  for (int I = 0; I != Rows; ++I)
    for (int J = 0; J != Cols; ++J) {
      const double Y = Pi * (I + 1) / (Rows + 1), X = Pi * (J + 1) / (Cols + 1);
      U.at(I, J) = static_cast<float>(
          1.0 + std::sin(Y) * std::sin(X) + 0.25 * std::sin(2 * Y) * std::sin(X) +
          Noise.at(I, J));
    }
  return U;
}

} // namespace

void runHeatTiled(const RunConfig &Cfg, Result &R) {
  const MachineConfig M = MachineConfig::withNodeGrid(8, 8);
  const int Rows = M.NodeRows * SubgridEdge, Cols = M.NodeCols * SubgridEdge;
  const std::string Source = heatSource();
  std::unique_ptr<DirectState> S;
  std::vector<Array2D> Start;
  SetupTimer Setup(
      [&] {
        Start = {heatInput(Cfg.Seed, Rows, Cols)};
        S = makeDirectState(M, compileAssignmentOrDie(M, Source), {}, Start,
                            TileDepth);
        timedCalls(NativeBackend(M), *S, 0.0, WarmupCalls);
      },
      [&] {
        S.reset();
        Start.clear();
      });
  Setup.run(Cfg.Trace ? 1 : SetupsBefore);
  runDirect(Cfg, *S, Start, Source, R);
  if (!Cfg.Trace) {
    Setup.run(SetupsAfter);
    R.add("setup_s", Setup.median(), "s");
  }
}

} // namespace perfbench
