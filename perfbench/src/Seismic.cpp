//===- perfbench/src/Seismic.cpp - The seismic workload -------*- C++ -*-===//
///
/// \file
/// seismic: chained native ExecutionBackend::run steps of
/// examples/stencils/seismic_fused.f90 — the paper's Gordon Bell update
/// with the multi-source extension — on the 4x4 test machine at
/// 256x256 per node, rotating R -> U -> UPREV every step. This is the
/// compute path, with two halo exchanges per step.
///
/// The coefficient fields are a stable fourth-order wave-equation
/// scheme, u' = 2u - u_prev + r * L4(u), with a seeded per-point
/// r = (c dt / h)^2 in [0.10, 0.25] (the scheme's limit is 0.375), so
/// the fields stay bounded and normal however long the run.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Direct.h"
#include "backends/native/NativeBackend.h"

using namespace cmcc;

namespace perfbench {

namespace {

constexpr int SubgridEdge = 256;
constexpr int WarmupSteps = 10;

void seismicInputs(uint64_t Seed, int Rows, int Cols,
                   std::map<std::string, Array2D> &Coeffs,
                   std::vector<Array2D> &Levels) {
  Array2D Speed(Rows, Cols);
  fillUniform(Speed, Seed * 2 + 1, 0.10f, 0.25f);
  // Taps of the file in order: U rows -2,-1; cols -2,-1; center; cols
  // +1,+2; rows +1,+2; then -C10 * UPREV.
  const float Far = -1.0f / 12.0f, Near = 16.0f / 12.0f;
  const float Weight[9] = {Far, Near, Far, Near, 0.0f, Near, Far, Near, Far};
  for (int C = 1; C <= 10; ++C) {
    Array2D A(Rows, Cols);
    for (int I = 0; I != Rows; ++I)
      for (int J = 0; J != Cols; ++J) {
        const float R = Speed.at(I, J);
        A.at(I, J) = C == 10 ? 1.0f : C == 5 ? 2.0f - 5.0f * R
                                             : Weight[C - 1] * R;
      }
    std::string Name = "C";
    Name += std::to_string(C);
    Coeffs.emplace(std::move(Name), std::move(A));
  }
  Array2D U(Rows, Cols);
  fillUniform(U, Seed * 2 + 2, -1.0f, 1.0f);
  Levels = {U, U}; // At rest: UPREV = U.
}

} // namespace

void runSeismic(const RunConfig &Cfg, Result &R) {
  const MachineConfig M = MachineConfig::testMachine16();
  const int Rows = M.NodeRows * SubgridEdge, Cols = M.NodeCols * SubgridEdge;
  const std::string Source =
      readRepoFile(Cfg, "examples/stencils/seismic_fused.f90");
  std::unique_ptr<DirectState> S;
  std::vector<Array2D> Start;
  SetupTimer Setup(
      [&] {
        std::map<std::string, Array2D> Coeffs;
        seismicInputs(Cfg.Seed, Rows, Cols, Coeffs, Start);
        S = makeDirectState(M, compileAssignmentOrDie(M, Source), Coeffs,
                            Start, 1);
        timedCalls(NativeBackend(M), *S, 0.0, WarmupSteps);
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
