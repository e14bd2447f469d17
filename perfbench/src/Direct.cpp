//===- perfbench/src/Direct.cpp -------------------------------*- C++ -*-===//

#include "Direct.h"
#include "Checks.h"
#include "Probes.h"
#include "Serve.h"
#include "backends/Registry.h"
#include "backends/native/NativeBackend.h"
#include "backends/njit/NjitBackend.h"
#include "runtime/HaloExchange.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace cmcc;

namespace perfbench {

StencilArguments DirectState::arguments() {
  StencilArguments Args;
  Args.Result = Result.get();
  Args.Source = History[0].get();
  for (size_t I = 0; I != Plan.Spec.ExtraSources.size(); ++I)
    Args.ExtraSources[Plan.Spec.ExtraSources[I]] = History[I + 1].get();
  for (const auto &[Name, A] : Coefficients)
    Args.Coefficients[Name] = A.get();
  return Args;
}

void DirectState::advance() {
  if (!Chained)
    return;
  std::unique_ptr<DistributedArray> Oldest = std::move(History.back());
  for (size_t I = History.size() - 1; I != 0; --I)
    History[I] = std::move(History[I - 1]);
  History[0] = std::move(Result);
  Result = std::move(Oldest);
}

double DirectState::flopsPerCall() const {
  return static_cast<double>(Plan.Spec.usefulFlopsPerPoint()) * SubRows *
         SubCols * Machine.nodeCount() * StepsPerCall;
}

std::vector<Array2D> DirectState::gatherHistory() const {
  std::vector<Array2D> Levels;
  for (const auto &A : History)
    Levels.push_back(A->gather());
  return Levels;
}

void DirectState::scatterHistory(const std::vector<Array2D> &Levels) {
  for (size_t I = 0; I != History.size(); ++I)
    History[I]->scatter(Levels[I]);
}

std::unique_ptr<DirectState>
makeDirectState(const MachineConfig &Machine, CompiledStencil Plan,
                const std::map<std::string, Array2D> &Coeffs,
                const std::vector<Array2D> &Levels, int StepsPerCall) {
  auto S = std::make_unique<DirectState>();
  S->Machine = Machine;
  S->Grid = std::make_unique<NodeGrid>(Machine);
  S->Plan = std::move(Plan);
  S->SubRows = Levels[0].rows() / Machine.NodeRows;
  S->SubCols = Levels[0].cols() / Machine.NodeCols;
  S->StepsPerCall = StepsPerCall;
  for (const std::string &Name : S->Plan.Spec.coefficientArrayNames())
    S->Coefficients[Name] = distribute(*S->Grid, Coeffs.at(Name));
  for (const Array2D &L : Levels)
    S->History.push_back(distribute(*S->Grid, L));
  S->Result =
      std::make_unique<DistributedArray>(*S->Grid, S->SubRows, S->SubCols);
  return S;
}

LoopSamples timedCalls(const ExecutionBackend &Backend, DirectState &S,
                       double Seconds, long MinCalls) {
  LoopSamples L;
  RunOptions RO;
  RO.TimeTile = S.StepsPerCall;
  const Clock::time_point Start = Clock::now();
  while (L.Calls < MinCalls || secondsSince(Start) < Seconds) {
    StencilArguments Args = S.arguments();
    const Clock::time_point T0 = Clock::now();
    Expected<TimingReport> Report = Backend.run(S.Plan, Args, RO);
    const Clock::time_point T1 = Clock::now();
    ++L.Calls;
    if (!Report) {
      ++L.Failed;
      continue;
    }
    S.advance();
    L.CallMs.push_back(msBetween(T0, T1));
    L.DoneAt.push_back(std::chrono::duration<double>(T1 - Start).count());
  }
  L.WallSeconds = secondsSince(Start);
  return L;
}

namespace {

/// Computed bytes one exchangeHalos moves for \p A at \p Border: the
/// subgrid copied into its pad (read + write) and every halo cell read
/// from a neighbor and written.
double haloBytes(const DistributedArray &A, int Border, bool Corners) {
  const double Rows = A.subRows(), Cols = A.subCols();
  double HaloCells = 2.0 * Border * (Rows + Cols);
  if (Corners)
    HaloCells += 4.0 * Border * Border;
  return 4.0 * A.grid().nodeCount() * (2.0 * Rows * Cols + 2.0 * HaloCells);
}

} // namespace

DirectLayers measureDirectLayers(DirectState &S, double Seconds,
                                 const std::string &NjitDir) {
  DirectLayers L;
  const double Phase = Seconds / 4;
  const int K = S.StepsPerCall;
  const NativeBackend Native(S.Machine);

  // Untraced: the same loop the end-to-end run times.
  LoopSamples Plain = timedCalls(Native, S, Phase, 20);
  L.UntracedStepMs = median(Plain.CallMs) / K;
  L.Calls += Plain.Calls;
  L.Failed += Plain.Failed;

  // Traced: each call's exchanges timed through runtime's public
  // exchangeHalos with the backend's own border and corner rules, then
  // the backend call itself.
  const StencilSpec &Spec = S.Plan.Spec;
  const int Radius = Spec.borderWidths().maximum();
  const int Border = K * Radius;
  const bool Corners = K > 1 || Spec.needsCornerData();
  std::vector<double> HaloMs, RunMs, StepMs;
  RunOptions RO;
  RO.TimeTile = K;
  const Clock::time_point Start = Clock::now();
  while (RunMs.size() < 20 || secondsSince(Start) < Phase) {
    StencilArguments Args = S.arguments();
    std::vector<const DistributedArray *> Exchanged = {Args.Source};
    for (const std::string &Name : Spec.ExtraSources)
      Exchanged.push_back(Args.ExtraSources[Name]);
    const Clock::time_point H0 = Clock::now();
    double Bytes = 0.0;
    for (const DistributedArray *A : Exchanged) {
      std::vector<Array2D> Padded =
          exchangeHalos(*A, Border, Spec.BoundaryDim1, Spec.BoundaryDim2,
                        Corners, &ThreadPool::shared());
      Bytes += haloBytes(*A, Border, Corners);
    }
    if (K > 1)
      for (const auto &[Name, A] : S.Coefficients) {
        std::vector<Array2D> Padded =
            exchangeHalos(*A, (K - 1) * Radius, Spec.BoundaryDim1,
                          Spec.BoundaryDim2, true, &ThreadPool::shared());
        Bytes += haloBytes(*A, (K - 1) * Radius, true);
      }
    const Clock::time_point R0 = Clock::now();
    Expected<TimingReport> Report = Native.run(S.Plan, Args, RO);
    const Clock::time_point R1 = Clock::now();
    ++L.Calls;
    if (!Report) {
      ++L.Failed;
      continue;
    }
    S.advance();
    const Clock::time_point R2 = Clock::now();
    HaloMs.push_back(msBetween(H0, R0));
    RunMs.push_back(msBetween(R0, R1));
    StepMs.push_back(msBetween(R0, R2));
    L.HaloBytes = Bytes;
  }
  L.HaloMs = median(HaloMs);
  L.RunMs = median(RunMs);
  L.StepMs = median(StepMs) / K;
  L.ComputeMs = L.RunMs - L.HaloMs;

  // The pool's contribution: the same loop on a private one-thread pool.
  NativeBackend::Options One;
  One.ThreadCount = 1;
  LoopSamples Serial = timedCalls(NativeBackend(S.Machine, One), S, Phase, 10);
  L.Pool1StepMs = median(Serial.CallMs) / K;
  L.Calls += Serial.Calls;
  L.Failed += Serial.Failed;

  // njit: same plan and inputs must give the native bits; then the loop.
  if (isBackendAvailable("njit")) {
    NjitBackend::Options JOpts;
    JOpts.CacheDir = NjitDir;
    const NjitBackend Njit(S.Machine, JOpts);
    StencilArguments Args = S.arguments();
    Expected<TimingReport> A = Native.run(S.Plan, Args, RO);
    const Array2D NativeBits = S.Result->gather();
    Expected<TimingReport> B = Njit.run(S.Plan, Args, RO);
    L.NjitBitwise = A && B && bitwiseEqual(NativeBits, S.Result->gather());
    LoopSamples J = timedCalls(Njit, S, Phase, 10);
    L.NjitRunMs = median(J.CallMs) / K;
    L.Calls += J.Calls + 2;
    L.Failed += J.Failed + (A ? 0 : 1) + (B ? 0 : 1);
  }
  return L;
}

void reportDirectLayers(const DirectState &S, const DirectLayers &L,
                        double KernelGflopsN, Result &R) {
  const int K = S.StepsPerCall;
  const double ComputeGflops =
      L.ComputeMs > 0 ? S.flopsPerCall() / (L.ComputeMs * 1e-3) / 1e9 : 0.0;
  R.add("runtime.halo_ms", L.HaloMs / K, "ms");
  R.add("runtime.halo_gbps", L.HaloBytes / (L.HaloMs * 1e-3) / 1e9, "GB/s");
  R.add("backends.native.run_ms", L.RunMs / K, "ms");
  R.add("backends.native.compute_ms", L.ComputeMs / K, "ms");
  R.add("backends.native.pct_roofline",
        KernelGflopsN > 0 ? 100.0 * ComputeGflops / KernelGflopsN : 0.0, "%");
  R.add("support.threadpool.speedup", L.Pool1StepMs / L.UntracedStepMs, "x");
  R.add("backends.njit.run_ms", L.NjitRunMs, "ms");
  R.add("backends.njit.vs_native",
        L.NjitRunMs > 0 ? L.UntracedStepMs / L.NjitRunMs : 0.0, "x");

  heading("layer table: one timestep (traced, medians, ms)");
  std::printf("  step (traced call / %d)          %9.4f\n", K, L.StepMs);
  std::printf("    backends.native.run            %9.4f\n", L.RunMs / K);
  std::printf("      runtime.halo (exchangeHalos) %9.4f   %.2f GB/s computed\n",
              L.HaloMs / K, L.HaloBytes / (L.HaloMs * 1e-3) / 1e9);
  std::printf("      compute (derived: run-halo)  %9.4f   %.2f Gflops, %.1f%% "
              "of kernel roofline %.2f\n",
              L.ComputeMs / K, ComputeGflops,
              KernelGflopsN > 0 ? 100.0 * ComputeGflops / KernelGflopsN : 0.0,
              KernelGflopsN);
  std::printf("    remainder (step - run)         %9.4f\n",
              L.StepMs - L.RunMs / K);
  std::printf("  untraced step                    %9.4f   trace overhead "
              "%+.2f%%\n",
              L.UntracedStepMs,
              100.0 * (L.StepMs - L.UntracedStepMs) / L.UntracedStepMs);
  std::printf("  one-thread pool step             %9.4f   speedup %.2fx\n",
              L.Pool1StepMs, L.Pool1StepMs / L.UntracedStepMs);
  if (L.NjitRunMs > 0)
    std::printf("  njit step                        %9.4f   vs native %.2fx, "
                "bitwise %s\n",
                L.NjitRunMs, L.UntracedStepMs / L.NjitRunMs,
                L.NjitBitwise ? "equal" : "DIFFERENT");
  else
    std::printf("  njit                             unavailable\n");
}

namespace {

/// Output checks of a chained workload, outside any timed window: from
/// \p Start (global time levels), \p Steps single-step native calls each
/// within the reference contract, and — when \p S.StepsPerCall > 1 —
/// one tiled call bitwise equal to the same steps run one by one.
bool checkChainedPrefix(DirectState &S, const std::vector<Array2D> &Start,
                        int Steps, std::string &Why) {
  const std::vector<Array2D> Saved = S.gatherHistory();
  const int K = S.StepsPerCall;
  const NativeBackend Native(S.Machine);
  std::map<std::string, Array2D> CoeffGlobals;
  for (const auto &[Name, A] : S.Coefficients)
    CoeffGlobals.emplace(Name, A->gather());

  bool Ok = true;
  S.scatterHistory(Start);
  S.StepsPerCall = 1;
  Array2D AfterK;
  for (int Step = 1; Ok && Step <= Steps; ++Step) {
    const std::vector<Array2D> In = S.gatherHistory();
    StencilArguments Args = S.arguments();
    if (!Native.run(S.Plan, Args, 1)) {
      Why = "native step " + std::to_string(Step) + " failed";
      Ok = false;
      break;
    }
    const Array2D Got = S.Result->gather();
    ReferenceBindings B;
    B.Source = &In[0];
    for (size_t I = 0; I != S.Plan.Spec.ExtraSources.size(); ++I)
      B.ExtraSources[S.Plan.Spec.ExtraSources[I]] = &In[I + 1];
    for (const auto &[Name, A] : CoeffGlobals)
      B.Coefficients[Name] = &A;
    if (!matchesReference(S.Plan.Spec, B, Got, Why)) {
      Why = "step " + std::to_string(Step) + ": " + Why;
      Ok = false;
    }
    if (Step == K)
      AfterK = Got;
    S.advance();
  }
  S.StepsPerCall = K;
  if (Ok && K > 1 && Steps >= K) {
    S.scatterHistory(Start);
    StencilArguments Args = S.arguments();
    RunOptions RO;
    RO.TimeTile = K;
    if (!Native.run(S.Plan, Args, RO) ||
        !bitwiseEqual(S.Result->gather(), AfterK)) {
      Why = "tiled call (k=" + std::to_string(K) +
            ") differs from the same steps run one by one";
      Ok = false;
    }
  }
  S.scatterHistory(Saved);
  return Ok;
}

} // namespace

CompiledStencil compileAssignmentOrDie(const MachineConfig &M,
                                       const std::string &Source) {
  ConvolutionCompiler CC(M);
  CC.setAllowMultipleSources(true);
  DiagnosticEngine Diags;
  std::optional<CompiledStencil> Plan = CC.compileAssignment(Source, Diags);
  if (!Plan) {
    std::fprintf(stderr, "perfbench: stencil failed to compile:\n%s",
                 Diags.str().c_str());
    std::exit(3);
  }
  return std::move(*Plan);
}

} // namespace perfbench

namespace perfbench {

namespace {

/// Final fields must be finite and normal: a decaying or overflowing
/// field would make the timings depend on the data.
void checkFields(const DirectState &S, Result &R) {
  std::string Why;
  for (const Array2D &A : S.gatherHistory())
    if (!finiteAndNormal(A, Why)) {
      R.fail("final field: " + Why);
      return;
    }
}

void checkPrefix(DirectState &S, const std::vector<Array2D> &Start,
                 Result &R) {
  std::string Why;
  if (!checkChainedPrefix(S, Start, std::max(3, S.StepsPerCall), Why))
    R.fail("chained prefix: " + Why);
}

} // namespace

double timeTileSpeedup(DirectState &S, double Seconds, long &Calls,
                       long &Failed) {
  const int K = S.StepsPerCall;
  if (K == 1)
    return 1.0;
  const NativeBackend Native(S.Machine);
  S.StepsPerCall = 1;
  LoopSamples One = timedCalls(Native, S, Seconds / 2, 20);
  S.StepsPerCall = K;
  LoopSamples Tiled = timedCalls(Native, S, Seconds / 2, 20);
  Calls += One.Calls + Tiled.Calls;
  Failed += One.Failed + Tiled.Failed;
  return median(One.CallMs) / (median(Tiled.CallMs) / K);
}

void runDirect(const RunConfig &Cfg, DirectState &S,
               const std::vector<Array2D> &Start, const std::string &Source,
               Result &R) {
  const int K = S.StepsPerCall;
  if (!Cfg.Trace) {
    const NativeBackend Native(S.Machine);
    // At least 100 steps, and 1000 calls so that ten lie beyond p99.
    const LoopSamples L =
        timedCalls(Native, S, Cfg.Seconds, std::max(1000, (100 + K - 1) / K));
    const double RssMiB = peakRssMiB();
    R.attempted(L.Calls);
    R.failedOps(L.Failed);
    std::vector<TimedOp> Ops;
    for (size_t I = 0; I != L.CallMs.size(); ++I)
      Ops.push_back({L.DoneAt[I], L.CallMs[I], L.CallMs[I] / K,
                     S.flopsPerCall()});
    std::printf("%ld calls x %d steps in %.3f s\n", L.Calls, K,
                L.WallSeconds);
    reportTimed(Ops, L.WallSeconds, R);
    R.add("peak_rss_mib", RssMiB, "MiB");
    checkFields(S, R);
    checkPrefix(S, Start, R);
    return;
  }

  const Roofline Host = measureRoofline(2.0);
  const DirectLayers L =
      measureDirectLayers(S, Cfg.Seconds * 0.6, Cfg.Scratch + "/njit");
  R.attempted(L.Calls);
  R.failedOps(L.Failed);
  if (!L.NjitBitwise)
    R.fail("njit result differs from native bitwise");
  reportDirectLayers(S, L, Host.KernelGflopsN, R);
  R.add("obs.trace_overhead_pct",
        100.0 * (L.StepMs - L.UntracedStepMs) / L.UntracedStepMs, "%");
  long Calls = 0, Failed = 0;
  R.add("runtime.timetile.speedup",
        timeTileSpeedup(S, Cfg.Seconds * 0.2, Calls, Failed), "x");
  R.attempted(Calls);
  R.failedOps(Failed);
  checkFields(S, R);
  checkPrefix(S, Start, R);
  probeServeLayers(S.Machine, Source, Cfg, Cfg.Seconds * 0.2, R);
  reportRoofline(Host, R);
}

} // namespace perfbench
