//===- perfbench/src/Probes.cpp -------------------------------*- C++ -*-===//

#include "Probes.h"
#include "Common.h"
#include "backends/cm2/Cm2Backend.h"
#include "core/Compiler.h"
#include "stencil/PatternLibrary.h"
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

using namespace cmcc;

namespace perfbench {

namespace {

/// One results-table row (PLDI 1991 §7) and the simulated Mflops the
/// cm2 model produced for it when this benchmark was defined.
struct FrozenRow {
  PatternId Pattern;
  int SubRows, SubCols, Nodes, Iterations;
  double Mflops;
};

const FrozenRow FrozenRows[] = {
    {PatternId::Cross5, 64, 128, 16, 250, 54.715381862998449},
    {PatternId::Cross5, 128, 256, 16, 100, 67.573114896298335},
    {PatternId::Cross5, 256, 256, 16, 100, 71.320456984429626},
    {PatternId::Square9, 64, 64, 16, 500, 66.200227492657419},
    {PatternId::Square9, 64, 128, 16, 250, 76.573526957102331},
    {PatternId::Square9, 128, 128, 16, 250, 85.352478617512034},
    {PatternId::Square9, 128, 256, 16, 100, 89.2495744248656},
    {PatternId::Square9, 256, 256, 16, 100, 92.689425666791962},
    {PatternId::Cross9R2, 64, 64, 16, 500, 57.927534724801312},
    {PatternId::Cross9R2, 64, 128, 16, 250, 65.706616339907825},
    {PatternId::Cross9R2, 128, 128, 16, 250, 73.683611815781148},
    {PatternId::Cross9R2, 128, 256, 16, 100, 76.566197134701426},
    {PatternId::Cross9R2, 256, 256, 16, 100, 80.056191785005339},
    {PatternId::Diamond13, 64, 64, 16, 500, 71.126105453778706},
    {PatternId::Diamond13, 64, 128, 16, 250, 78.978067004097369},
    {PatternId::Diamond13, 128, 128, 16, 250, 86.748482499101783},
    {PatternId::Diamond13, 128, 256, 16, 100, 89.460392863480607},
    {PatternId::Diamond13, 256, 256, 16, 100, 92.7207223594921},
    {PatternId::Diamond13, 128, 256, 2048, 100, 11450.930286525518},
    {PatternId::Diamond13, 256, 256, 2048, 100, 11868.252462014989},
};

} // namespace

int checkFrozenCm2(int &Rows, std::string &Why) {
  int Bad = 0;
  Rows = 0;
  for (const FrozenRow &Row : FrozenRows) {
    const MachineConfig Config = Row.Nodes == 16
                                     ? MachineConfig::testMachine16()
                                     : MachineConfig::fullMachine2048();
    Expected<CompiledStencil> Plan =
        ConvolutionCompiler(Config).compile(makePattern(Row.Pattern));
    double Mflops = -1.0;
    if (Plan) {
      Expected<TimingReport> Report = Cm2Backend(Config).timeOnly(
          *Plan, Row.SubRows, Row.SubCols, Row.Iterations);
      if (Report)
        Mflops = Report->measuredMflops();
    }
    ++Rows;
    if (Mflops == Row.Mflops)
      continue;
    std::printf("cm2 row %s %dx%d on %d nodes: %.17g Mflops, frozen %.17g\n",
                patternName(Row.Pattern), Row.SubRows, Row.SubCols, Row.Nodes,
                Mflops, Row.Mflops);
    if (Bad++ == 0)
      Why = std::string("cm2 simulated Mflops moved for ") +
            patternName(Row.Pattern) + " " + std::to_string(Row.SubRows) +
            "x" + std::to_string(Row.SubCols) + " on " +
            std::to_string(Row.Nodes) + " nodes";
  }
  return Bad;
}

void reportRoofline(const Roofline &Host, Result &R) {
  heading("host roofline");
  std::printf("  stream copy %.2f GB/s (read + write, %d threads), each "
              "array %.0f MiB vs last-level cache %.0f MiB\n",
              Host.CopyGBps, Host.Threads, Host.CopyArrayMiB, Host.LlcMiB);
  std::printf("  taps-outer kernel loop: %.2f Gflops on 1 core, %.2f on %d\n",
              Host.KernelGflops1, Host.KernelGflopsN, Host.Threads);
  R.add("host.copy_gbps", Host.CopyGBps, "GB/s");
  R.add("host.kernel_gflops_1", Host.KernelGflops1, "Gflop/s");
  R.add("host.kernel_gflops_n", Host.KernelGflopsN, "Gflop/s");
}

Roofline measureRoofline(double Seconds) {
  Roofline R;
  R.Threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const long Llc = lastLevelCacheBytes();
  R.LlcMiB = static_cast<double>(Llc) / (1024.0 * 1024.0);
  // Each copy array is at least four times the last-level cache, so the
  // copy streams from memory rather than cache.
  const size_t Bytes = copyArrayBytes();
  R.CopyArrayMiB = static_cast<double>(Bytes) / (1024.0 * 1024.0);
  {
    const size_t N = Bytes / sizeof(float);
    std::unique_ptr<float[]> Src(new float[N]), Dst(new float[N]);
    const size_t Chunk = (N + R.Threads - 1) / R.Threads;
    auto Parallel = [&](auto Body) {
      std::vector<std::thread> Pool;
      for (int T = 0; T != R.Threads; ++T)
        Pool.emplace_back([&, T] {
          const size_t Begin = std::min(N, Chunk * T);
          Body(Begin, std::min(N, Begin + Chunk));
        });
      for (std::thread &T : Pool)
        T.join();
    };
    // First touch from the threads that will copy (page placement).
    Parallel([&](size_t B, size_t E) {
      for (size_t I = B; I != E; ++I)
        Src[I] = static_cast<float>(I & 1023);
      std::memset(Dst.get() + B, 0, (E - B) * sizeof(float));
    });
    std::vector<double> Rates;
    const Clock::time_point Start = Clock::now();
    while (Rates.size() < 3 ||
           (Rates.size() < 9 && secondsSince(Start) < Seconds / 2)) {
      const Clock::time_point T0 = Clock::now();
      Parallel([&](size_t B, size_t E) {
        std::memcpy(Dst.get() + B, Src.get() + B, (E - B) * sizeof(float));
      });
      Rates.push_back(2.0 * static_cast<double>(Bytes) / secondsSince(T0) /
                      1e9);
    }
    R.CopyGBps = median(Rates);
    if (Dst[N / 2] != Src[N / 2])
      R.CopyGBps = 0.0;
  }
  R.KernelGflops1 = kernelGflops(1, Seconds / 4);
  R.KernelGflopsN = kernelGflops(R.Threads, Seconds / 4);
  return R;
}

} // namespace perfbench
