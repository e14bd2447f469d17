//===- perfbench/src/Kernel.cpp - Taps-outer kernel probe -----*- C++ -*-===//
///
/// \file
/// The host's compute roofline for the native backend's inner loop: the
/// same taps-outer row loop (Out[j] += Src[j] * (Sign * C[j]), each
/// product rounded before the add — this file is compiled with
/// -ffp-contract=off like backends/native) over the seismic tap pattern,
/// on an L2-resident tile per thread so memory bandwidth does not bound
/// it. Rates count useful flops as the paper does: one multiply per tap
/// plus (taps - 1) adds per point.
///
//===----------------------------------------------------------------------===//

#include "Probes.h"
#include "Common.h"
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr int TileRows = 128, TileCols = 128, Pad = 2;

struct KernelTap {
  const float *Source;
  int SourceStride;
  const float *Coeff;
  float Sign;
};

/// One thread's tile: a padded source, a second source, ten
/// coefficient planes and the result, as in one seismic node step.
struct Tile {
  std::vector<float> Source, Second, Result;
  std::vector<std::vector<float>> Coeffs;
  std::vector<KernelTap> Taps;

  explicit Tile(uint64_t Seed) {
    const int PaddedCols = TileCols + 2 * Pad;
    Source.resize(static_cast<size_t>(TileRows + 2 * Pad) * PaddedCols);
    Second.resize(static_cast<size_t>(TileRows) * TileCols);
    Result.resize(Second.size());
    uint64_t State = Seed;
    auto Next = [&] {
      State = State * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<float>(State >> 40) * (1.0f / 16777216.0f) - 0.5f;
    };
    for (float &V : Source)
      V = Next();
    for (float &V : Second)
      V = Next();
    const int Dy[9] = {-2, -1, 0, 0, 0, 0, 0, 1, 2};
    const int Dx[9] = {0, 0, -2, -1, 0, 1, 2, 0, 0};
    Coeffs.resize(10);
    for (auto &C : Coeffs) {
      C.resize(Second.size());
      for (float &V : C)
        V = Next();
    }
    for (int T = 0; T != 9; ++T)
      Taps.push_back({Source.data() + (Pad + Dy[T]) * PaddedCols + Pad + Dx[T],
                      PaddedCols, Coeffs[T].data(), 1.0f});
    Taps.push_back({Second.data(), TileCols, Coeffs[9].data(), -1.0f});
  }

  void sweep() {
    for (int R = 0; R != TileRows; ++R) {
      float *Out = Result.data() + static_cast<size_t>(R) * TileCols;
      std::fill(Out, Out + TileCols, 0.0f);
      for (const KernelTap &T : Taps) {
        const float *Src = T.Source + static_cast<size_t>(R) * T.SourceStride;
        const float *C = T.Coeff + static_cast<size_t>(R) * TileCols;
        const float Sign = T.Sign;
        for (int J = 0; J != TileCols; ++J)
          Out[J] += Src[J] * (Sign * C[J]);
      }
    }
  }
};

} // namespace

double kernelGflops(int Threads, double Seconds) {
  constexpr double FlopsPerSweep = 19.0 * TileRows * TileCols;
  std::vector<Tile> Tiles;
  for (int T = 0; T != Threads; ++T)
    Tiles.emplace_back(1000 + T);
  // Warm every tile into its core's cache before the clock starts.
  for (Tile &T : Tiles)
    T.sweep();
  std::atomic<bool> Go{false}, Stop{false};
  std::vector<long> Sweeps(static_cast<size_t>(Threads), 0);
  std::vector<std::thread> Pool;
  for (int T = 1; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      while (!Stop.load(std::memory_order_relaxed)) {
        Tiles[T].sweep();
        ++Sweeps[T];
      }
    });
  const Clock::time_point Start = Clock::now();
  Go.store(true, std::memory_order_release);
  while (secondsSince(Start) < Seconds) {
    Tiles[0].sweep();
    ++Sweeps[0];
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Pool)
    T.join();
  const double Elapsed = secondsSince(Start);
  long Total = 0;
  for (long S : Sweeps)
    Total += S;
  float Sink = 0.0f;
  for (Tile &T : Tiles)
    Sink += T.Result[0];
  // Keep the results observable so the sweeps cannot be elided.
  volatile float Observed = Sink;
  (void)Observed;
  return static_cast<double>(Total) * FlopsPerSweep / Elapsed / 1e9;
}

} // namespace perfbench
