//===- service/Autotuner.cpp ----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "service/Autotuner.h"
#include "backends/native/NativeBackend.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/TimeTile.h"
#include <algorithm>
#include <sstream>

using namespace cmcc;

namespace {

DiskStore::Options storeOptions(const std::string &Dir) {
  return {.Dir = Dir, .Ext = "tune", .Format = "cmcc-tune v2"};
}

/// The record payload: the four tuned values, one per line.
std::string renderParams(const Autotuner::TunedParams &P) {
  std::ostringstream S;
  S << "time_tile " << P.TimeTile << "\nthreads " << P.ThreadCount
    << "\nrows_per_tile " << P.RowsPerTile << "\nscore_us " << P.ScoreUs
    << "\n";
  return S.str();
}

/// Parses exactly what renderParams writes, with every value in range.
bool parseParams(const std::string &Text, Autotuner::TunedParams *P) {
  std::istringstream In(Text);
  std::string Key;
  return In >> Key >> P->TimeTile >> Key >> P->ThreadCount >> Key >>
             P->RowsPerTile >> Key >> P->ScoreUs &&
         renderParams(*P) == Text && P->TimeTile >= 1 &&
         P->ThreadCount >= 0 && P->RowsPerTile >= 1;
}

} // namespace

Autotuner::Autotuner(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(std::move(Opts)),
      Disk(storeOptions(this->Opts.Dir)) {
  if (this->Opts.Depths.empty())
    this->Opts.Depths = {1};
}

void Autotuner::noteMetric(const char *Name) {
  if (Opts.Metrics)
    Opts.Metrics->counter(Name).add(1);
}

std::string Autotuner::recordPath(const std::string &Dir,
                                  uint64_t Fingerprint) {
  return DiskStore(storeOptions(Dir)).path(Fingerprint);
}

DiskStore::Stamp Autotuner::stampFor(const ExecutionBackend &Backend) const {
  std::ostringstream Machine;
  Machine << Config.NodeRows << "x" << Config.NodeCols << "@"
          << Config.ClockMHz;
  return {{"machine", Machine.str()}, {"backend", Backend.name()}};
}

std::optional<Autotuner::TunedParams>
Autotuner::lookup(uint64_t Fingerprint, const ExecutionBackend &Backend) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Memory.find(Fingerprint);
    if (It != Memory.end()) {
      ++Counts.Hits;
      noteMetric("service.tune_hits");
      return It->second;
    }
  }
  // A damaged or foreign record never half-applies: it is a counted
  // reject, and the caller's resolve falls back to a fresh sweep.
  TunedParams P;
  DiskStore::Outcome Loaded =
      Disk.load(Fingerprint, stampFor(Backend),
                [&](const std::string &Text) { return parseParams(Text, &P); });
  if (Loaded == DiskStore::Outcome::Rejected)
    noteMetric("service.tune_disk_rejects");
  if (Loaded != DiskStore::Outcome::Hit)
    return std::nullopt;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Memory.emplace(Fingerprint, P);
  }
  noteMetric("service.tune_disk_hits");
  return P;
}

Autotuner::TunedParams Autotuner::tune(uint64_t Fingerprint,
                                       const ExecutionBackend &Backend,
                                       const CompiledStencil &Plan,
                                       int SubRows, int SubCols) {
  CMCC_SPAN("service.autotune");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counts.Misses;
    ++Counts.Sweeps;
  }
  noteMetric("service.tune_misses");
  noteMetric("service.tune_sweeps");

  // Candidate depths: each requested depth clamped to what the plan
  // and subgrid admit (deep requests collapse onto the deepest legal
  // tile), deduplicated, depth 1 always present as the baseline.
  std::vector<int> Depths{1};
  for (int D : Opts.Depths) {
    int K = timetile::clampTimeTile(Plan.Spec, D, SubRows, SubCols);
    if (std::find(Depths.begin(), Depths.end(), K) == Depths.end())
      Depths.push_back(K);
  }

  const bool WallClock = Backend.reportsWallClock();
  TunedParams Best;
  Best.ScoreUs = -1.0;
  for (int K : Depths) {
    RunOptions RO;
    RO.TimeTile = K;
    Expected<TimingReport> Report =
        Backend.timeOnly(Plan, SubRows, SubCols, RO);
    if (!Report)
      continue; // An undeployable depth scores itself out.
    // Per-timestep cost: depth k's run covers k chained steps, so the
    // fair comparison divides by k. Wall-clock backends are scored by
    // the seconds their own run measured (never a process-wide
    // histogram, which other threads' runs also feed); cm2 by the
    // simulated machine time.
    const double Us = (WallClock ? Report->HostSecondsPerIteration
                                 : Report->secondsPerIteration()) *
                      1e6 / K;
    if (Best.ScoreUs < 0.0 || Us < Best.ScoreUs) {
      Best.TimeTile = K;
      Best.ScoreUs = Us;
    }
  }
  if (Best.ScoreUs < 0.0)
    Best = TunedParams{}; // Every probe failed: keep the safe defaults.

  // Host-loop knobs: for the native backend, probe the strip-tile
  // height at the winning depth on private single-option instances
  // (the knob is a constructor option, not a RunOptions field). Other
  // backends keep the defaults — the record still carries them.
  if (std::string_view(Backend.name()) == "native") {
    double BestRowsUs = -1.0;
    for (int Rows : {16, 32, 64}) {
      NativeBackend::Options NO;
      NO.RowsPerTile = Rows;
      NativeBackend Probe(Config, NO);
      RunOptions RO;
      RO.TimeTile = Best.TimeTile;
      Expected<TimingReport> Report =
          Probe.timeOnly(Plan, SubRows, SubCols, RO);
      if (!Report)
        continue;
      const double Us = Report->HostSecondsPerIteration * 1e6;
      if (BestRowsUs < 0.0 || Us < BestRowsUs) {
        BestRowsUs = Us;
        Best.RowsPerTile = Rows;
      }
    }
  }

  Disk.store(Fingerprint, stampFor(Backend), renderParams(Best));
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Memory[Fingerprint] = Best;
  }
  return Best;
}

Autotuner::TunedParams Autotuner::resolve(uint64_t Fingerprint,
                                          const ExecutionBackend &Backend,
                                          const CompiledStencil &Plan,
                                          int SubRows, int SubCols) {
  if (std::optional<TunedParams> P = lookup(Fingerprint, Backend))
    return *P;
  return tune(Fingerprint, Backend, Plan, SubRows, SubCols);
}

Autotuner::Counters Autotuner::counters() const {
  Counters C;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    C = Counts;
  }
  DiskStore::Counters D = Disk.counters();
  C.DiskHits = D.Hits;
  C.DiskRejects = D.Rejects;
  return C;
}
