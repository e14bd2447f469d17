//===- perfbench/src/Common.h - Shared benchmark plumbing -----*- C++ -*-===//
///
/// \file
/// What every workload shares: the run configuration parsed from the
/// command line, the result record printed as the final JSON line,
/// percentile and timing helpers, seeded input generation, and the
/// provenance stamp printed with every result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "cm2/NodeGrid.h"
#include "runtime/Array2D.h"
#include "runtime/DistributedArray.h"
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Parsed command line: --workload --seed --seconds --trace, plus the
/// repository root run.py passes so corpus files resolve from any cwd.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Root = ".";
  /// Per-run scratch directory under .bench_build (plan caches,
  /// sockets, njit artifacts), removed at exit.
  std::string Scratch;
};

/// One metric as printed: {"value": V, "unit": U}.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// The record the benchmark prints as its last line.
class Result {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Marks the run incorrect and says why on stdout.
  void fail(const std::string &Why);
  void attempted(long N) { Attempted += N; }
  void failedOps(long N) { Failed += N; }

  const std::vector<Metric> &metrics() const { return Metrics; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string json() const;

private:
  bool Correct = true;
  long Attempted = 0;
  long Failed = 0;
  std::vector<Metric> Metrics;
};

/// The q-quantile (0..1) of \p Values by linear interpolation between
/// order statistics; 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

/// One timed operation of a run: when it completed (seconds from the
/// start of the timed loop), its latency, the time per timestep it
/// stands for, and its useful flops.
struct TimedOp {
  double DoneAt = 0.0;
  double JobMs = 0.0;
  double StepMs = 0.0;
  double Flops = 0.0;
};

/// Adds the timing metrics of a run (gflops, step_ms_p50/p90,
/// jobs_per_s, job_ms_p50/p99) from its quiet windows. Other tenants
/// take CPU time from this machine in spikes and in phases of seconds,
/// which only ever slow a stretch of the run down, so a run is judged
/// by its quiet stretches: its \p Wall seconds are cut into up to
/// Windows equal windows of about 30 operations each, short enough that
/// one stall shows in its window's count, and the QuietShare of them
/// that completed the most operations — widened until they hold at least 1000 operations,
/// so ten lie beyond p99 — stand for the run. Rates are the work those
/// windows completed over their length; quantiles are over their
/// operations.
void reportTimed(const std::vector<TimedOp> &Ops, double Wall, Result &R);

constexpr size_t Windows = 300;
constexpr double QuietShare = 0.25;

/// Times a workload's set-up. Each run() builds a fresh state, after an
/// untimed Teardown of the previous one, so peak memory reflects one
/// state, not several. Workloads set up before their timed loop and
/// again after it, so setup_s samples the host at both ends of the run;
/// the state of the latest set-up is the one in use.
class SetupTimer {
public:
  SetupTimer(std::function<void()> Setup, std::function<void()> Teardown)
      : Setup(std::move(Setup)), Teardown(std::move(Teardown)) {}
  void run(int Times);
  /// Median seconds over every set-up so far.
  double median() const;

private:
  std::function<void()> Setup, Teardown;
  std::vector<double> Seconds;
};

/// Set-ups before and after the timed loop of an untraced run.
constexpr int SetupsBefore = 5, SetupsAfter = 4;

/// Peak resident set of this process in MiB (getrusage).
double peakRssMiB();

/// Whole text of \p Path relative to the repository root; aborts the
/// run (exit 2) when it is missing — the corpus is part of the checkout.
std::string readRepoFile(const RunConfig &Cfg, const std::string &Path);

/// Fills \p A with uniform values in [Low, High) from \p Seed.
void fillUniform(cmcc::Array2D &A, uint64_t Seed, float Low, float High);

/// A distributed array scattered from \p Global.
std::unique_ptr<cmcc::DistributedArray>
distribute(const cmcc::NodeGrid &Grid, const cmcc::Array2D &Global);

/// Provenance of this result: pool threads, ISA, compiler, flags,
/// build type, host cores and cache sizes. Printed as one JSON line
/// before the result; results with different stamps are not compared.
std::string provenanceJson();

/// Last-level cache size in bytes as the CPU reports it (0 unknown).
long lastLevelCacheBytes();

/// Size of each stream-copy array of the roofline probe: four times the
/// last-level cache, and at least 64 MiB.
size_t copyArrayBytes();

/// Prints a section heading for the human-readable part of the output.
void heading(const std::string &Title);

/// Workload entry points (each fills \p R).
void runSeismic(const RunConfig &Cfg, Result &R);
void runHeatTiled(const RunConfig &Cfg, Result &R);
void runServeMixed(const RunConfig &Cfg, Result &R);
void runServeWarm(const RunConfig &Cfg, Result &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
