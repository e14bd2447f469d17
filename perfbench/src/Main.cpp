//===- perfbench/src/Main.cpp - The benchmark's command line --*- C++ -*-===//
///
/// \file
/// perfbench --workload seismic|heat_tiled|serve_mixed|serve_warm --seed N
///           --seconds S --trace 0|1 [--root DIR]
///
/// Runs one workload and prints, as the last line of standard output,
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics untraced, the per-layer metrics traced. The line before it
/// is the provenance stamp. Every run also recomputes the frozen cm2
/// results table; a moved value makes the run incorrect.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Probes.h"
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

const char *const EndToEnd[] = {"gflops",     "step_ms_p50", "step_ms_p90",
                                "jobs_per_s", "job_ms_p50",  "job_ms_p99",
                                "setup_s",    "peak_rss_mib"};

const char *const PerLayer[] = {
    "runtime.halo_ms",         "runtime.halo_gbps",
    "backends.native.run_ms",  "backends.native.compute_ms",
    "backends.native.pct_roofline", "support.threadpool.speedup",
    "runtime.timetile.speedup", "core.compile_ms",
    "service.compile_miss_ms", "service.queue_ms",
    "service.resolve_hit_ms",  "service.cache_hit_ratio",
    "net.client_overhead_ms",  "net.request_kib",
    "net.response_kib",        "backends.native.execute_ms",
    "backends.njit.run_ms",    "backends.njit.vs_native",
    "host.copy_gbps",          "host.kernel_gflops_1",
    "host.kernel_gflops_n",    "obs.trace_overhead_pct",
    "service.retries",         "service.fallbacks",
    "service.rejected"};

bool parse(int Argc, char **Argv, RunConfig &Cfg) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Cfg.Workload = Value;
    else if (Flag == "--seed")
      Cfg.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      Cfg.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      Cfg.Trace = Value == "1";
    else if (Flag == "--root")
      Cfg.Root = Value;
    else
      return false;
  }
  return Argc % 2 == 1 && !Cfg.Workload.empty() && Cfg.Seconds > 0;
}

/// The emitted names must be exactly the mode's list, each once.
bool complete(const Result &R, bool Trace) {
  std::set<std::string> Want, Got;
  if (Trace)
    Want.insert(std::begin(PerLayer), std::end(PerLayer));
  else
    Want.insert(std::begin(EndToEnd), std::end(EndToEnd));
  for (const Metric &M : R.metrics())
    if (!Got.insert(M.Name).second) {
      std::fprintf(stderr, "perfbench: metric %s emitted twice\n",
                   M.Name.c_str());
      return false;
    }
  if (Got == Want)
    return true;
  for (const std::string &N : Want)
    if (!Got.count(N))
      std::fprintf(stderr, "perfbench: metric %s missing\n", N.c_str());
  for (const std::string &N : Got)
    if (!Want.count(N))
      std::fprintf(stderr, "perfbench: unexpected metric %s\n", N.c_str());
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  try {
    if (!parse(Argc, Argv, Cfg)) {
      std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                           "--seconds S --trace 0|1 [--root DIR]\n");
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", E.what());
    return 2;
  }
  void (*Run)(const RunConfig &, Result &) =
      Cfg.Workload == "seismic"       ? runSeismic
      : Cfg.Workload == "heat_tiled"  ? runHeatTiled
      : Cfg.Workload == "serve_mixed" ? runServeMixed
      : Cfg.Workload == "serve_warm"  ? runServeWarm
                                      : nullptr;
  if (!Run) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Cfg.Workload.c_str());
    return 2;
  }
  Cfg.Scratch = Cfg.Root + "/.bench_build/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(Cfg.Scratch);

  Result R;
  int Rows = 0;
  std::string Why;
  if (checkFrozenCm2(Rows, Why))
    R.fail("frozen cm2 guard: " + Why);
  std::printf("frozen cm2 guard: %d results-table rows recomputed\n", Rows);

  Run(Cfg, R);
  std::filesystem::remove_all(Cfg.Scratch);
  if (!complete(R, Cfg.Trace))
    return 4;
  std::printf("%s\n%s\n", provenanceJson().c_str(), R.json().c_str());
  return 0;
}
