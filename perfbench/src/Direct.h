//===- perfbench/src/Direct.h - Chained direct-backend runs ---*- C++ -*-===//
///
/// \file
/// The machinery of the two direct workloads (seismic, heat_tiled) and
/// of the local layer probes: a compiled stencil bound to seeded arrays,
/// advanced by chained ExecutionBackend::run calls that rotate the time
/// levels (R -> U -> UPREV), timed call by call, and the traced-run
/// probes that time the public entry points of each layer it crosses
/// (runtime::exchangeHalos, native and njit backends, the thread pool,
/// time tiling).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DIRECT_H
#define PERFBENCH_DIRECT_H

#include "Common.h"
#include "core/Compiler.h"
#include "runtime/Backend.h"
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// A compiled stencil bound to its arrays. History[0] is the newest time
/// level (the primary source), History[i] feeds ExtraSources[i-1]; after
/// a chained call the result becomes History[0] and the oldest level
/// becomes the next result buffer.
struct DirectState {
  cmcc::MachineConfig Machine;
  std::unique_ptr<cmcc::NodeGrid> Grid;
  cmcc::CompiledStencil Plan;
  int SubRows = 0, SubCols = 0;
  /// Chained timesteps per call (RunOptions::TimeTile).
  int StepsPerCall = 1;
  /// False: every call reads the same inputs (no rotation).
  bool Chained = true;
  std::map<std::string, std::unique_ptr<cmcc::DistributedArray>> Coefficients;
  std::vector<std::unique_ptr<cmcc::DistributedArray>> History;
  std::unique_ptr<cmcc::DistributedArray> Result;

  /// Binds the current time levels.
  cmcc::StencilArguments arguments();
  /// Rotates after a chained call (no-op when !Chained).
  void advance();
  /// Useful flops of one call (all nodes, all steps of the call).
  double flopsPerCall() const;
  /// Global copies of the current time levels and coefficients.
  std::vector<cmcc::Array2D> gatherHistory() const;
  void scatterHistory(const std::vector<cmcc::Array2D> &Levels);
};

/// Builds a state for \p Plan on \p Machine: coefficient arrays from
/// \p Coeffs by name (every coefficient array of the plan must be
/// present), time levels from \p Levels (one per source).
std::unique_ptr<DirectState>
makeDirectState(const cmcc::MachineConfig &Machine, cmcc::CompiledStencil Plan,
                const std::map<std::string, cmcc::Array2D> &Coeffs,
                const std::vector<cmcc::Array2D> &Levels, int StepsPerCall);

/// Per-call samples of a timed loop.
struct LoopSamples {
  std::vector<double> CallMs;
  std::vector<double> DoneAt; ///< Seconds from the start, per call.
  double WallSeconds = 0.0;
  long Calls = 0;
  long Failed = 0;
};

/// Runs calls on \p Backend for at least \p Seconds and \p MinCalls,
/// timing each; a failed call is counted and the loop goes on.
LoopSamples timedCalls(const cmcc::ExecutionBackend &Backend, DirectState &S,
                       double Seconds, long MinCalls);

/// What the traced run reports for a direct workload's layers.
struct DirectLayers {
  double StepMs = 0.0;        ///< Median traced call time per timestep.
  double UntracedStepMs = 0.0;
  double RunMs = 0.0;         ///< Backend run per call.
  double HaloMs = 0.0;        ///< exchangeHalos per call.
  double HaloBytes = 0.0;     ///< Computed bytes one call's exchanges move.
  double ComputeMs = 0.0;     ///< Derived: run - halo.
  double Pool1StepMs = 0.0;   ///< ThreadCount = 1.
  double NjitRunMs = 0.0;     ///< 0 when njit is unavailable.
  bool NjitBitwise = true;
  long Calls = 0;
  long Failed = 0;
};

/// The traced phases: untraced loop, traced loop (halo + run split),
/// one-thread pool loop, njit loop, each about \p Seconds / 4.
/// \p NjitDir is the njit artifact cache for this run.
DirectLayers measureDirectLayers(DirectState &S, double Seconds,
                                 const std::string &NjitDir);

/// Reports the per-layer metrics shared by every workload with direct
/// layers, and prints the layer table that accounts for a call.
void reportDirectLayers(const DirectState &S, const DirectLayers &L,
                        double KernelGflopsN, Result &R);

/// Per-timestep speedup of the state's tile depth over k = 1 on the
/// shared pool, about \p Seconds; 1 when the state runs untiled. Adds
/// the calls it made to \p Calls and \p Failed.
double timeTileSpeedup(DirectState &S, double Seconds, long &Calls,
                       long &Failed);

/// The rest of a direct workload once its state is set up: untraced,
/// the timed loop, its end-to-end metrics but setup_s, and the output
/// checks; traced, the host roofline, the direct layers, time tiling
/// (k=1 against the state's depth), and the service and net layers
/// serving the same stencil (assignment \p Source).
void runDirect(const RunConfig &Cfg, DirectState &S,
               const std::vector<cmcc::Array2D> &Start,
               const std::string &Source, Result &R);

/// Compiles \p Source as a Fortran assignment (multi-source enabled).
cmcc::CompiledStencil compileAssignmentOrDie(const cmcc::MachineConfig &M,
                                             const std::string &Source);

} // namespace perfbench

#endif // PERFBENCH_DIRECT_H
