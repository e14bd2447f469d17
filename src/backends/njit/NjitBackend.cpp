//===- backends/njit/NjitBackend.cpp --------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "backends/njit/NjitBackend.h"
#include "core/PlanFingerprint.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/HaloExchange.h"
#include "runtime/TimeTile.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>

using namespace cmcc;

namespace {

njit::ArtifactCache::Options cacheOptions(const NjitBackend::Options &Opts) {
  njit::ArtifactCache::Options CO;
  if (!Opts.CacheDir.empty())
    CO.DiskDir = Opts.CacheDir;
  else if (const char *Env = std::getenv("CMCC_NJIT_CACHE_DIR"))
    CO.DiskDir = Env;
  return CO;
}

} // namespace

NjitBackend::NjitBackend(const MachineConfig &Config, Options Opts)
    : Config(Config), Opts(Opts), Cache(cacheOptions(Opts)) {}

Expected<TimingReport>
NjitBackend::runResolved(const CompiledStencil &Compiled,
                         const ResolvedStencilArguments &Resolved,
                         const RunOptions &RO) const {
  CMCC_SPAN("backend.njit.run");
  if (fault::probe("backend.njit.run"))
    return fault::injectedFault("backend.njit.run");
  static obs::Counter &Runs =
      obs::Registry::process().counter("backend.njit.runs");
  static obs::Histogram &RunHostUs =
      obs::Registry::process().histogram("backend.njit.run_host_us");
  Runs.add(1);
  obs::ScopedLatencyUs RunTimer(RunHostUs);
  assert(RO.Iterations > 0 && "iteration count must be positive");

  const StencilSpec &Spec = Compiled.Spec;

  // The kernel is a per-plan artifact, resolved before the timed
  // region. An unusable toolchain is reported transient so a serving
  // layer degrades to cm2 instead of failing the job.
  const uint64_t Fingerprint = planFingerprint(Spec, Config, "njit");
  Expected<njit::Artifact> Kernel = Cache.lookup(Fingerprint, Spec);
  if (!Kernel)
    return Kernel.error().isTransient()
               ? Kernel.error()
               : Error::transient(Kernel.error().message());

  const int SubRows = Resolved.Result->subRows();
  const int SubCols = Resolved.Result->subCols();
  const NodeGrid &Grid = Resolved.Result->grid();
  const int K = RO.TimeTile;
  if (Error E = timetile::validateTimeTile(Spec, K, SubRows, SubCols))
    return E;
  const int Radius = Spec.borderWidths().maximum();
  const int Border = K * Radius;

  std::unique_ptr<ThreadPool> PrivatePool;
  ThreadPool *Pool;
  if (Opts.ThreadCount == 0) {
    Pool = &ThreadPool::shared();
  } else {
    PrivatePool = std::make_unique<ThreadPool>(Opts.ThreadCount);
    Pool = PrivatePool.get();
  }

  const auto Start = std::chrono::steady_clock::now();

  // Same in-place exchange protocol as the other backends
  // (runtime/TimeTile.h documents the widened tiled form; the kernel is
  // geometry-oblivious — bases, strides, and widths are call operands —
  // so the same artifact drives untiled runs, intermediate extended
  // rectangles, and the final step).
  Expected<RunHalos> Halos = [&] {
    CMCC_SPAN("backend.njit.halo_exchange");
    return RunHalos::exchange(Spec, Resolved, K, Opts.AllowCornerSkip);
  }();
  if (!Halos)
    return Halos.error();

  {
    CMCC_SPAN("njit.run");
    const int RowsPerTile = std::max(1, Opts.RowsPerTile);
    const size_t TapCount = Spec.Taps.size();

    // One kernel pass over the POut-extended rectangle of every node,
    // reading \p In (null: the run's sources, exchanged in place) and
    // writing \p Out (null: the result subgrids; POut == 0 is the
    // classic untiled run and the final tiled step).
    auto KernelPass = [&](std::vector<Array2D> *In,
                          std::vector<Array2D> *Out, int POut) {
      const int ExtRows = SubRows + 2 * POut;
      const int ExtCols = SubCols + 2 * POut;
      const int TilesPerNode = (ExtRows + RowsPerTile - 1) / RowsPerTile;
      // Pre-resolved operand slots per node, indexed by tap and built
      // once per pass: bases already offset so the kernel does no offset
      // arithmetic. Slots the emitted code hard-coded away are never
      // read.
      const size_t Slots = TapCount * Grid.nodeCount();
      std::vector<const float *> TapSrc(Slots, nullptr);
      std::vector<long> TapSrcStride(Slots, 0);
      std::vector<const float *> TapCoeff(Slots, nullptr);
      std::vector<long> TapCoeffStride(Slots, 0);
      for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
        const NodeCoord Node = Grid.coordOf(Id);
        for (size_t I = 0; I != TapCount; ++I) {
          const Tap &T = Spec.Taps[I];
          const size_t At = Id * TapCount + I;
          if (T.HasData) {
            const ConstSubgridView Src =
                In ? (*In)[static_cast<size_t>(Id)].view(Border)
                   : Resolved.Sources[T.SourceIndex]->subgrid(Node);
            TapSrcStride[At] = Src.stride();
            TapSrc[At] = Src.row(T.At.Dy - POut) + T.At.Dx - POut;
          }
          if (const DistributedArray *C = Resolved.TapCoefficients[I]) {
            const ConstSubgridView Sub = C->subgrid(Node);
            TapCoeffStride[At] = Sub.stride();
            TapCoeff[At] = Sub.row(-POut) - POut;
          }
        }
      }

      Pool->parallelFor(Grid.nodeCount() * TilesPerNode, [&](int Task) {
        const int NodeId = Task / TilesPerNode;
        const int RowBegin = (Task % TilesPerNode) * RowsPerTile;
        const int RowEnd = std::min(ExtRows, RowBegin + RowsPerTile);
        const size_t At = NodeId * TapCount;
        const SubgridView O =
            Out ? (*Out)[static_cast<size_t>(NodeId)].view(Border)
                : Resolved.Result->subgrid(Grid.coordOf(NodeId));
        Kernel->Kernel(O.row(-POut) - POut, O.stride(), TapSrc.data() + At,
                       TapSrcStride.data() + At, TapCoeff.data() + At,
                       TapCoeffStride.data() + At, RowBegin, RowEnd, ExtCols);
      });
    };

    if (K == 1) {
      KernelPass(nullptr, nullptr, 0);
    } else {
      // K-1 intermediate steps through double-buffered wide scratch;
      // the parallelFor join between steps is the barrier.
      std::vector<Array2D> Buffers[2];
      for (auto &BufferSet : Buffers) {
        BufferSet.reserve(static_cast<size_t>(Grid.nodeCount()));
        for (int Id = 0; Id != Grid.nodeCount(); ++Id)
          BufferSet.emplace_back(SubRows + 2 * Border, SubCols + 2 * Border,
                                 std::numeric_limits<float>::quiet_NaN());
      }
      const bool AnyZero = Spec.BoundaryDim1 == BoundaryKind::Zero ||
                           Spec.BoundaryDim2 == BoundaryKind::Zero;
      for (int S = 1; S != K; ++S) {
        const int POut = (K - S) * Radius;
        std::vector<Array2D> *In = S == 1 ? nullptr : &Buffers[S & 1];
        std::vector<Array2D> *Out = &Buffers[(S - 1) & 1];
        KernelPass(In, Out, POut);
        if (AnyZero) {
          Pool->parallelFor(Grid.nodeCount(), [&](int Id) {
            const NodeCoord Node = Grid.coordOf(Id);
            timetile::applyZeroMask(
                (*Out)[static_cast<size_t>(Id)], Border, POut, SubRows,
                SubCols, Spec.BoundaryDim1, Spec.BoundaryDim2,
                Node.Row, Config.NodeRows, Node.Col, Config.NodeCols);
          });
        }
      }
      KernelPass(&Buffers[(K - 2) & 1], nullptr, 0);
    }
  }

  const double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  TimingReport Report;
  Report.Iterations = RO.Iterations;
  Report.Nodes = Config.nodeCount();
  Report.ClockMHz = Config.ClockMHz;
  Report.HostSecondsPerIteration = Seconds;
  Report.UsefulFlopsPerNodePerIteration =
      static_cast<long>(Spec.usefulFlopsPerPoint()) * SubRows * SubCols *
      std::max(1, K);
  return Report;
}

Expected<TimingReport> NjitBackend::timeOnly(const CompiledStencil &Compiled,
                                             int SubRows, int SubCols,
                                             const RunOptions &RO) const {
  CMCC_SPAN("backend.njit.time_only");
  const StencilSpec &Spec = Compiled.Spec;
  const NodeGrid Grid(Config);

  // Scratch arrays, deterministically filled with the same seeds as the
  // native backend, so timeOnly results are comparable bit for bit.
  DistributedArray Result(Grid, SubRows, SubCols);
  std::vector<std::unique_ptr<DistributedArray>> Owned;
  auto MakeScratch = [&](uint64_t Seed) {
    Owned.push_back(std::make_unique<DistributedArray>(Grid, SubRows, SubCols));
    DistributedArray &A = *Owned.back();
    for (int Id = 0; Id != Grid.nodeCount(); ++Id)
      A.subgrid(Grid.coordOf(Id)).fillRandom(Seed * 7919 + Id);
    return &A;
  };

  StencilArguments Args;
  Args.Result = &Result;
  uint64_t Seed = 1;
  Args.Source = MakeScratch(Seed++);
  for (const std::string &Name : Spec.ExtraSources)
    Args.ExtraSources[Name] = MakeScratch(Seed++);
  for (const std::string &Name : Spec.coefficientArrayNames())
    Args.Coefficients[Name] = MakeScratch(Seed++);

  return run(Compiled, Args, RO);
}
