//===- backends/native/NativeBackend.cpp ----------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
// Compiled with -ffp-contract=off (see backends/CMakeLists.txt): every
// term's product must round before the add, as the pipeline model's
// chain arithmetic does, or the 1-ulp-per-term equivalence contract
// with the cm2 backend breaks.
//
//===----------------------------------------------------------------------===//

#include "backends/native/NativeBackend.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/HaloExchange.h"
#include "runtime/TimeTile.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <span>

using namespace cmcc;

namespace {

/// The sign-folded per-tap operand stream for one node, resolved once
/// per node per compute pass, before the row loops (the native analogue
/// of FastNodeBinding, with the tap loop hoisted outside the column loop
/// so the column loop vectorizes).
struct NodeTap {
  /// Source element (Dy - POut, Dx - POut) of the subgrid inside its
  /// padded storage — indexing it with [r * SourceStride + j] yields
  /// Source(r - POut + Dy, j - POut + Dx). Null for bare-coefficient
  /// terms.
  const float *Source = nullptr;
  int SourceStride = 0;
  /// Coefficient element (-POut, -POut); null for scalar coefficients.
  const float *Coeff = nullptr;
  int CoeffStride = 0;
  float Sign = 1.0f;
  /// Sign * (float)Value, folded once (scalar coefficients only).
  float Immediate = 0.0f;
};

/// Computes result rows [RowBegin, RowEnd) of one node's subgrid.
/// Accumulation per point is 0.0f + term0 + term1 + ... in StencilSpec
/// tap order, each term Data * (Sign * Coeff) rounded separately —
/// the same chain the FPU executes, modulo the schedule's tap
/// permutation.
void computeRows(std::span<const NodeTap> Taps, float *Result,
                 int ResultStride, int Cols, int RowBegin, int RowEnd) {
  for (int R = RowBegin; R != RowEnd; ++R) {
    float *Out = Result + static_cast<size_t>(R) * ResultStride;
    std::fill(Out, Out + Cols, 0.0f);
    for (const NodeTap &T : Taps) {
      if (T.Source) {
        const float *Src = T.Source + static_cast<size_t>(R) * T.SourceStride;
        if (T.Coeff) {
          const float *C = T.Coeff + static_cast<size_t>(R) * T.CoeffStride;
          const float Sign = T.Sign;
          for (int J = 0; J != Cols; ++J)
            Out[J] += Src[J] * (Sign * C[J]);
        } else {
          const float Imm = T.Immediate;
          for (int J = 0; J != Cols; ++J)
            Out[J] += Src[J] * Imm;
        }
      } else if (T.Coeff) {
        // Bare array-coefficient term: the FPU multiplies by the 1.0
        // register, which is exact.
        const float *C = T.Coeff + static_cast<size_t>(R) * T.CoeffStride;
        const float Sign = T.Sign;
        for (int J = 0; J != Cols; ++J)
          Out[J] += Sign * C[J];
      } else {
        const float Imm = T.Immediate;
        for (int J = 0; J != Cols; ++J)
          Out[J] += Imm;
      }
    }
  }
}

} // namespace

Expected<TimingReport>
NativeBackend::runResolved(const CompiledStencil &Compiled,
                           const ResolvedStencilArguments &Resolved,
                           const RunOptions &RO) const {
  CMCC_SPAN("backend.native.run");
  if (fault::probe("backend.native.run"))
    return fault::injectedFault("backend.native.run");
  static obs::Counter &Runs =
      obs::Registry::process().counter("backend.native.runs");
  static obs::Histogram &RunHostUs =
      obs::Registry::process().histogram("backend.native.run_host_us");
  Runs.add(1);
  obs::ScopedLatencyUs RunTimer(RunHostUs);
  assert(RO.Iterations > 0 && "iteration count must be positive");

  const StencilSpec &Spec = Compiled.Spec;
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

  // Same §5.1 exchange protocol as the simulated path, in place:
  // wraparound / zero-fill identical, skipped corners identically
  // NaN-poisoned.
  Expected<RunHalos> Halos = [&] {
    CMCC_SPAN("backend.native.halo_exchange");
    return RunHalos::exchange(Spec, Resolved, K, Opts.AllowCornerSkip);
  }();
  if (!Halos)
    return Halos.error();

  {
    CMCC_SPAN("backend.native.compute");
    const int RowsPerTile = std::max(1, Opts.RowsPerTile);
    const size_t TapCount = Spec.Taps.size();

    // One compute pass: rows [0, SubRows + 2 POut) of the POut-extended
    // rectangle of every node, reading \p In (null: the run's sources,
    // exchanged in place) and writing \p Out (null: the result
    // subgrids). The final step (POut == 0) and the classic untiled run
    // are the same pass. Coefficients are read in place, their margins
    // reaching the tiled run's deepest extension.
    auto ComputePass = [&](std::vector<Array2D> *In,
                           std::vector<Array2D> *Out, int POut) {
      const int ExtRows = SubRows + 2 * POut;
      const int ExtCols = SubCols + 2 * POut;
      const int TilesPerNode = (ExtRows + RowsPerTile - 1) / RowsPerTile;
      // Each node's tap streams, resolved once per pass on the caller.
      std::vector<NodeTap> Taps(TapCount * Grid.nodeCount());
      for (int Id = 0; Id != Grid.nodeCount(); ++Id) {
        const NodeCoord Node = Grid.coordOf(Id);
        for (size_t I = 0; I != TapCount; ++I) {
          const Tap &T = Spec.Taps[I];
          NodeTap &N = Taps[Id * TapCount + I];
          N.Sign = static_cast<float>(T.Sign);
          if (T.HasData) {
            const ConstSubgridView Src =
                In ? (*In)[static_cast<size_t>(Id)].view(Border)
                   : Resolved.Sources[T.SourceIndex]->subgrid(Node);
            N.SourceStride = Src.stride();
            N.Source = Src.row(T.At.Dy - POut) + T.At.Dx - POut;
          }
          if (const DistributedArray *C = Resolved.TapCoefficients[I]) {
            const ConstSubgridView Sub = C->subgrid(Node);
            N.CoeffStride = Sub.stride();
            N.Coeff = Sub.row(-POut) - POut;
          } else {
            N.Immediate = N.Sign * static_cast<float>(T.Coeff.Value);
          }
        }
      }

      // Tiles are disjoint row bands of distinct output arrays, so any
      // thread count computes identical bits.
      Pool->parallelFor(Grid.nodeCount() * TilesPerNode, [&](int Task) {
        const int NodeId = Task / TilesPerNode;
        const int RowBegin = (Task % TilesPerNode) * RowsPerTile;
        const int RowEnd = std::min(ExtRows, RowBegin + RowsPerTile);
        const std::span<const NodeTap> NodeTaps(
            Taps.data() + NodeId * TapCount, TapCount);
        const SubgridView O =
            Out ? (*Out)[static_cast<size_t>(NodeId)].view(Border)
                : Resolved.Result->subgrid(Grid.coordOf(NodeId));
        computeRows(NodeTaps, O.row(-POut) - POut, O.stride(), ExtCols,
                    RowBegin, RowEnd);
      });
    };

    if (K == 1) {
      ComputePass(nullptr, nullptr, 0);
    } else {
      // K-1 intermediate steps through double-buffered wide scratch;
      // the parallelFor join between steps is the barrier. Cells
      // beyond a step's valid extension are never read later (step
      // s+1 reaches exactly POut(s)), so the NaN fill at allocation
      // suffices.
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
        ComputePass(In, Out, POut);
        if (AnyZero) {
          // Cells whose global position is outside the array under a
          // Zero (EOSHIFT) boundary are identically zero at every
          // step; the wide exchange zero-filled them at step one and
          // this keeps them zero through the chain.
          Pool->parallelFor(Grid.nodeCount(), [&](int Id) {
            const NodeCoord Node = Grid.coordOf(Id);
            timetile::applyZeroMask(
                (*Out)[static_cast<size_t>(Id)], Border, POut, SubRows,
                SubCols, Spec.BoundaryDim1, Spec.BoundaryDim2,
                Node.Row, Config.NodeRows, Node.Col, Config.NodeCols);
          });
        }
      }
      ComputePass(&Buffers[(K - 2) & 1], nullptr, 0);
    }
  }

  const double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  // Wall-clock report: no simulated cycles; the measured seconds ride
  // in the host field, so secondsPerIteration()/measuredMflops() are
  // real host throughput. One fused unit advances K timesteps.
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

Expected<TimingReport> NativeBackend::timeOnly(const CompiledStencil &Compiled,
                                               int SubRows, int SubCols,
                                               const RunOptions &RO) const {
  CMCC_SPAN("backend.native.time_only");
  const StencilSpec &Spec = Compiled.Spec;
  const NodeGrid Grid(Config);

  // Scratch arrays, deterministically filled: this backend can only
  // time by running for real.
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
