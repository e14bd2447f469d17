//===- tests/service_soak_test.cpp - Chaos soak of the service -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stress half of the DESIGN.md §5f story: several producer threads
/// hammer a cm2 service and a native service with randomized functional
/// jobs while ~1% of every fault site misbehaves (transient execute
/// failures, lost disk writes, corrupt-looking disk reads, degraded
/// thread-pool dispatch, latency spikes). The service must come out with
/// its books balanced:
///
///   * no lost jobs — every submitted id reaches Done or Failed and
///     submitted == completed + failed;
///   * no deadlock — the whole soak drains (ctest's timeout is the
///     backstop, but in practice this runs in seconds);
///   * cache counters stay consistent (every performed compile was a
///     miss and produced exactly one insertion);
///   * every surviving job's arrays are bitwise-identical to a
///     fault-free run of the same work on the backend that actually
///     served it — retries and degraded dispatch may cost time, never
///     bits.
///
/// Also runs under ThreadSanitizer via tools/check_tsan.sh.
///
//===----------------------------------------------------------------------===//

#include "backends/Registry.h"
#include "service/StencilService.h"
#include "stencil/PatternLibrary.h"
#include "support/FaultInjection.h"
#include "support/Random.h"
#include <filesystem>
#include <gtest/gtest.h>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace cmcc;

namespace {

MachineConfig machine() { return MachineConfig::withNodeGrid(2, 2); }

fault::Rule rule(const char *Site, double Rate, long DelayMs = 0) {
  fault::Rule R;
  R.Site = Site;
  R.Rate = Rate;
  if (DelayMs > 0) {
    R.Kind = fault::Action::Delay;
    R.DelayMs = DelayMs;
  }
  return R;
}

/// Distributed arrays plus ownership for one functional run.
struct BoundArrays {
  StencilArguments Args;
  std::unique_ptr<DistributedArray> Result, Source;
  std::vector<std::unique_ptr<DistributedArray>> Coefficients;

  BoundArrays(const MachineConfig &M, const StencilSpec &Spec, int Sub,
              uint64_t Seed)
      : Grid(M) {
    Result = std::make_unique<DistributedArray>(Grid, Sub, Sub);
    Source = std::make_unique<DistributedArray>(Grid, Sub, Sub);
    Array2D GlobalX(Result->globalRows(), Result->globalCols());
    GlobalX.fillRandom(Seed);
    Source->scatter(GlobalX);
    Args.Result = Result.get();
    Args.Source = Source.get();
    int Index = 0;
    for (const std::string &Name : Spec.coefficientArrayNames()) {
      auto C = std::make_unique<DistributedArray>(Grid, Sub, Sub);
      Array2D G(Result->globalRows(), Result->globalCols());
      G.fillRandom(Seed + 1000 + Index++);
      C->scatter(G);
      Args.Coefficients[Name] = C.get();
      Coefficients.push_back(std::move(C));
    }
  }

private:
  NodeGrid Grid;
};

/// Everything needed to re-run one job fault-free afterwards.
struct SoakJob {
  PatternId Pattern;
  uint64_t Seed = 0;
  int Sub = 8;
  StencilService::JobId Id = 0;
  std::unique_ptr<BoundArrays> Arrays;
};

struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const char *Name)
      : Path(std::filesystem::temp_directory_path() /
             (std::string("cmcc_soak_test_") + Name)) {
    std::filesystem::remove_all(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
};

} // namespace

TEST(ServiceSoakTest, MixedBackendChaosLosesNoJobsAndNoBits) {
  const MachineConfig M = machine();
  const std::vector<PatternId> Patterns = allPatterns();

  fault::Registry &Reg = fault::Registry::process();
  Reg.reset();
  Reg.setSeed(42);
  // ~1% chaos at every site, plus occasional latency spikes. The
  // service.compile rate stays lower: compile faults are not retried
  // (by design — they fail every coalesced job), so they set the
  // expected-failure floor rather than the recovery machinery.
  Reg.arm(rule("backend.cm2.run", 0.01));
  Reg.arm(rule("backend.native.run", 0.01));
  Reg.arm(rule("halo.exchange", 0.01));
  Reg.arm(rule("threadpool.dispatch", 0.01));
  Reg.arm(rule("plancache.disk_write", 0.01));
  Reg.arm(rule("plancache.disk_read", 0.01));
  Reg.arm(rule("service.compile", 0.005));
  Reg.arm(rule("backend.cm2.run", 0.01, /*DelayMs=*/2));

  constexpr int Producers = 4;
  constexpr int JobsPerProducer = 25;

  struct Lane {
    const char *Backend;
    std::unique_ptr<ScratchDir> Disk;
    std::unique_ptr<StencilService> Service;
    // [producer][job]; each producer writes only its own row.
    std::vector<std::vector<SoakJob>> Jobs;
  };
  std::vector<Lane> Lanes(2);
  Lanes[0].Backend = "cm2";
  Lanes[1].Backend = "native";
  for (Lane &L : Lanes) {
    L.Disk = std::make_unique<ScratchDir>(L.Backend);
    StencilService::Options Opts;
    Opts.Workers = 4;
    Opts.Backend = L.Backend;
    Opts.Cache.DiskDir = L.Disk->Path;
    Opts.QueueCap = 16;
    Opts.Admit = StencilService::Admission::Block;
    Opts.MaxRetries = 4;
    L.Service = std::make_unique<StencilService>(M, Opts);
    L.Jobs.resize(Producers);
  }

  // Producers: random pattern, random fill seed, random subgrid size,
  // submitted with blocking admission against both lanes.
  {
    std::vector<std::thread> Threads;
    for (int P = 0; P != Producers; ++P)
      Threads.emplace_back([&, P] {
        SplitMix64 G(1000 + P);
        for (Lane &L : Lanes) {
          std::vector<SoakJob> &Mine = L.Jobs[P];
          Mine.reserve(JobsPerProducer);
          for (int I = 0; I != JobsPerProducer; ++I) {
            SoakJob Job;
            Job.Pattern = Patterns[G.nextBelow(Patterns.size())];
            Job.Seed = G.next();
            Job.Sub = 4 + static_cast<int>(G.nextBelow(3)) * 4; // 4|8|12
            Job.Arrays = std::make_unique<BoundArrays>(
                M, makePattern(Job.Pattern), Job.Sub, Job.Seed);
            StencilService::JobRequest Req;
            Req.Kind = StencilService::SourceKind::FortranSubroutine;
            Req.Source = patternFortranSource(Job.Pattern);
            Req.Args = &Job.Arrays->Args;
            Req.Iterations = 1;
            Job.Id = L.Service->submit(Req);
            Mine.push_back(std::move(Job));
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }

  // Harvest: every id must resolve — nothing lost, nothing stuck.
  struct Survivor {
    const SoakJob *Job;
    const char *Backend; // The backend that actually produced the bits.
  };
  std::vector<Survivor> Survivors;
  long Failed = 0;
  for (Lane &L : Lanes)
    for (std::vector<SoakJob> &Row : L.Jobs)
      for (SoakJob &Job : Row) {
        StencilService::JobResult R = L.Service->wait(Job.Id);
        if (!R.Ok) {
          ++Failed;
          // Chaos may fail a job, but only through the channels the
          // hardening defines — never QueueFull (admission blocks) and
          // never DeadlineExceeded (no deadline armed).
          EXPECT_EQ(R.Status, StencilService::JobStatus::Error)
              << R.Message;
          EXPECT_FALSE(R.Message.empty());
          continue;
        }
        Survivors.push_back(
            {&Job, R.FellBack ? "cm2" : L.Backend});
      }

  const long Total = 2L * Producers * JobsPerProducer;
  EXPECT_EQ(static_cast<long>(Survivors.size()) + Failed, Total);

  long Retries = 0, Fallbacks = 0;
  for (Lane &L : Lanes) {
    ServiceStats S = L.Service->stats();
    // The ledger balances: no lost jobs, an empty queue, and every
    // performed compile was a cache miss that produced one insertion.
    EXPECT_EQ(S.JobsSubmitted, Total / 2);
    EXPECT_EQ(S.JobsCompleted + S.JobsFailed, S.JobsSubmitted);
    EXPECT_EQ(S.QueueDepth, 0);
    EXPECT_LE(S.MaxQueueDepth, 16);
    EXPECT_EQ(S.Rejected, 0);
    EXPECT_EQ(S.DeadlineExceeded, 0);
    EXPECT_GE(S.Cache.Misses, S.CompilesPerformed);
    EXPECT_EQ(S.Cache.Insertions, S.CompilesPerformed);
    Retries += S.Retries;
    Fallbacks += S.Fallbacks;
  }
  // With ~1% fault rates over hundreds of probes the recovery machinery
  // must actually have engaged; a zero here means the sites are wired
  // to nothing.
  EXPECT_GT(Reg.totalProbes(), 0);
  EXPECT_GT(Retries + Fallbacks + Failed, 0);

  // Bitwise identity: re-run every surviving job fault-free on the
  // backend that actually served it. Faults may cost retries and
  // degraded dispatch, never bits.
  Reg.reset();
  std::unique_ptr<const ExecutionBackend> Direct[2] = {
      createBackend("cm2", M, {}), createBackend("native", M, {})};
  ConvolutionCompiler CC(M);
  for (const Survivor &S : Survivors) {
    const SoakJob &Job = *S.Job;
    Expected<CompiledStencil> Plan = CC.compile(makePattern(Job.Pattern));
    ASSERT_TRUE(Plan);
    BoundArrays Fresh(M, makePattern(Job.Pattern), Job.Sub, Job.Seed);
    const ExecutionBackend &B =
        std::string_view(S.Backend) == "cm2" ? *Direct[0] : *Direct[1];
    Expected<TimingReport> Clean = B.run(*Plan, Fresh.Args, 1);
    ASSERT_TRUE(Clean);
    EXPECT_EQ(Array2D::maxAbsDifference(Job.Arrays->Result->gather(),
                                        Fresh.Result->gather()),
              0.0f)
        << "pattern " << patternName(Job.Pattern) << " seed " << Job.Seed
        << " on " << S.Backend;
  }
}

TEST(ServiceSoakTest, SubmitWaitCyclesCollectEveryRecord) {
  // wait() frees a job's record while the finishing worker may still be
  // notifying waiters and running the completion callback for it. Two
  // workers and two producers run 5000 submit+wait cycles each; under
  // the sanitizers any touch of a collected record is a failure.
  std::atomic<long> Callbacks{0};
  StencilService::Options Opts;
  Opts.Workers = 2;
  StencilService Service(machine(), Opts);
  Service.setJobFinishedCallback(
      [&](StencilService::JobId) { Callbacks.fetch_add(1); });
  constexpr int Producers = 2;
  constexpr int Cycles = 5000;
  std::atomic<long> Ok{0};
  std::atomic<long> Uncollected{0};
  std::vector<std::thread> Threads;
  for (int P = 0; P != Producers; ++P)
    Threads.emplace_back([&] {
      StencilService::JobRequest Req;
      Req.Kind = StencilService::SourceKind::FortranAssignment;
      Req.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
      Req.SubRows = 8;
      Req.SubCols = 8;
      for (int I = 0; I != Cycles; ++I) {
        const StencilService::JobId Id = Service.submit(Req);
        if (Service.wait(Id).Ok)
          Ok.fetch_add(1);
        if (Service.wait(Id).Status != StencilService::JobStatus::BadJobId)
          Uncollected.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ok.load(), Producers * Cycles);
  EXPECT_EQ(Uncollected.load(), 0);
  const ServiceStats S = Service.stats();
  EXPECT_EQ(S.JobsSubmitted, Producers * Cycles);
  EXPECT_EQ(S.JobsCompleted, Producers * Cycles);
  // A callback may still be running after its job's waiter returned;
  // each one fires exactly once (bounded wait, so a loss fails).
  const auto Limit = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Callbacks.load() < Producers * Cycles &&
         std::chrono::steady_clock::now() < Limit)
    std::this_thread::yield();
  EXPECT_EQ(Callbacks.load(), Producers * Cycles);
}
