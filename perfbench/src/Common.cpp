//===- perfbench/src/Common.cpp -------------------------------*- C++ -*-===//

#include "Common.h"
#include "support/Provenance.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace cmcc;

namespace perfbench {

namespace {

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += static_cast<unsigned char>(C) < 0x20 ? ' ' : C;
  }
  return Out;
}

/// Full precision: the driver compares raw measurements across runs.
std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

const char *detectedIsa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f"))
    return "AVX-512F";
  if (__builtin_cpu_supports("avx2"))
    return "AVX2";
  if (__builtin_cpu_supports("sse4.2"))
    return "SSE4.2";
  return "baseline";
}

} // namespace

void Result::fail(const std::string &Why) {
  Correct = false;
  std::printf("CHECK FAILED: %s\n", Why.c_str());
}

std::string Result::json() const {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    S += (I ? ", \"" : "\"") + escape(M.Name) + "\": {\"value\": " +
         number(M.Value) + ", \"unit\": \"" + escape(M.Unit) + "\"}";
  }
  S += "}}";
  return S;
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - static_cast<double>(Lo));
}

void reportTimed(const std::vector<TimedOp> &Ops, double Wall, Result &R) {
  const size_t N = std::clamp<size_t>(Ops.size() / 30, 1, Windows);
  const double Width = Wall / static_cast<double>(N);
  std::vector<std::vector<size_t>> ByWindow(N);
  for (size_t I = 0; I != Ops.size(); ++I)
    ByWindow[std::min(N - 1, static_cast<size_t>(Ops[I].DoneAt / Width))]
        .push_back(I);
  std::vector<size_t> Order(N);
  for (size_t W = 0; W != N; ++W)
    Order[W] = W;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return ByWindow[A].size() > ByWindow[B].size();
  });
  const size_t Want =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(QuietShare * N)));
  std::vector<double> JobMs, StepMs;
  double Flops = 0.0;
  size_t Taken = 0;
  while (Taken != N && (Taken < Want || JobMs.size() < 1000)) {
    for (size_t I : ByWindow[Order[Taken]]) {
      JobMs.push_back(Ops[I].JobMs);
      StepMs.push_back(Ops[I].StepMs);
      Flops += Ops[I].Flops;
    }
    ++Taken;
  }
  const double Seconds = Width * static_cast<double>(Taken);
  std::printf("quiet windows: %zu of %zu (%.2f s of %.2f), %zu of %zu "
              "operations\n",
              Taken, N, Seconds, Wall, JobMs.size(), Ops.size());
  R.add("gflops", Flops / Seconds / 1e9, "Gflop/s");
  R.add("step_ms_p50", quantile(StepMs, 0.5), "ms");
  R.add("step_ms_p90", quantile(StepMs, 0.9), "ms");
  R.add("jobs_per_s", static_cast<double>(JobMs.size()) / Seconds, "1/s");
  R.add("job_ms_p50", quantile(JobMs, 0.5), "ms");
  R.add("job_ms_p99", quantile(JobMs, 0.99), "ms");
}

void SetupTimer::run(int Times) {
  for (int I = 0; I != Times; ++I) {
    if (!Seconds.empty()) {
      Teardown();
      // Hand the freed state back to the system, so peak RSS measures
      // one state rather than allocator leftovers of several.
      ::malloc_trim(0);
    }
    const Clock::time_point Start = Clock::now();
    Setup();
    Seconds.push_back(secondsSince(Start));
  }
}

double SetupTimer::median() const { return perfbench::median(Seconds); }

double peakRssMiB() {
  struct rusage U {};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::string readRepoFile(const RunConfig &Cfg, const std::string &Path) {
  std::ifstream In(Cfg.Root + "/" + Path);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s/%s\n", Cfg.Root.c_str(),
                 Path.c_str());
    std::exit(2);
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

void fillUniform(Array2D &A, uint64_t Seed, float Low, float High) {
  SplitMix64 Rng(Seed);
  float *P = A.data();
  const size_t N = static_cast<size_t>(A.rows()) * A.cols();
  for (size_t I = 0; I != N; ++I)
    P[I] = Rng.nextFloatInRange(Low, High);
}

std::unique_ptr<DistributedArray> distribute(const NodeGrid &Grid,
                                             const Array2D &Global) {
  auto A = std::make_unique<DistributedArray>(
      Grid, Global.rows() / Grid.rows(), Global.cols() / Grid.cols());
  A->scatter(Global);
  return A;
}

long lastLevelCacheBytes() {
  for (int Name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE})
    if (long V = ::sysconf(Name); V > 0)
      return V;
  return 0;
}

size_t copyArrayBytes() {
  return std::max<size_t>(4 * static_cast<size_t>(lastLevelCacheBytes()),
                          size_t(64) << 20);
}

std::string provenanceJson() {
  const long L1 = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
  const long L2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long L3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::string S = "{\"provenance\": {";
  S += "\"pool_threads\": " + std::to_string(ThreadPool::sharedThreadCount());
  S += ", \"isa\": \"" + std::string(detectedIsa()) + "\"";
  S += ", \"compiler\": \"" + escape(compilerIdentity()) + "\"";
  S += ", \"flags\": \"" + escape(compileFlags()) + "\"";
  S += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  S += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  S += ", \"l1d_bytes\": " + std::to_string(L1);
  S += ", \"l2_bytes\": " + std::to_string(L2);
  S += ", \"l3_bytes\": " + std::to_string(L3);
  S += ", \"copy_array_bytes\": " + std::to_string(copyArrayBytes());
  S += "}}";
  return S;
}

void heading(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

} // namespace perfbench
