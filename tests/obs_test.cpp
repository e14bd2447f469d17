//===- tests/obs_test.cpp - Observability layer tests ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the obs library: counter/gauge/histogram correctness under
/// concurrency, percentile math on known distributions, registry export
/// validity (the JSON parses), trace-file validity (Chrome trace-event
/// JSON that parses back, with properly nested spans), and the
/// disabled-mode no-op guarantee.
///
//===----------------------------------------------------------------------===//

#include "TestJson.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include <atomic>
#include <chrono>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <thread>
#include <vector>

using namespace cmcc;

namespace {

// The shared JSON validator lives in TestJson.h; these aliases keep
// the existing assertions unchanged.
using testjson::JsonValidator;
using testjson::slurp;

/// One ph:X event pulled back out of a trace file.
struct TraceEvent {
  std::string Name;
  double Ts = 0.0, Dur = 0.0;
};

/// Extracts every complete event from the trace JSON (the writer's
/// one-event-per-line layout makes this a simple scan).
std::vector<TraceEvent> traceEvents(const std::string &Json) {
  std::vector<TraceEvent> Out;
  std::istringstream In(Json);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t NamePos = Line.find("{\"name\": \"");
    if (NamePos == std::string::npos)
      continue;
    TraceEvent E;
    size_t Begin = NamePos + std::strlen("{\"name\": \"");
    size_t End = Line.find('"', Begin);
    if (End == std::string::npos)
      continue;
    E.Name = Line.substr(Begin, End - Begin);
    size_t TsPos = Line.find("\"ts\": ");
    size_t DurPos = Line.find("\"dur\": ");
    if (TsPos == std::string::npos || DurPos == std::string::npos)
      continue;
    E.Ts = std::atof(Line.c_str() + TsPos + std::strlen("\"ts\": "));
    E.Dur = std::atof(Line.c_str() + DurPos + std::strlen("\"dur\": "));
    Out.push_back(std::move(E));
  }
  return Out;
}

std::string tempTracePath(const char *Stem) {
  return ::testing::TempDir() + Stem;
}

//===----------------------------------------------------------------------===//
// Counters, gauges, sums
//===----------------------------------------------------------------------===//

TEST(ObsCounterTest, ConcurrentAddsSumExactly) {
  obs::Registry R;
  obs::Counter &C = R.counter("test.hits");
  constexpr int Threads = 8, PerThread = 50000;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&C] {
      for (int I = 0; I != PerThread; ++I)
        C.add(1);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), static_cast<long>(Threads) * PerThread);
}

TEST(ObsCounterTest, AddWithDelta) {
  obs::Registry R;
  obs::Counter &C = R.counter("test.bytes");
  C.add(10);
  C.add(32);
  EXPECT_EQ(C.value(), 42);
}

TEST(ObsGaugeTest, TracksValueAndHighWaterMark) {
  obs::Registry R;
  obs::Gauge &G = R.gauge("test.depth");
  G.add(3);
  G.add(4); // 7: the high-water mark.
  G.add(-5);
  EXPECT_EQ(G.value(), 2);
  EXPECT_EQ(G.maximum(), 7);
  G.set(1);
  EXPECT_EQ(G.value(), 1);
  EXPECT_EQ(G.maximum(), 7);
}

TEST(ObsSumTest, AccumulatesDoubles) {
  obs::Registry R;
  obs::Sum &S = R.sum("test.seconds");
  S.add(0.25);
  S.add(1.5);
  S.add(0.25);
  EXPECT_DOUBLE_EQ(S.value(), 2.0);
}

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

TEST(ObsHistogramTest, PercentilesOnUniformDistribution) {
  // 1..100 over bounds {25, 50, 75, 100}: 25 observations per bucket.
  // Every percentile that is a multiple of 1% lands exactly via the
  // in-bucket linear interpolation.
  obs::Histogram H({25.0, 50.0, 75.0, 100.0});
  for (int V = 1; V <= 100; ++V)
    H.observe(static_cast<double>(V));
  EXPECT_EQ(H.count(), 100);
  EXPECT_DOUBLE_EQ(H.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(H.mean(), 50.5);
  EXPECT_DOUBLE_EQ(H.percentile(25), 25.0);
  EXPECT_DOUBLE_EQ(H.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(H.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(H.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(H.percentile(100), 100.0);
  std::vector<long> Buckets = H.bucketCounts();
  ASSERT_EQ(Buckets.size(), 5u);
  EXPECT_EQ(Buckets[0], 25);
  EXPECT_EQ(Buckets[1], 25);
  EXPECT_EQ(Buckets[2], 25);
  EXPECT_EQ(Buckets[3], 25);
  EXPECT_EQ(Buckets[4], 0); // Overflow.
}

TEST(ObsHistogramTest, SkewedDistributionPercentiles) {
  // 90 fast observations and 10 slow ones: p50 sits in the fast bucket,
  // p99 in the slow one.
  obs::Histogram H({10.0, 1000.0});
  for (int I = 0; I != 90; ++I)
    H.observe(10.0);
  for (int I = 0; I != 10; ++I)
    H.observe(1000.0);
  // Rank 50 of 100 falls 50/90 into the [0,10] bucket.
  EXPECT_NEAR(H.percentile(50), 10.0 * 50.0 / 90.0, 1e-9);
  // Rank 99 falls 9/10 into the (10,1000] bucket.
  EXPECT_NEAR(H.percentile(99), 10.0 + 990.0 * 0.9, 1e-9);
}

TEST(ObsHistogramTest, OverflowBucketReportsLastBound) {
  obs::Histogram H({1.0, 2.0});
  H.observe(50.0);
  H.observe(60.0);
  EXPECT_EQ(H.count(), 2);
  EXPECT_DOUBLE_EQ(H.sum(), 110.0);
  EXPECT_DOUBLE_EQ(H.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(H.percentile(99), 2.0);
  std::vector<long> Buckets = H.bucketCounts();
  EXPECT_EQ(Buckets.back(), 2);
}

TEST(ObsHistogramTest, EmptyHistogramIsZero) {
  obs::Histogram H({1.0});
  EXPECT_EQ(H.count(), 0);
  EXPECT_DOUBLE_EQ(H.mean(), 0.0);
  EXPECT_DOUBLE_EQ(H.percentile(50), 0.0);
}

TEST(ObsHistogramTest, ConcurrentObservationsAllLand) {
  obs::Histogram H(obs::Histogram::latencyBoundsUs());
  constexpr int Threads = 8, PerThread = 20000;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&H, T] {
      for (int I = 0; I != PerThread; ++I)
        H.observe(static_cast<double>((T * PerThread + I) % 4096));
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(H.count(), static_cast<long>(Threads) * PerThread);
  long InBuckets = 0;
  for (long B : H.bucketCounts())
    InBuckets += B;
  EXPECT_EQ(InBuckets, H.count());
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(ObsRegistryTest, HandlesAreStable) {
  obs::Registry R;
  obs::Counter &A = R.counter("a");
  obs::Counter &B = R.counter("b");
  EXPECT_NE(&A, &B);
  EXPECT_EQ(&A, &R.counter("a"));
  EXPECT_EQ(&R.gauge("g"), &R.gauge("g"));
  EXPECT_EQ(&R.sum("s"), &R.sum("s"));
  EXPECT_EQ(&R.histogram("h"), &R.histogram("h"));
}

TEST(ObsRegistryTest, JsonExportParses) {
  obs::Registry R;
  R.counter("jobs.total").add(7);
  R.gauge("queue.depth").set(3);
  R.sum("sim.seconds").add(1.5);
  R.histogram("latency_us").observe(12.0);
  std::string Json = R.json();
  JsonValidator V(Json);
  EXPECT_TRUE(V.valid()) << Json;
  EXPECT_NE(Json.find("\"jobs.total\": 7"), std::string::npos);
  EXPECT_NE(Json.find("\"queue.depth\""), std::string::npos);
  EXPECT_NE(Json.find("\"latency_us\""), std::string::npos);
}

TEST(ObsRegistryTest, EmptyRegistryJsonParses) {
  obs::Registry R;
  JsonValidator V(R.json());
  EXPECT_TRUE(V.valid());
}

TEST(ObsRegistryTest, TableListsEveryMetric) {
  obs::Registry R;
  R.counter("alpha").add(1);
  R.gauge("beta").set(2);
  R.histogram("gamma").observe(3.0);
  std::string Table = R.table();
  EXPECT_NE(Table.find("alpha"), std::string::npos);
  EXPECT_NE(Table.find("beta"), std::string::npos);
  EXPECT_NE(Table.find("gamma"), std::string::npos);
  EXPECT_NE(Table.find("(max 2)"), std::string::npos);
}

TEST(ObsRegistryTest, PrometheusExportShape) {
  obs::Registry R;
  R.counter("jobs.total").add(5);
  R.histogram("lat.us", {1.0, 10.0}).observe(0.5);
  std::string Prom = R.prometheus();
  EXPECT_NE(Prom.find("cmcc_jobs_total 5"), std::string::npos);
  EXPECT_NE(Prom.find("cmcc_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(Prom.find("cmcc_lat_us_count 1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

TEST(ObsTraceTest, DisabledSpansAreNoOps) {
  ASSERT_FALSE(obs::Trace::active());
  long Before = obs::Registry::process().counter("obs.trace_spans").value();
  for (int I = 0; I != 1000; ++I) {
    CMCC_SPAN("never.recorded");
  }
  EXPECT_EQ(obs::Registry::process().counter("obs.trace_spans").value(),
            Before);
}

TEST(ObsTraceTest, WritesValidChromeTraceJson) {
  std::string Path = tempTracePath("obs_trace_basic.json");
  ASSERT_TRUE(obs::Trace::start(Path));
  EXPECT_TRUE(obs::Trace::active());
  EXPECT_FALSE(obs::Trace::start(Path)) << "second start must be refused";
  {
    CMCC_SPAN("outer_span");
    {
      CMCC_SPAN("inner_span");
    }
  }
  std::thread([&] { CMCC_SPAN("worker_span"); }).join();
  ASSERT_TRUE(obs::Trace::stop());
  EXPECT_FALSE(obs::Trace::active());

  std::string Json = slurp(Path);
  ASSERT_FALSE(Json.empty());
  JsonValidator V(Json);
  EXPECT_TRUE(V.valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);

  std::vector<TraceEvent> Events = traceEvents(Json);
  const TraceEvent *Outer = nullptr, *Inner = nullptr, *Worker = nullptr;
  for (const TraceEvent &E : Events) {
    if (E.Name == "outer_span")
      Outer = &E;
    else if (E.Name == "inner_span")
      Inner = &E;
    else if (E.Name == "worker_span")
      Worker = &E;
  }
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Worker, nullptr);
  // Nesting: the inner span lies within the outer span's interval.
  EXPECT_LE(Outer->Ts, Inner->Ts);
  EXPECT_GE(Outer->Ts + Outer->Dur, Inner->Ts + Inner->Dur);
  // All timestamps are relative to the trace epoch: non-negative.
  for (const TraceEvent &E : Events) {
    EXPECT_GE(E.Ts, 0.0);
    EXPECT_GE(E.Dur, 0.0);
  }
  std::remove(Path.c_str());
}

TEST(ObsTraceTest, RestartDropsEarlierSpans) {
  std::string First = tempTracePath("obs_trace_first.json");
  std::string Second = tempTracePath("obs_trace_second.json");
  ASSERT_TRUE(obs::Trace::start(First));
  {
    CMCC_SPAN("first_trace_only");
  }
  ASSERT_TRUE(obs::Trace::stop());
  ASSERT_TRUE(obs::Trace::start(Second));
  {
    CMCC_SPAN("second_trace_only");
  }
  ASSERT_TRUE(obs::Trace::stop());

  std::string FirstJson = slurp(First);
  std::string SecondJson = slurp(Second);
  EXPECT_NE(FirstJson.find("first_trace_only"), std::string::npos);
  EXPECT_EQ(FirstJson.find("second_trace_only"), std::string::npos);
  EXPECT_NE(SecondJson.find("second_trace_only"), std::string::npos);
  EXPECT_EQ(SecondJson.find("first_trace_only"), std::string::npos);
  EXPECT_TRUE(JsonValidator(FirstJson).valid());
  EXPECT_TRUE(JsonValidator(SecondJson).valid());
  std::remove(First.c_str());
  std::remove(Second.c_str());
}

TEST(ObsTraceTest, SpanNamesAreJsonEscaped) {
  std::string Path = tempTracePath("obs_trace_escape.json");
  ASSERT_TRUE(obs::Trace::start(Path));
  {
    CMCC_SPAN("quote\"and\\slash");
  }
  ASSERT_TRUE(obs::Trace::stop());
  std::string Json = slurp(Path);
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  std::remove(Path.c_str());
}

TEST(ObsTraceTest, FileIsValidJsonAtEveryFlushBoundary) {
  std::string Path = tempTracePath("obs_trace_incremental.json");
  ASSERT_TRUE(obs::Trace::start(Path));

  // Before any span: start() already wrote a valid empty trace.
  EXPECT_TRUE(JsonValidator(slurp(Path)).valid());

  {
    CMCC_SPAN("first_flush_span");
  }
  ASSERT_TRUE(obs::Trace::flush());
  std::string Mid = slurp(Path);
  EXPECT_TRUE(JsonValidator(Mid).valid()) << Mid;
  EXPECT_NE(Mid.find("first_flush_span"), std::string::npos)
      << "a flushed span must be on disk while the trace is still live";

  {
    CMCC_SPAN("second_flush_span");
  }
  ASSERT_TRUE(obs::Trace::flush());
  std::string Later = slurp(Path);
  EXPECT_TRUE(JsonValidator(Later).valid()) << Later;
  EXPECT_NE(Later.find("first_flush_span"), std::string::npos);
  EXPECT_NE(Later.find("second_flush_span"), std::string::npos);

  ASSERT_TRUE(obs::Trace::stop());
  std::string Final = slurp(Path);
  EXPECT_TRUE(JsonValidator(Final).valid());
  EXPECT_EQ(traceEvents(Final).size(), 2u);
  std::remove(Path.c_str());
}

TEST(ObsTraceTest, BackgroundFlusherKeepsFileCurrent) {
  std::string Path = tempTracePath("obs_trace_flusher.json");
  ASSERT_TRUE(obs::Trace::start(Path, /*FlushIntervalMs=*/20));
  {
    CMCC_SPAN("flusher_visible_span");
  }
  // The span must reach disk without an explicit flush or stop.
  bool Seen = false;
  for (int I = 0; I != 200 && !Seen; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Seen = slurp(Path).find("flusher_visible_span") != std::string::npos;
  }
  EXPECT_TRUE(Seen);
  EXPECT_TRUE(JsonValidator(slurp(Path)).valid());
  ASSERT_TRUE(obs::Trace::stop());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Trace context
//===----------------------------------------------------------------------===//

TEST(ObsTraceContextTest, MintedIdsAreNonZeroAndDistinct) {
  uint64_t A = obs::mintTraceId();
  uint64_t B = obs::mintTraceId();
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_NE(A, B);
  EXPECT_NE(obs::mintSpanId(), obs::mintSpanId());
}

TEST(ObsTraceContextTest, FormatParseRoundTrip) {
  uint64_t Id = 0x0123456789abcdefULL;
  EXPECT_EQ(fingerprintHex(Id), "0123456789abcdef");
  EXPECT_EQ(obs::parseTraceId("0123456789abcdef"), Id);
  EXPECT_EQ(obs::parseTraceId("0x0123456789abcdef"), Id);
  EXPECT_EQ(obs::parseTraceId("not-hex"), 0u);
  EXPECT_EQ(obs::parseTraceId(""), 0u);
}

TEST(ObsTraceContextTest, ScopedContextNestsAndRestores) {
  EXPECT_FALSE(obs::currentTraceContext().valid());
  {
    obs::ScopedTraceContext Outer(0x1111u, 0x2222u);
    EXPECT_EQ(obs::currentTraceContext().TraceId, 0x1111u);
    EXPECT_EQ(obs::currentTraceContext().SpanId, 0x2222u);
    {
      obs::ScopedTraceContext Inner(0x3333u, 0x4444u);
      EXPECT_EQ(obs::currentTraceContext().TraceId, 0x3333u);
    }
    EXPECT_EQ(obs::currentTraceContext().TraceId, 0x1111u);
    EXPECT_EQ(obs::currentTraceContext().SpanId, 0x2222u);
  }
  EXPECT_FALSE(obs::currentTraceContext().valid());
  // A zero trace id is "not traced": the scope is a no-op.
  {
    obs::ScopedTraceContext NoOp(0, 0x5555u);
    EXPECT_FALSE(obs::currentTraceContext().valid());
  }
}

TEST(ObsTraceContextTest, SpansRecordTheAmbientContextIds) {
  std::string Path = tempTracePath("obs_trace_ctx.json");
  const uint64_t TraceId = obs::mintTraceId();
  ASSERT_TRUE(obs::Trace::start(Path));
  {
    obs::ScopedTraceContext Ctx(TraceId, obs::mintSpanId());
    CMCC_SPAN("traced_parent");
    {
      CMCC_SPAN("traced_child");
    }
  }
  {
    CMCC_SPAN("untraced_span");
  }
  ASSERT_TRUE(obs::Trace::stop());
  std::string Json = slurp(Path);
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;

  // Both traced spans carry the trace id; the untraced span has no args.
  const std::string Hex = fingerprintHex(TraceId);
  size_t Count = 0;
  for (size_t P = Json.find(Hex); P != std::string::npos;
       P = Json.find(Hex, P + 1))
    ++Count;
  EXPECT_EQ(Count, 2u) << Json;
  std::istringstream In(Json);
  std::string Line;
  std::string ParentSpanId, ChildParentId;
  auto Arg = [](const std::string &L, const char *Key) {
    size_t P = L.find(Key);
    if (P == std::string::npos)
      return std::string();
    P = L.find('"', P + std::strlen(Key) + 2);
    return L.substr(P + 1, 16);
  };
  while (std::getline(In, Line)) {
    if (Line.find("traced_parent") != std::string::npos)
      ParentSpanId = Arg(Line, "\"span_id\"");
    else if (Line.find("traced_child") != std::string::npos)
      ChildParentId = Arg(Line, "\"parent_id\"");
    else if (Line.find("untraced_span") != std::string::npos)
      EXPECT_EQ(Line.find("trace_id"), std::string::npos) << Line;
  }
  // The child's parent_id is the parent span's own id: a proper tree.
  ASSERT_FALSE(ParentSpanId.empty());
  EXPECT_EQ(ChildParentId, ParentSpanId);
  std::remove(Path.c_str());
}

TEST(ObsTraceContextTest, ThreadPoolWorkersInheritTheSubmitterContext) {
  std::string Path = tempTracePath("obs_trace_pool_ctx.json");
  const uint64_t TraceId = obs::mintTraceId();
  ASSERT_TRUE(obs::Trace::start(Path));
  {
    obs::ScopedTraceContext Ctx(TraceId, obs::mintSpanId());
    ThreadPool Pool(4);
    std::atomic<int> Hits{0};
    Pool.parallelFor(64, [&](int) {
      CMCC_SPAN("pool_body_span");
      Hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(Hits.load(), 64);
  }
  ASSERT_TRUE(obs::Trace::stop());
  std::string Json = slurp(Path);
  EXPECT_TRUE(JsonValidator(Json).valid());
  // Worker-side spans (threadpool.worker_run runs on pool threads)
  // carry the submitting thread's trace id.
  const std::string Hex = fingerprintHex(TraceId);
  std::istringstream In(Json);
  std::string Line;
  int WorkerTraced = 0;
  while (std::getline(In, Line))
    if (Line.find("threadpool.worker_run") != std::string::npos &&
        Line.find(Hex) != std::string::npos)
      ++WorkerTraced;
  EXPECT_GT(WorkerTraced, 0) << Json;
  std::remove(Path.c_str());
}

} // namespace
