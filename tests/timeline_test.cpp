//===- tests/timeline_test.cpp - Per-job timelines + wire trace -*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the observability tentpole: per-job event timelines must
/// mirror what actually happened to a job (retries, fallback,
/// deadline, cancel) under armed faults; the finished ring is bounded;
/// timelineJson parses; and the distributed-trace context a client
/// mints crosses the wire — the server's timeline records the client's
/// trace id, spans from both sides of the socket share it in one trace
/// file, and the flight recorder is queryable over the wire with the
/// fired faults inside. Runs under ThreadSanitizer in
/// tools/check_tsan.sh.
///
//===----------------------------------------------------------------------===//

#include "TestJson.h"
#include "net/Client.h"
#include "net/Server.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "service/StencilService.h"
#include "support/FaultInjection.h"
#include "support/Hash.h"
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <unistd.h>
#include <vector>

using namespace cmcc;
using testjson::JsonValidator;
using testjson::slurp;

namespace {

constexpr const char *CrossSource = "R = C1*CSHIFT(X,1,-1) + C2*X";

MachineConfig machine() { return MachineConfig::withNodeGrid(2, 2); }

fault::Rule rule(const char *Site, double Rate, long MaxFires = -1,
                 long DelayMs = 0) {
  fault::Rule R;
  R.Site = Site;
  R.Rate = Rate;
  R.MaxFires = MaxFires;
  if (DelayMs > 0) {
    R.Kind = fault::Action::Delay;
    R.DelayMs = DelayMs;
  }
  return R;
}

StencilService::JobRequest timingJob(int Sub = 8) {
  StencilService::JobRequest Req;
  Req.Kind = StencilService::SourceKind::FortranAssignment;
  Req.Source = CrossSource;
  Req.SubRows = Req.SubCols = Sub;
  return Req;
}

/// Events of one kind, in order.
std::vector<StencilService::TimelineEntry>
eventsOf(const StencilService::JobTimeline &T, StencilService::JobEvent E) {
  std::vector<StencilService::TimelineEntry> Out;
  for (const StencilService::TimelineEntry &Entry : T.Events)
    if (Entry.Event == E)
      Out.push_back(Entry);
  return Out;
}

bool hasEvent(const StencilService::JobTimeline &T,
              StencilService::JobEvent E) {
  return !eventsOf(T, E).empty();
}

/// The process fault registry is shared; every test starts and ends
/// disarmed (same discipline as fault_injection_test).
class TimelineTest : public ::testing::Test {
protected:
  void SetUp() override {
    fault::Registry::process().reset();
    fault::Registry::process().setSeed(0);
  }
  void TearDown() override { fault::Registry::process().reset(); }
};

TEST_F(TimelineTest, CleanJobTimelineIsCompleteAndOrdered) {
  StencilService::Options Opts;
  Opts.Workers = 1;
  StencilService Service(machine(), Opts);
  StencilService::JobId Id = Service.submit(timingJob());
  StencilService::JobResult R = Service.wait(Id);
  ASSERT_TRUE(R.Ok) << R.Message;

  std::optional<StencilService::JobTimeline> T = Service.timeline(Id);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Id, Id);
  EXPECT_EQ(T->Status, StencilService::JobStatus::Ok);
  EXPECT_EQ(T->Fingerprint, R.Fingerprint);

  // The canonical life cycle, in order.
  const StencilService::JobEvent Expected[] = {
      StencilService::JobEvent::Submitted,
      StencilService::JobEvent::Queued,
      StencilService::JobEvent::Dequeued,
      StencilService::JobEvent::CompileBegin,
      StencilService::JobEvent::CompileEnd,
      StencilService::JobEvent::ExecuteAttempt,
      StencilService::JobEvent::Done,
  };
  size_t Want = 0;
  for (const StencilService::TimelineEntry &E : T->Events)
    if (Want != std::size(Expected) && E.Event == Expected[Want])
      ++Want;
  EXPECT_EQ(Want, std::size(Expected))
      << "missing life-cycle event #" << Want;
  // Timestamps never run backwards.
  for (size_t I = 1; I < T->Events.size(); ++I)
    EXPECT_LE(T->Events[I - 1].Ns, T->Events[I].Ns);
  EXPECT_FALSE(hasEvent(*T, StencilService::JobEvent::Retry));
  EXPECT_FALSE(hasEvent(*T, StencilService::JobEvent::Failed));
}

TEST_F(TimelineTest, RetriesAppearInTheTimelineAttemptByAttempt) {
  fault::Registry::process().arm(rule("backend.cm2.run", 1.0, /*MaxFires=*/2));
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.MaxRetries = 3;
  StencilService Service(machine(), Opts);
  StencilService::JobId Id = Service.submit(timingJob());
  StencilService::JobResult R = Service.wait(Id);
  ASSERT_TRUE(R.Ok) << R.Message;
  ASSERT_EQ(R.Retries, 2);

  std::optional<StencilService::JobTimeline> T = Service.timeline(Id);
  ASSERT_TRUE(T.has_value());
  // The timeline must match the actual history: three attempts, the
  // first two failing transiently, numbered 1..3 in Detail.
  auto Attempts = eventsOf(*T, StencilService::JobEvent::ExecuteAttempt);
  auto Transients = eventsOf(*T, StencilService::JobEvent::TransientFailure);
  auto Retries = eventsOf(*T, StencilService::JobEvent::Retry);
  ASSERT_EQ(Attempts.size(), 3u);
  EXPECT_EQ(Transients.size(), 2u);
  EXPECT_EQ(Retries.size(), 2u);
  for (size_t I = 0; I != Attempts.size(); ++I)
    EXPECT_EQ(Attempts[I].Detail, static_cast<int32_t>(I + 1));
  for (size_t I = 0; I != Transients.size(); ++I)
    EXPECT_EQ(Transients[I].Detail, static_cast<int32_t>(I + 1));
  EXPECT_TRUE(hasEvent(*T, StencilService::JobEvent::Done));
  EXPECT_FALSE(hasEvent(*T, StencilService::JobEvent::Fallback));
}

TEST_F(TimelineTest, FallbackIsRecorded) {
  fault::Registry::process().arm(rule("backend.native.run", 1.0));
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.Backend = "native";
  Opts.MaxRetries = 1;
  StencilService Service(machine(), Opts);
  StencilService::JobId Id = Service.submit(timingJob());
  StencilService::JobResult R = Service.wait(Id);
  ASSERT_TRUE(R.Ok) << R.Message;
  ASSERT_TRUE(R.FellBack);

  std::optional<StencilService::JobTimeline> T = Service.timeline(Id);
  ASSERT_TRUE(T.has_value());
  EXPECT_TRUE(hasEvent(*T, StencilService::JobEvent::Fallback));
  EXPECT_TRUE(hasEvent(*T, StencilService::JobEvent::Done));
  // The fallback attempt follows the failed primary attempts.
  auto Attempts = eventsOf(*T, StencilService::JobEvent::ExecuteAttempt);
  EXPECT_GE(Attempts.size(), 2u);
}

TEST_F(TimelineTest, CancelledJobArchivesACancelTimeline) {
  // A delay fault pins the worker on the first job long enough for the
  // second to be cancelled while still queued.
  fault::Registry::process().arm(
      rule("backend.cm2.run", 1.0, /*MaxFires=*/1, /*DelayMs=*/300));
  StencilService::Options Opts;
  Opts.Workers = 1;
  StencilService Service(machine(), Opts);
  StencilService::JobId First = Service.submit(timingJob());
  StencilService::JobId Second = Service.submit(timingJob());
  ASSERT_TRUE(Service.cancel(Second));
  StencilService::JobResult R1 = Service.wait(First);
  EXPECT_TRUE(R1.Ok) << R1.Message;
  StencilService::JobResult R2 = Service.wait(Second);
  EXPECT_EQ(R2.Status, StencilService::JobStatus::Cancelled);

  std::optional<StencilService::JobTimeline> T = Service.timeline(Second);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Status, StencilService::JobStatus::Cancelled);
  EXPECT_TRUE(hasEvent(*T, StencilService::JobEvent::Submitted));
  EXPECT_TRUE(hasEvent(*T, StencilService::JobEvent::Queued));
  EXPECT_TRUE(hasEvent(*T, StencilService::JobEvent::Cancelled));
  // Never ran: no dequeue, no compile, no execute.
  EXPECT_FALSE(hasEvent(*T, StencilService::JobEvent::Dequeued));
  EXPECT_FALSE(hasEvent(*T, StencilService::JobEvent::ExecuteAttempt));
}

TEST_F(TimelineTest, DeadlineExceededIsRecorded) {
  // Job A's execute sleeps past the budget (and still succeeds — racing
  // results are delivered); job B spends the whole budget queued behind
  // it and is cancelled at the dequeue boundary.
  fault::Registry::process().arm(
      rule("backend.cm2.run", 1.0, /*MaxFires=*/1, /*DelayMs=*/300));
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.DeadlineMs = 80;
  StencilService Service(machine(), Opts);
  StencilService::JobId A = Service.submit(timingJob());
  StencilService::JobId B = Service.submit(timingJob());
  EXPECT_TRUE(Service.wait(A).Ok);
  StencilService::JobResult R = Service.wait(B);
  ASSERT_FALSE(R.Ok);
  ASSERT_EQ(R.Status, StencilService::JobStatus::DeadlineExceeded);

  std::optional<StencilService::JobTimeline> T = Service.timeline(B);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Status, StencilService::JobStatus::DeadlineExceeded);
  EXPECT_TRUE(hasEvent(*T, StencilService::JobEvent::DeadlineExceeded));
  EXPECT_FALSE(hasEvent(*T, StencilService::JobEvent::CompileBegin));
}

TEST_F(TimelineTest, FinishedRingIsBounded) {
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.TimelineRingCap = 4;
  StencilService Service(machine(), Opts);
  std::vector<StencilService::JobId> Ids;
  for (int I = 0; I != 10; ++I)
    Ids.push_back(Service.submit(timingJob()));
  for (StencilService::JobId Id : Ids)
    Service.wait(Id);

  int Kept = 0;
  for (StencilService::JobId Id : Ids)
    if (Service.timeline(Id))
      ++Kept;
  EXPECT_EQ(Kept, 4);
  // The survivors are the newest four.
  for (size_t I = Ids.size() - 4; I != Ids.size(); ++I)
    EXPECT_TRUE(Service.timeline(Ids[I]).has_value());
  EXPECT_FALSE(Service.timeline(Ids.front()).has_value());
}

TEST_F(TimelineTest, TimelineJsonParsesAndNamesEvents) {
  StencilService service(machine(), {});
  StencilService::JobId Id = service.submit(timingJob());
  service.wait(Id);

  std::string Json = service.timelineJson(Id);
  ASSERT_FALSE(Json.empty());
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"status\": \"ok\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"submitted\""), std::string::npos);
  EXPECT_NE(Json.find("\"execute_attempt\""), std::string::npos);
  EXPECT_NE(Json.find("\"done\""), std::string::npos);
  // Unknown job: empty, not an exception.
  EXPECT_TRUE(service.timelineJson(999999).empty());
}

TEST_F(TimelineTest, SlowJobsAreFlaggedAndCounted) {
  fault::Registry::process().arm(
      rule("backend.cm2.run", 1.0, /*MaxFires=*/1, /*DelayMs=*/120));
  StencilService::Options Opts;
  Opts.Workers = 1;
  Opts.SlowJobMs = 50;
  StencilService Service(machine(), Opts);
  StencilService::JobId Slow = Service.submit(timingJob());
  ASSERT_TRUE(Service.wait(Slow).Ok);

  std::optional<StencilService::JobTimeline> T = Service.timeline(Slow);
  ASSERT_TRUE(T.has_value());
  ASSERT_TRUE(hasEvent(*T, StencilService::JobEvent::SlowJob));
  // Detail carries the total latency in ms; it must be over threshold.
  EXPECT_GE(eventsOf(*T, StencilService::JobEvent::SlowJob)[0].Detail, 50);
  // The service's own registry counts it.
  EXPECT_NE(Service.metrics().json("service.").find("\"service.slow_jobs\": 1"),
            std::string::npos);

  // A fast job in the same service is not flagged.
  StencilService::JobId Fast = Service.submit(timingJob());
  ASSERT_TRUE(Service.wait(Fast).Ok);
  std::optional<StencilService::JobTimeline> TF = Service.timeline(Fast);
  ASSERT_TRUE(TF.has_value());
  EXPECT_FALSE(hasEvent(*TF, StencilService::JobEvent::SlowJob));
}

TEST_F(TimelineTest, InProcessJobCarriesTheSubmitterTraceId) {
  StencilService service(machine(), {});
  StencilService::JobRequest Req = timingJob();
  Req.TraceId = obs::mintTraceId();
  Req.ParentSpan = obs::mintSpanId();
  StencilService::JobId Id = service.submit(Req);
  ASSERT_TRUE(service.wait(Id).Ok);

  std::optional<StencilService::JobTimeline> T = service.timeline(Id);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->TraceId, Req.TraceId);
  std::string Json = service.timelineJson(Id);
  EXPECT_NE(Json.find(fingerprintHex(Req.TraceId)), std::string::npos)
      << Json;
}

//===----------------------------------------------------------------------===//
// Across the wire
//===----------------------------------------------------------------------===//

/// A unique, short (sun_path is 108 bytes) socket path per call.
std::string socketPath() {
  static int Counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("cmcc_tl_t" + std::to_string(::getpid()) + "_" +
           std::to_string(++Counter) + ".sock"))
      .string();
}

struct WireHarness {
  MachineConfig M = machine();
  std::unique_ptr<StencilService> Service;
  std::unique_ptr<net::Server> Server;
  net::Endpoint Ep;

  explicit WireHarness(StencilService::Options SOpts = {}) {
    Service = std::make_unique<StencilService>(M, SOpts);
    Ep.Transport = net::Endpoint::Kind::Unix;
    Ep.Path = socketPath();
    net::Server::Options NOpts;
    NOpts.Listen.push_back(Ep);
    NOpts.Banner = "timeline_test";
    Server = std::make_unique<net::Server>(*Service, NOpts);
    Error E = Server->start();
    EXPECT_FALSE(E) << E.message();
  }

  ~WireHarness() {
    Server->stop();
    std::filesystem::remove(Ep.Path);
  }

  std::unique_ptr<net::Client> client() {
    net::Client::Options Opts;
    Opts.Target = Ep;
    Expected<std::unique_ptr<net::Client>> C = net::Client::connect(Opts);
    EXPECT_TRUE(C) << (C ? "" : C.error().message());
    return C ? C.takeValue() : nullptr;
  }
};

std::string tracePath(const char *Stem) { return ::testing::TempDir() + Stem; }

TEST_F(TimelineTest, ClientMintedTraceIdCrossesTheWire) {
  // One retry so the wire timeline shows real recovery history too.
  fault::Registry::process().arm(rule("backend.cm2.run", 1.0, /*MaxFires=*/1));
  StencilService::Options SOpts;
  SOpts.Workers = 1;
  SOpts.MaxRetries = 2;
  WireHarness H(SOpts);
  std::unique_ptr<net::Client> C = H.client();
  ASSERT_NE(C, nullptr);

  const std::string Path = tracePath("timeline_wire_trace.json");
  ASSERT_TRUE(obs::Trace::start(Path));
  const uint64_t TraceId = obs::mintTraceId();
  net::SubmitRequest Req;
  Req.Kind =
      static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
  Req.Source = CrossSource;
  Req.SubRows = Req.SubCols = 8;
  Req.Iterations = 1;
  Req.TraceId = TraceId;
  Req.ParentSpan = obs::mintSpanId();
  Expected<net::SubmitResponse> S = C->submit(Req);
  ASSERT_TRUE(S) << S.error().message();
  Expected<net::WaitResponse> W = C->wait(S->JobId);
  ASSERT_TRUE(W) << W.error().message();
  ASSERT_TRUE(W->Ok) << W->Message;
  EXPECT_EQ(W->Retries, 1u);

  // The result is delivered from *inside* the worker's service.job
  // span, so that span closes a beat after wait() returns — poll the
  // incrementally flushed file until both sides' spans are on disk.
  const std::string Hex = fingerprintHex(TraceId);
  bool ServerTagged = false, ServiceTagged = false;
  std::string TraceJson;
  for (int Try = 0; Try != 200 && !(ServerTagged && ServiceTagged); ++Try) {
    if (Try)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    obs::Trace::flush();
    TraceJson = slurp(Path);
    std::istringstream In(TraceJson);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.find(Hex) == std::string::npos)
        continue;
      if (Line.find("server.submit") != std::string::npos)
        ServerTagged = true;
      if (Line.find("service.job") != std::string::npos)
        ServiceTagged = true;
    }
  }
  ASSERT_TRUE(obs::Trace::stop());

  // 1. The wire timeline records the client's trace id and the retry.
  Expected<net::TimelineResponse> T = C->timeline(S->JobId);
  ASSERT_TRUE(T) << T.error().message();
  ASSERT_TRUE(T->Found);
  EXPECT_TRUE(JsonValidator(T->Json).valid()) << T->Json;
  EXPECT_NE(T->Json.find(fingerprintHex(TraceId)), std::string::npos)
      << T->Json;
  EXPECT_NE(T->Json.find("\"retry\""), std::string::npos) << T->Json;
  EXPECT_NE(T->Json.find("\"transient_failure\""), std::string::npos);
  EXPECT_NE(T->Json.find("\"done\""), std::string::npos);

  // 2. Spans on both sides of the socket share the client-minted id:
  // the server's submit dispatch and the service worker's job span.
  EXPECT_TRUE(ServerTagged) << TraceJson;
  EXPECT_TRUE(ServiceTagged) << TraceJson;
  EXPECT_TRUE(JsonValidator(slurp(Path)).valid());

  // 3. The flight recorder is queryable over the wire, and the armed
  // fault's firing is in it, tagged with the same trace id.
  Expected<net::DumpResponse> D = C->dump();
  ASSERT_TRUE(D) << D.error().message();
  EXPECT_TRUE(JsonValidator(D->Json).valid()) << D->Json;
  EXPECT_NE(D->Json.find("\"fault_fired\""), std::string::npos) << D->Json;
  EXPECT_NE(D->Json.find("backend.cm2.run"), std::string::npos);
  EXPECT_NE(D->Json.find(Hex), std::string::npos)
      << "the fired fault should carry the job's trace id";
  std::remove(Path.c_str());
}

TEST_F(TimelineTest, ServedJobSplitsDecodeScatterAndDeliver) {
  // A traced job with grids accounts for the server's side of its round
  // trip: decoding the frame, scattering the grids into subgrids, and
  // delivering the result each leave a span under the client's trace
  // id, and the worker-to-poll-thread hop leaves one histogram sample.
  WireHarness H;
  std::unique_ptr<net::Client> C = H.client();
  ASSERT_NE(C, nullptr);
  obs::Histogram &Hop =
      obs::Registry::process().histogram("net.finish_to_deliver_us");
  const long HopsBefore = Hop.count();

  const std::string Path = tracePath("timeline_server_split_trace.json");
  ASSERT_TRUE(obs::Trace::start(Path));
  const uint64_t TraceId = obs::mintTraceId();
  net::SubmitRequest Req;
  Req.Kind =
      static_cast<uint8_t>(StencilService::SourceKind::FortranAssignment);
  Req.Source = CrossSource;
  Req.ResultName = "R";
  Req.TraceId = TraceId;
  Req.ParentSpan = obs::mintSpanId();
  const int Rows = 8 * H.M.NodeRows, Cols = 8 * H.M.NodeCols;
  uint64_t Seed = 41;
  for (auto [Name, Role] :
       {std::pair{"X", net::SubmitRequest::Role::Source},
        std::pair{"C1", net::SubmitRequest::Role::Coefficient},
        std::pair{"C2", net::SubmitRequest::Role::Coefficient}}) {
    net::SubmitRequest::BoundGrid B;
    B.Kind = Role;
    B.Grid.Name = Name;
    B.Grid.Rows = static_cast<uint32_t>(Rows);
    B.Grid.Cols = static_cast<uint32_t>(Cols);
    Array2D G(Rows, Cols);
    G.fillRandom(Seed++);
    B.Grid.Data.assign(G.data(), G.data() + static_cast<size_t>(Rows) * Cols);
    Req.Grids.push_back(std::move(B));
  }
  Expected<net::SubmitResponse> S = C->submit(Req);
  ASSERT_TRUE(S) << S.error().message();
  Expected<net::WaitResponse> W = C->wait(S->JobId);
  ASSERT_TRUE(W) << W.error().message();
  ASSERT_TRUE(W->Ok) << W->Message;
  EXPECT_TRUE(W->HasResult);

  const std::string Hex = fingerprintHex(TraceId);
  const char *Names[] = {"\"server.decode\"", "\"server.scatter\"",
                         "\"server.deliver\""};
  bool Seen[3] = {false, false, false};
  std::string TraceJson;
  for (int Try = 0; Try != 200 && !(Seen[0] && Seen[1] && Seen[2]); ++Try) {
    if (Try)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    obs::Trace::flush();
    TraceJson = slurp(Path);
    std::istringstream In(TraceJson);
    std::string Line;
    while (std::getline(In, Line))
      if (Line.find(Hex) != std::string::npos)
        for (int I = 0; I != 3; ++I)
          Seen[I] = Seen[I] || Line.find(Names[I]) != std::string::npos;
  }
  ASSERT_TRUE(obs::Trace::stop());
  for (int I = 0; I != 3; ++I)
    EXPECT_TRUE(Seen[I]) << Names[I] << " under the job's trace id\n"
                         << TraceJson;
  EXPECT_EQ(Hop.count() - HopsBefore, 1);
  std::remove(Path.c_str());
}

TEST_F(TimelineTest, WireTimelineForUnknownJobIsNotFound) {
  WireHarness H;
  std::unique_ptr<net::Client> C = H.client();
  ASSERT_NE(C, nullptr);
  Expected<net::TimelineResponse> T = C->timeline(424242);
  ASSERT_TRUE(T) << T.error().message();
  EXPECT_FALSE(T->Found);
  EXPECT_TRUE(T->Json.empty());
}

} // namespace
