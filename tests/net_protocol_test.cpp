//===- tests/net_protocol_test.cpp - Wire-codec robustness ----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decode half of the network protocol is the part of the system a
/// hostile or broken peer talks to directly, so it gets the harshest
/// contract in the repo (net/Wire.h): any byte stream — truncated,
/// bit-flipped, random — must produce a clean decode failure or a valid
/// message, never a crash, never an over-read, never an allocation
/// sized by an unvalidated length. These tests sweep that contract:
/// round trips for every message, every truncation prefix, single-byte
/// corruption across entire frames, and random-byte storms through
/// every decoder.
///
//===----------------------------------------------------------------------===//

#include "net/Protocol.h"
#include "net/Wire.h"
#include "support/Random.h"
#include <gtest/gtest.h>
#include <algorithm>
#include <cstring>

using namespace cmcc;
using namespace cmcc::net;

namespace {

/// A representative instance of every message, with every field off its
/// default so round trips actually prove the codecs move the bytes.
HelloRequest sampleHelloRequest() {
  HelloRequest M;
  M.ClientName = "net_protocol_test";
  return M;
}

HelloResponse sampleHelloResponse() {
  HelloResponse M;
  M.Banner = "gcc 0.0; flags: -Otest";
  M.Machine = "16 nodes (4x4)";
  return M;
}

GridPayload sampleGrid(const char *Name, uint32_t Rows, uint32_t Cols,
                       uint64_t Seed) {
  GridPayload G;
  G.Name = Name;
  G.Rows = Rows;
  G.Cols = Cols;
  SplitMix64 R(Seed);
  G.Data.resize(static_cast<size_t>(Rows) * Cols);
  for (float &F : G.Data)
    F = static_cast<float>(R.nextBelow(1000)) / 500.0f - 1.0f;
  return G;
}

SubmitRequest sampleSubmitRequest() {
  SubmitRequest M;
  M.Kind = 1;
  M.Source = "R = C1*CSHIFT(X,1,-1) + C2*X";
  M.Fingerprint = 0xdeadbeefcafef00dull;
  M.SubRows = 8;
  M.SubCols = 16;
  M.Iterations = 3;
  M.ResultName = "R";
  SubmitRequest::BoundGrid Src;
  Src.Kind = SubmitRequest::Role::Source;
  Src.Grid = sampleGrid("X", 16, 32, 1);
  M.Grids.push_back(std::move(Src));
  SubmitRequest::BoundGrid Coeff;
  Coeff.Kind = SubmitRequest::Role::Coefficient;
  Coeff.Grid = sampleGrid("C1", 16, 32, 2);
  M.Grids.push_back(std::move(Coeff));
  return M;
}

WaitResponse sampleWaitResponse() {
  WaitResponse M;
  M.Ok = 1;
  M.Status = 0;
  M.Fingerprint = 0x123456789abcdef0ull;
  M.CacheHit = 1;
  M.CompileSeconds = 0.125;
  M.ExecuteSeconds = 2.5;
  M.Retries = 2;
  M.FellBack = 1;
  M.CyclesCompute = 7777;
  M.CyclesPipeReversal = 11;
  M.CyclesLineOverhead = 22;
  M.CyclesStripStartup = 33;
  M.CyclesCommunication = 44;
  M.UsefulFlopsPerNodePerIteration = 1234;
  M.Iterations = 100;
  M.HostSecondsPerIteration = 0.001;
  M.Nodes = 16;
  M.ClockMHz = 7.0;
  M.HasResult = 1;
  M.Result = sampleGrid("R", 8, 8, 3);
  return M;
}

StatsResponse sampleStatsResponse() {
  StatsResponse M;
  M.Json = "{\"jobs_submitted\": 3}";
  M.Table = "jobs submitted    3\n";
  return M;
}

ErrorResponse sampleErrorResponse() {
  ErrorResponse M;
  M.Code = ErrBadRequest;
  M.Message = "that was not a frame";
  return M;
}

/// Runs \p Decode over \p Data and reports only whether it succeeded —
/// the harness for sweeps that assert "no crash, clean failure".
template <typename DecodeFn>
bool decodes(DecodeFn Decode, const std::vector<uint8_t> &Data) {
  auto Result = Decode(Data.data(), Data.size());
  return static_cast<bool>(Result);
}

/// Every decoder behind one uniform signature, so sweeps can storm all
/// of them with the same bytes.
using AnyDecoder = bool (*)(const uint8_t *, size_t);
const AnyDecoder AllDecoders[] = {
    [](const uint8_t *D, size_t N) { return !!decodeHelloRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeHelloResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeSubmitRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeSubmitView(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeSubmitResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodePollRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodePollResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeWaitRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeWaitResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeCancelRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeCancelResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeStatsRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeStatsResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeErrorResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeTimelineRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeTimelineResponse(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeDumpRequest(D, N); },
    [](const uint8_t *D, size_t N) { return !!decodeDumpResponse(D, N); },
};

} // namespace

//===----------------------------------------------------------------------===//
// Frame header
//===----------------------------------------------------------------------===//

TEST(NetWireTest, FrameHeaderRoundTrip) {
  FrameHeader H;
  H.Type = MsgType::SubmitRequest;
  H.Tenant = 42;
  H.RequestId = 0x1122334455667788ull;
  H.PayloadBytes = 1000;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> Back = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Version, ProtocolVersion);
  EXPECT_EQ(Back->Type, MsgType::SubmitRequest);
  EXPECT_EQ(Back->Tenant, 42u);
  EXPECT_EQ(Back->RequestId, 0x1122334455667788ull);
  EXPECT_EQ(Back->PayloadBytes, 1000u);
}

TEST(NetWireTest, FrameHeaderRejectsEveryTruncation) {
  FrameHeader H;
  H.Type = MsgType::HelloRequest;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  for (size_t Len = 0; Len != FrameHeaderBytes; ++Len)
    EXPECT_FALSE(decodeFrameHeader(Buf, Len)) << "length " << Len;
}

TEST(NetWireTest, FrameHeaderRejectsEverySingleByteFlip) {
  // The checksum covers bytes [0, 24) and the flip of a checksum byte
  // breaks the comparison itself, so *every* single-byte corruption of
  // a valid header must be rejected.
  FrameHeader H;
  H.Type = MsgType::WaitRequest;
  H.Tenant = 7;
  H.RequestId = 99;
  H.PayloadBytes = 16;
  uint8_t Good[FrameHeaderBytes];
  encodeFrameHeader(H, Good);
  for (size_t I = 0; I != FrameHeaderBytes; ++I) {
    uint8_t Bad[FrameHeaderBytes];
    std::memcpy(Bad, Good, sizeof(Good));
    Bad[I] ^= 0x5A;
    EXPECT_FALSE(decodeFrameHeader(Bad, sizeof(Bad))) << "byte " << I;
  }
}

TEST(NetWireTest, FrameHeaderRejectsWrongVersionAndUnknownType) {
  // Flipping bytes in place trips the checksum first, so wrong-version
  // and unknown-type headers are built whole (valid checksum) to prove
  // their own checks fire.
  FrameHeader H;
  H.Version = ProtocolVersion + 1;
  H.Type = MsgType::HelloRequest;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> R = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("version"), std::string::npos);

  H.Version = ProtocolVersion;
  H.Type = static_cast<MsgType>(999);
  encodeFrameHeader(H, Buf);
  R = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("type"), std::string::npos);
}

TEST(NetWireTest, FrameHeaderRefusesVersionTwo) {
  // A v2 peer checksums grids with byte-serial FNV-1a: it is refused at
  // the header, by name, before any of its grids could fail to verify.
  FrameHeader H;
  H.Version = 2;
  H.Type = MsgType::SubmitRequest;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> R = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("unsupported protocol version 2"),
            std::string::npos)
      << R.error().message();
}

TEST(NetWireTest, FrameHeaderRejectsOversizedPayloadLength) {
  // A header honestly declaring a payload past the cap must be refused
  // before anything trusts the length — this is the anti-balloon check.
  FrameHeader H;
  H.Type = MsgType::SubmitRequest;
  H.PayloadBytes = MaxPayloadBytes + 1;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> R = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("payload"), std::string::npos);
}

TEST(NetWireTest, BuildFrameMatchesHeaderPlusPayload) {
  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> Frame =
      buildFrame(MsgType::PollRequest, /*RequestId=*/5, /*Tenant=*/3, Payload);
  ASSERT_EQ(Frame.size(), FrameHeaderBytes + Payload.size());
  Expected<FrameHeader> H = decodeFrameHeader(Frame.data(), Frame.size());
  ASSERT_TRUE(H);
  EXPECT_EQ(H->Type, MsgType::PollRequest);
  EXPECT_EQ(H->RequestId, 5u);
  EXPECT_EQ(H->Tenant, 3u);
  EXPECT_EQ(H->PayloadBytes, Payload.size());
  EXPECT_EQ(std::vector<uint8_t>(Frame.begin() + FrameHeaderBytes, Frame.end()),
            Payload);
}

//===----------------------------------------------------------------------===//
// Message round trips
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, HelloRoundTrip) {
  std::vector<uint8_t> B = encode(sampleHelloRequest());
  Expected<HelloRequest> Req = decodeHelloRequest(B.data(), B.size());
  ASSERT_TRUE(Req);
  EXPECT_EQ(Req->ClientName, "net_protocol_test");

  B = encode(sampleHelloResponse());
  Expected<HelloResponse> Res = decodeHelloResponse(B.data(), B.size());
  ASSERT_TRUE(Res);
  EXPECT_EQ(Res->Version, ProtocolVersion);
  EXPECT_EQ(Res->Banner, "gcc 0.0; flags: -Otest");
  EXPECT_EQ(Res->Machine, "16 nodes (4x4)");
}

TEST(NetProtocolTest, SubmitRoundTripKeepsGridsBitwise) {
  const SubmitRequest M = sampleSubmitRequest();
  std::vector<uint8_t> B = encode(M);
  Expected<SubmitRequest> Back = decodeSubmitRequest(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Kind, M.Kind);
  EXPECT_EQ(Back->Source, M.Source);
  EXPECT_EQ(Back->Fingerprint, M.Fingerprint);
  EXPECT_EQ(Back->SubRows, M.SubRows);
  EXPECT_EQ(Back->SubCols, M.SubCols);
  EXPECT_EQ(Back->Iterations, M.Iterations);
  EXPECT_EQ(Back->ResultName, M.ResultName);
  ASSERT_EQ(Back->Grids.size(), M.Grids.size());
  for (size_t I = 0; I != M.Grids.size(); ++I) {
    EXPECT_EQ(Back->Grids[I].Kind, M.Grids[I].Kind);
    EXPECT_EQ(Back->Grids[I].Grid.Name, M.Grids[I].Grid.Name);
    EXPECT_EQ(Back->Grids[I].Grid.Rows, M.Grids[I].Grid.Rows);
    EXPECT_EQ(Back->Grids[I].Grid.Cols, M.Grids[I].Grid.Cols);
    // Bitwise, not approximately: floats cross the wire as raw IEEE
    // bit patterns.
    ASSERT_EQ(Back->Grids[I].Grid.Data.size(), M.Grids[I].Grid.Data.size());
    EXPECT_EQ(std::memcmp(Back->Grids[I].Grid.Data.data(),
                          M.Grids[I].Grid.Data.data(),
                          M.Grids[I].Grid.Data.size() * sizeof(float)),
              0);
  }
}

TEST(NetProtocolTest, SubmitViewPointsIntoThePayloadBitwise) {
  // The server's form: the same decode, but each grid is a view into
  // the payload bytes, not a copy.
  const SubmitRequest M = sampleSubmitRequest();
  const std::vector<uint8_t> B = encode(M);
  Expected<SubmitView> V = decodeSubmitView(B.data(), B.size());
  ASSERT_TRUE(V);
  EXPECT_EQ(V->Source, M.Source);
  EXPECT_EQ(V->ResultName, M.ResultName);
  ASSERT_EQ(V->Grids.size(), M.Grids.size());
  for (size_t I = 0; I != M.Grids.size(); ++I) {
    const GridView &G = V->Grids[I].Grid;
    const GridPayload &Want = M.Grids[I].Grid;
    EXPECT_EQ(V->Grids[I].Kind, M.Grids[I].Kind);
    EXPECT_EQ(G.Name, Want.Name);
    ASSERT_EQ(G.Rows, Want.Rows);
    ASSERT_EQ(G.Cols, Want.Cols);
    const size_t Bytes = Want.Data.size() * sizeof(float);
    EXPECT_GE(G.Data, B.data());
    EXPECT_LE(G.Data + Bytes, B.data() + B.size());
    EXPECT_EQ(std::memcmp(G.Data, Want.Data.data(), Bytes), 0);
  }
}

TEST(NetProtocolTest, EncodeReservesTheExactSubmitSize) {
  const std::vector<uint8_t> B = encode(sampleSubmitRequest());
  EXPECT_EQ(B.capacity(), B.size());
}

TEST(NetProtocolTest, InPlaceWaitFrameMatchesBuildFrameBytes) {
  // The server writes a result frame in place: header slot, fields, then
  // the grid filled by a callback. The bytes must be exactly what
  // buildFrame(encode()) gives for the same response.
  const WaitResponse M = sampleWaitResponse();
  ByteWriter W = ByteWriter::forFrame();
  encodeWaitFields(W, M);
  encodeGridInPlace(W, M.Result.Name, M.Result.Rows, M.Result.Cols,
                    [&](uint8_t *Dst) {
                      std::memcpy(Dst, M.Result.Data.data(),
                                  M.Result.Data.size() * sizeof(float));
                    });
  const std::vector<uint8_t> InPlace =
      W.takeFrame(MsgType::WaitResponse, /*RequestId=*/9, /*Tenant=*/4);
  EXPECT_EQ(InPlace,
            buildFrame(MsgType::WaitResponse, /*RequestId=*/9, /*Tenant=*/4,
                       encode(M)));
}

TEST(NetProtocolTest, WaitResponseRoundTripKeepsTimingExact) {
  const WaitResponse M = sampleWaitResponse();
  std::vector<uint8_t> B = encode(M);
  Expected<WaitResponse> Back = decodeWaitResponse(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Ok, M.Ok);
  EXPECT_EQ(Back->Fingerprint, M.Fingerprint);
  EXPECT_EQ(Back->CacheHit, M.CacheHit);
  EXPECT_EQ(Back->Retries, M.Retries);
  EXPECT_EQ(Back->FellBack, M.FellBack);
  EXPECT_EQ(Back->CompileSeconds, M.CompileSeconds);
  EXPECT_EQ(Back->ExecuteSeconds, M.ExecuteSeconds);
  // The reconstructed TimingReport must agree on every derived number:
  // rates a client computes match the server bit for bit.
  const TimingReport A = M.report(), C = Back->report();
  EXPECT_EQ(A.elapsedSeconds(), C.elapsedSeconds());
  EXPECT_EQ(A.measuredMflops(), C.measuredMflops());
  ASSERT_EQ(Back->HasResult, 1);
  EXPECT_EQ(std::memcmp(Back->Result.Data.data(), M.Result.Data.data(),
                        M.Result.Data.size() * sizeof(float)),
            0);
}

TEST(NetProtocolTest, SmallMessagesRoundTrip) {
  {
    SubmitResponse M;
    M.JobId = -12345;
    std::vector<uint8_t> B = encode(M);
    Expected<SubmitResponse> R = decodeSubmitResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->JobId, -12345);
  }
  {
    PollRequest M;
    M.JobId = 77;
    std::vector<uint8_t> B = encode(M);
    Expected<PollRequest> R = decodePollRequest(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->JobId, 77);
  }
  {
    PollResponse M;
    M.State = 3;
    std::vector<uint8_t> B = encode(M);
    Expected<PollResponse> R = decodePollResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->State, 3);
  }
  {
    CancelResponse M;
    M.Cancelled = 1;
    std::vector<uint8_t> B = encode(M);
    Expected<CancelResponse> R = decodeCancelResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Cancelled, 1);
  }
  {
    std::vector<uint8_t> B = encode(StatsRequest{});
    EXPECT_TRUE(B.empty());
    EXPECT_TRUE(decodeStatsRequest(B.data(), B.size()));
  }
  {
    const StatsResponse M = sampleStatsResponse();
    std::vector<uint8_t> B = encode(M);
    Expected<StatsResponse> R = decodeStatsResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Json, M.Json);
    EXPECT_EQ(R->Table, M.Table);
  }
  {
    const ErrorResponse M = sampleErrorResponse();
    std::vector<uint8_t> B = encode(M);
    Expected<ErrorResponse> R = decodeErrorResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Code, ErrBadRequest);
    EXPECT_EQ(R->Message, M.Message);
  }
}

//===----------------------------------------------------------------------===//
// Robustness sweeps
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, EveryTruncationPrefixFailsCleanly) {
  // Chop every valid payload at every length short of full: each prefix
  // must decode to a clean error. A prefix of a valid message is never
  // itself valid: every field is mandatory (the frame header refuses the
  // v1/v2 peers whose payloads ended early) and every codec ends with an
  // exhaustion check, so no decoder quietly ignores missing tail fields.
  struct Case {
    std::vector<uint8_t> Bytes;
    AnyDecoder Decode;
  };
  StatsResponse Stats = sampleStatsResponse();
  Stats.NetJson = "{}";
  Stats.NetTable = "net\n";
  const Case Cases[] = {
      {encode(sampleHelloRequest()), AllDecoders[0]},
      {encode(sampleHelloResponse()), AllDecoders[1]},
      {encode(sampleSubmitRequest()), AllDecoders[2]},
      {encode(sampleSubmitRequest()), AllDecoders[3]},
      {encode(sampleWaitResponse()), AllDecoders[8]},
      {encode(sampleStatsResponse()), AllDecoders[12]},
      {encode(Stats), AllDecoders[12]},
      {encode(sampleErrorResponse()), AllDecoders[13]},
  };
  for (const Case &C : Cases)
    for (size_t Len = 0; Len != C.Bytes.size(); ++Len)
      EXPECT_FALSE(C.Decode(C.Bytes.data(), Len)) << "prefix " << Len;
}

TEST(NetProtocolTest, SubmitRoundTripCarriesTraceContext) {
  SubmitRequest M = sampleSubmitRequest();
  M.TraceId = 0x0123456789abcdefull;
  M.ParentSpan = 0xfedcba9876543210ull;
  std::vector<uint8_t> B = encode(M);
  Expected<SubmitRequest> Back = decodeSubmitRequest(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->TraceId, M.TraceId);
  EXPECT_EQ(Back->ParentSpan, M.ParentSpan);
}

TEST(NetProtocolTest, StatsResponseCarriesNetMetrics) {
  StatsResponse M = sampleStatsResponse();
  M.NetJson = "{\"net.req_us.submit\": {\"count\": 4}}";
  M.NetTable = "net.req_us.submit  p50 12us\n";
  std::vector<uint8_t> B = encode(M);
  Expected<StatsResponse> Back = decodeStatsResponse(B.data(), B.size());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Json, M.Json);
  EXPECT_EQ(Back->Table, M.Table);
  EXPECT_EQ(Back->NetJson, M.NetJson);
  EXPECT_EQ(Back->NetTable, M.NetTable);
}

TEST(NetProtocolTest, TimelineAndDumpRoundTrip) {
  {
    TimelineRequest M;
    M.JobId = 4242;
    std::vector<uint8_t> B = encode(M);
    Expected<TimelineRequest> R = decodeTimelineRequest(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->JobId, 4242);
  }
  {
    TimelineResponse M;
    M.Found = 1;
    M.Json = "{\"id\": 4242, \"events\": []}";
    std::vector<uint8_t> B = encode(M);
    Expected<TimelineResponse> R = decodeTimelineResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Found, 1);
    EXPECT_EQ(R->Json, M.Json);
  }
  {
    std::vector<uint8_t> B = encode(DumpRequest{});
    EXPECT_TRUE(B.empty());
    EXPECT_TRUE(decodeDumpRequest(B.data(), B.size()));
  }
  {
    DumpResponse M;
    M.Json = "{\"events\": [{\"kind\": \"server_start\"}]}";
    std::vector<uint8_t> B = encode(M);
    Expected<DumpResponse> R = decodeDumpResponse(B.data(), B.size());
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Json, M.Json);
  }
}

TEST(NetWireTest, FrameHeaderAcceptsTheOldestSupportedVersion) {
  // Only versions outside [MinProtocolVersion, ProtocolVersion] are
  // refused.
  FrameHeader H;
  H.Version = MinProtocolVersion;
  H.Type = MsgType::SubmitRequest;
  uint8_t Buf[FrameHeaderBytes];
  encodeFrameHeader(H, Buf);
  Expected<FrameHeader> R = decodeFrameHeader(Buf, sizeof(Buf));
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Version, MinProtocolVersion);
}

TEST(NetProtocolTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> B = encode(sampleSubmitRequest());
  B.push_back(0);
  EXPECT_FALSE(decodeSubmitRequest(B.data(), B.size()));
  B = encode(sampleWaitResponse());
  B.push_back(0xFF);
  EXPECT_FALSE(decodeWaitResponse(B.data(), B.size()));
}

TEST(NetProtocolTest, SingleByteCorruptionNeverCrashes) {
  // Flip one byte at every offset of the big messages and run the
  // decoder: any outcome but a crash/over-read is acceptable (a flip in
  // a string body decodes fine; sanitizer builds catch the rest).
  std::vector<uint8_t> B = encode(sampleSubmitRequest());
  long Rejected = 0;
  for (size_t I = 0; I != B.size(); ++I) {
    std::vector<uint8_t> Bad = B;
    Bad[I] ^= 0xA5;
    if (!decodeSubmitRequest(Bad.data(), Bad.size()))
      ++Rejected;
  }
  // The structured regions (lengths, counts, checksums) dominate the
  // payload, so most flips must be caught.
  EXPECT_GT(Rejected, static_cast<long>(B.size() / 2));
}

TEST(NetProtocolTest, GridDataCorruptionIsCaughtByChecksum) {
  // A flipped bit inside the float block specifically must fail the
  // grid payload checksum — results never arrive silently wrong.
  GridPayload G = sampleGrid("X", 8, 8, 9);
  ByteWriter W;
  encodeGrid(W, G);
  std::vector<uint8_t> B = W.take();
  // The float block: after name (u32 + 1 byte), rows, cols, count.
  const size_t FloatsStart = 4 + G.Name.size() + 4 + 4 + 4;
  for (size_t I = FloatsStart; I != FloatsStart + 16; ++I) {
    std::vector<uint8_t> Bad = B;
    Bad[I] ^= 0x01;
    ByteReader R(Bad.data(), Bad.size());
    GridPayload Out;
    EXPECT_FALSE(decodeGrid(R, Out) && R.exhausted()) << "byte " << I;
  }
}

TEST(NetProtocolTest, EveryBitFlipInAGridPayloadFailsToDecode) {
  // 67 floats = 268 bytes: four whole 64-byte blocks through the
  // checksum's word lanes plus a 12-byte tail, so both paths are hit.
  GridPayload G = sampleGrid("X", 1, 67, 11);
  ByteWriter W;
  encodeGrid(W, G);
  std::vector<uint8_t> B = W.take();
  const size_t FloatsStart = 4 + G.Name.size() + 4 + 4 + 4;
  const size_t FloatsEnd = FloatsStart + 67 * sizeof(float);
  ASSERT_EQ(B.size(), FloatsEnd + sizeof(uint64_t));
  for (size_t I = FloatsStart; I != FloatsEnd; ++I)
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::vector<uint8_t> Bad = B;
      Bad[I] ^= static_cast<uint8_t>(1u << Bit);
      ByteReader R(Bad.data(), Bad.size());
      GridPayload Out;
      EXPECT_FALSE(decodeGrid(R, Out)) << "byte " << I << " bit " << Bit;
    }
}

TEST(NetProtocolTest, SwappedWordsInDifferentLanesFailToDecode) {
  // Words 0 and 1 of the float block feed checksum lanes 0 and 1; the
  // swap keeps every byte value, so only the lane structure can see it.
  GridPayload G = sampleGrid("X", 1, 67, 12);
  ByteWriter W;
  encodeGrid(W, G);
  std::vector<uint8_t> B = W.take();
  const size_t FloatsStart = 4 + G.Name.size() + 4 + 4 + 4;
  std::vector<uint8_t> Bad = B;
  ASSERT_NE(std::memcmp(&Bad[FloatsStart], &Bad[FloatsStart + 8], 8), 0);
  std::swap_ranges(Bad.begin() + FloatsStart, Bad.begin() + FloatsStart + 8,
                   Bad.begin() + FloatsStart + 8);
  ByteReader R(Bad.data(), Bad.size());
  GridPayload Out;
  EXPECT_FALSE(decodeGrid(R, Out));
  // The untouched payload still decodes: the failure is the swap's.
  ByteReader Good(B.data(), B.size());
  EXPECT_TRUE(decodeGrid(Good, Out) && Good.exhausted());
}

TEST(NetProtocolTest, GridRejectsShapeMismatchAndHostileCounts) {
  // Rows*Cols must equal the element count.
  GridPayload G = sampleGrid("X", 4, 4, 10);
  G.Rows = 5;
  ByteWriter W;
  encodeGrid(W, G);
  std::vector<uint8_t> B = W.take();
  ByteReader R(B.data(), B.size());
  GridPayload Out;
  EXPECT_FALSE(decodeGrid(R, Out));

  // A hand-built payload whose count field claims 2^24 floats backed by
  // 4 actual bytes: the reader must refuse before allocating, not
  // resize a 64 MB vector and crawl off the buffer.
  ByteWriter W2;
  W2.str("X");
  W2.u32(4096);
  W2.u32(4096);
  W2.u32(16777216); // The floats-block count field.
  W2.u32(0xdeadbeef);
  std::vector<uint8_t> Hostile = W2.take();
  ByteReader R2(Hostile.data(), Hostile.size());
  EXPECT_FALSE(decodeGrid(R2, Out));
}

TEST(NetProtocolTest, RandomByteStormsNeverCrashAnyDecoder) {
  // Deterministic random buffers of many lengths through every decoder:
  // nothing to assert about the outcome except that we survive to
  // return (and under ASan, that nothing over-read).
  SplitMix64 Gen(0xf022ull);
  for (size_t Len : {0u, 1u, 3u, 7u, 16u, 27u, 64u, 255u, 1024u, 65536u}) {
    std::vector<uint8_t> Buf(Len);
    for (uint8_t &V : Buf)
      V = static_cast<uint8_t>(Gen.next());
    for (AnyDecoder Decode : AllDecoders)
      (void)Decode(Buf.data(), Buf.size());
    // The same bytes as a frame header candidate.
    (void)decodeFrameHeader(Buf.data(), Buf.size());
  }
}
