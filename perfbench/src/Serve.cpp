//===- perfbench/src/Serve.cpp - serve_mixed and serve probes -*- C++ -*-===//
///
/// \file
/// serve_mixed: a net::Server in front of a StencilService (native
/// backend, two workers, plan cache with a disk tier in a fresh
/// directory, no batching, no faults) in a forked child, driven closed
/// loop by four unix-socket connections from this process. About 19 in
/// 20 jobs draw from a warm corpus — the paper's patterns and
/// examples/stencils through all three front ends, coefficient-array
/// and scalar stencils — and about 1 in 20 is a novel seeded stencil
/// that misses the cache and compiles. serve_warm is the same traffic
/// with every job warm: the compile path bypassed. Every job ships its
/// grids and gets its result back; every result is checked.
///
//===----------------------------------------------------------------------===//

#include "Serve.h"
#include "Checks.h"
#include "Direct.h"
#include "Probes.h"
#include "net/Client.h"
#include "net/Server.h"
#include "runtime/Reference.h"
#include "service/StencilService.h"
#include "stencil/PatternLibrary.h"
#include "support/Random.h"
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace cmcc;
using SourceKind = StencilService::SourceKind;

namespace perfbench {

namespace {

/// One stencil a job can carry, with the spec a local compile of the
/// same text recognized (names to bind, and the reference's input).
struct ServeStencil {
  std::string Label;
  StencilService::SourceKind Kind =
      StencilService::SourceKind::FortranAssignment;
  std::string Source;
  StencilSpec Spec;
  /// Client-side ConvolutionCompiler::compile* wall time.
  double CompileMs = 0.0;
};

/// Seeded global input arrays, by name, shared by every job of one
/// variant: the request a stencil's job sends and the reference's
/// bindings come from the same arrays.
class InputPool {
public:
  InputPool(uint64_t Seed, int Variants, int Rows, int Cols)
      : Seed(Seed), Variants(Variants), Rows(Rows), Cols(Cols) {}
  /// The array, made on first use (not thread-safe).
  const Array2D &get(int Variant, const std::string &Name);
  /// An array get() already made (safe from many threads at once).
  const Array2D &at(int Variant, const std::string &Name) const {
    return Arrays.at({Variant, Name});
  }

private:
  uint64_t Seed;
  int Variants, Rows, Cols;
  std::map<std::pair<int, std::string>, Array2D> Arrays;
};

/// What one job did, seen from the client and from its WaitResponse.
struct JobOutcome {
  bool Ok = false;
  std::string Error;
  int64_t JobId = 0;
  double LatencyMs = 0.0; ///< Encode start to decode end.
  double EncodeMs = 0.0, DecodeMs = 0.0;
  uint64_t SentNs = 0;    ///< Steady clock after encode (send begins).
  uint64_t ReceivedNs = 0; ///< WaitResponse frame fully read.
  double RequestBytes = 0.0, ResponseBytes = 0.0;
  bool CacheHit = false;
  double CompileMs = 0.0, ExecuteMs = 0.0;
  double UsefulFlops = 0.0;
  int Retries = 0;
  bool FellBack = false;
  bool Rejected = false;
  std::vector<float> Result;
};

/// Server-side timestamps of one finished job (steady-clock ns, the
/// same clock as the client's on one host), from its timeline.
struct ServerTimeline {
  uint64_t Submitted = 0, Queued = 0, Dequeued = 0, ExecuteAttempt = 0,
           Done = 0;
  bool complete() const {
    return Submitted && Queued && Dequeued && ExecuteAttempt && Done;
  }
};

/// The per-job layer split, from the client's own spans plus the
/// server's timeline and WaitResponse fields. The parts are measured
/// independently; Remainder = total - sum(parts).
struct JobLayers {
  double Encode = 0, Wire = 0, Queue = 0, Resolve = 0, Execute = 0,
         Reply = 0, Decode = 0, Remainder = 0, Total = 0;
  double ClientOverhead = 0; ///< Total - server (Done - Submitted).
};


uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

uint64_t nameHash(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  return H;
}


//===----------------------------------------------------------------------===//
// Jobs
//===----------------------------------------------------------------------===//

ServeStencil compileLocally(const MachineConfig &M, std::string Label,
                            SourceKind Kind, std::string Source) {
  ServeStencil S;
  S.Label = std::move(Label);
  S.Kind = Kind;
  S.Source = std::move(Source);
  ConvolutionCompiler CC(M);
  CC.setAllowMultipleSources(true);
  DiagnosticEngine Diags;
  const Clock::time_point Start = Clock::now();
  std::optional<CompiledStencil> Plan;
  switch (Kind) {
  case SourceKind::FortranSubroutine:
    Plan = CC.compileSubroutine(S.Source, Diags);
    break;
  case SourceKind::DefStencil:
    Plan = CC.compileDefStencil(S.Source, Diags);
    break;
  default:
    Plan = CC.compileAssignment(S.Source, Diags);
    break;
  }
  S.CompileMs = msBetween(Start, Clock::now());
  if (!Plan) {
    std::fprintf(stderr, "perfbench: %s does not compile:\n%s",
                 S.Label.c_str(), Diags.str().c_str());
    std::exit(3);
  }
  S.Spec = Plan->Spec;
  return S;
}

const Array2D &InputPool::get(int Variant, const std::string &Name) {
  auto Key = std::make_pair(Variant, Name);
  auto It = Arrays.find(Key);
  if (It != Arrays.end())
    return It->second;
  Array2D A(Rows, Cols);
  fillUniform(A, Seed * 0x9e3779b97f4a7c15ULL ^ nameHash(Name) ^
                     (static_cast<uint64_t>(Variant) << 56),
              -1.0f, 1.0f);
  return Arrays.emplace(Key, std::move(A)).first->second;
}


net::GridPayload gridOf(const std::string &Name, const Array2D &A) {
  net::GridPayload G;
  G.Name = Name;
  G.Rows = static_cast<uint32_t>(A.rows());
  G.Cols = static_cast<uint32_t>(A.cols());
  G.Data.assign(A.data(), A.data() + static_cast<size_t>(A.rows()) * A.cols());
  return G;
}


net::SubmitRequest makeRequest(const ServeStencil &S, InputPool &Pool,
                               int V) {
  net::SubmitRequest Req;
  Req.Kind = static_cast<uint8_t>(S.Kind);
  Req.Source = S.Source;
  Req.Iterations = 1;
  Req.ResultName = S.Spec.Result;
  using Role = net::SubmitRequest::Role;
  Req.Grids.push_back({Role::Source, gridOf(S.Spec.Source,
                                            Pool.get(V, S.Spec.Source))});
  for (const std::string &Name : S.Spec.ExtraSources)
    Req.Grids.push_back({Role::ExtraSource, gridOf(Name, Pool.get(V, Name))});
  for (const std::string &Name : S.Spec.coefficientArrayNames())
    Req.Grids.push_back({Role::Coefficient, gridOf(Name, Pool.get(V, Name))});
  return Req;
}

ReferenceBindings referenceBindings(const ServeStencil &S, InputPool &Pool,
                                    int V) {
  ReferenceBindings B;
  B.Source = &Pool.get(V, S.Spec.Source);
  for (const std::string &Name : S.Spec.ExtraSources)
    B.ExtraSources[Name] = &Pool.get(V, Name);
  for (const std::string &Name : S.Spec.coefficientArrayNames())
    B.Coefficients[Name] = &Pool.get(V, Name);
  return B;
}

JobOutcome runJob(net::Client &C, const net::SubmitRequest &Req) {
  JobOutcome O;
  const Clock::time_point T0 = Clock::now();
  const std::vector<uint8_t> Payload = encode(Req);
  O.SentNs = nowNs();
  O.EncodeMs = msBetween(T0, Clock::now());
  O.RequestBytes = static_cast<double>(Payload.size());
  auto Fail = [&](std::string Why) {
    O.Error = std::move(Why);
    O.LatencyMs = msBetween(T0, Clock::now());
    return O;
  };
  const uint64_t SubmitId = C.nextRequestId();
  if (Error E = C.sendRequest(net::MsgType::SubmitRequest, SubmitId, Payload))
    return Fail("submit send: " + E.message());
  Expected<net::Client::RawResponse> Sub = C.receive();
  if (!Sub)
    return Fail("submit receive: " + Sub.error().message());
  if (Sub->Header.Type != net::MsgType::SubmitResponse ||
      Sub->Header.RequestId != SubmitId)
    return Fail("unexpected answer to submit");
  Expected<net::SubmitResponse> Id =
      net::decodeSubmitResponse(Sub->Payload.data(), Sub->Payload.size());
  if (!Id)
    return Fail("submit decode: " + Id.error().message());
  O.JobId = Id->JobId;
  net::WaitRequest W;
  W.JobId = Id->JobId;
  const uint64_t WaitId = C.nextRequestId();
  if (Error E = C.sendRequest(net::MsgType::WaitRequest, WaitId, encode(W)))
    return Fail("wait send: " + E.message());
  Expected<net::Client::RawResponse> Done = C.receive();
  if (!Done)
    return Fail("wait receive: " + Done.error().message());
  O.ReceivedNs = nowNs();
  const Clock::time_point D0 = Clock::now();
  if (Done->Header.Type != net::MsgType::WaitResponse ||
      Done->Header.RequestId != WaitId)
    return Fail("unexpected answer to wait");
  Expected<net::WaitResponse> R =
      net::decodeWaitResponse(Done->Payload.data(), Done->Payload.size());
  const Clock::time_point T1 = Clock::now();
  O.DecodeMs = msBetween(D0, T1);
  O.LatencyMs = msBetween(T0, T1);
  O.ResponseBytes = static_cast<double>(Done->Payload.size());
  if (!R)
    return Fail("wait decode: " + R.error().message());
  O.CacheHit = R->CacheHit != 0;
  O.CompileMs = R->CompileSeconds * 1e3;
  O.ExecuteMs = R->ExecuteSeconds * 1e3;
  O.Retries = static_cast<int>(R->Retries);
  O.FellBack = R->FellBack != 0;
  O.Rejected =
      R->Status == static_cast<uint8_t>(StencilService::JobStatus::QueueFull);
  const TimingReport Report = R->report();
  O.UsefulFlops = static_cast<double>(Report.UsefulFlopsPerNodePerIteration) *
                  Report.Nodes * Report.Iterations;
  if (!R->Ok)
    return Fail("job failed: " + R->Message);
  if (!R->HasResult)
    return Fail("job returned no result grid");
  O.Result = std::move(R->Result.Data);
  O.Ok = true;
  return O;
}

bool fetchTimeline(net::Client &C, int64_t JobId, ServerTimeline &T) {
  Expected<net::TimelineResponse> R = C.timeline(JobId);
  if (!R || !R->Found)
    return false;
  const std::string &J = R->Json;
  // Events are printed in order as {"t_ms": .., "event": "<name>",
  // "detail": .., "ns": <steady ns>}; the first of each name counts.
  size_t Pos = 0;
  while ((Pos = J.find("\"event\": \"", Pos)) != std::string::npos) {
    Pos += 10;
    const size_t End = J.find('"', Pos);
    const std::string Name = J.substr(Pos, End - Pos);
    const size_t NsAt = J.find("\"ns\": ", End);
    if (NsAt == std::string::npos)
      return false;
    const uint64_t Ns = std::strtoull(J.c_str() + NsAt + 6, nullptr, 10);
    uint64_t *Slot = Name == "submitted"         ? &T.Submitted
                     : Name == "queued"          ? &T.Queued
                     : Name == "dequeued"        ? &T.Dequeued
                     : Name == "execute_attempt" ? &T.ExecuteAttempt
                     : Name == "done"            ? &T.Done
                                                 : nullptr;
    if (Slot && !*Slot)
      *Slot = Ns;
    Pos = NsAt;
  }
  return T.complete();
}

JobLayers splitJob(const JobOutcome &O, const ServerTimeline &T) {
  JobLayers L;
  auto Ms = [](uint64_t A, uint64_t B) {
    return (static_cast<double>(B) - static_cast<double>(A)) / 1e6;
  };
  L.Total = O.LatencyMs;
  L.Encode = O.EncodeMs;
  L.Wire = Ms(O.SentNs, T.Submitted);
  L.Queue = Ms(T.Queued, T.Dequeued);
  L.Resolve = O.CompileMs;
  L.Execute = O.ExecuteMs;
  L.Reply = Ms(T.Done, O.ReceivedNs);
  L.Decode = O.DecodeMs;
  L.Remainder = L.Total - (L.Encode + L.Wire + L.Queue + L.Resolve +
                           L.Execute + L.Reply + L.Decode);
  L.ClientOverhead = L.Total - Ms(T.Submitted, T.Done);
  return L;
}

void printJobLayerTable(const std::vector<JobLayers> &Jobs) {
  heading("per-job layer table (" + std::to_string(Jobs.size()) +
          " traced jobs, ms)");
  if (Jobs.empty())
    return;
  struct Column {
    const char *Name;
    double JobLayers::*Field;
  };
  const Column Columns[] = {
      {"client encode", &JobLayers::Encode},
      {"wire in (send..server submitted)", &JobLayers::Wire},
      {"queue (queued..dequeued)", &JobLayers::Queue},
      {"resolve (WaitResponse.CompileSeconds)", &JobLayers::Resolve},
      {"execute (WaitResponse.ExecuteSeconds)", &JobLayers::Execute},
      {"reply (server done..client received)", &JobLayers::Reply},
      {"client decode", &JobLayers::Decode},
      {"remainder (total - parts)", &JobLayers::Remainder},
      {"total (client round trip)", &JobLayers::Total},
  };
  std::printf("  %-40s %10s %10s\n", "part", "mean", "p50");
  for (const Column &C : Columns) {
    std::vector<double> V;
    for (const JobLayers &J : Jobs)
      V.push_back(J.*C.Field);
    const double Mean =
        std::accumulate(V.begin(), V.end(), 0.0) / static_cast<double>(V.size());
    std::printf("  %-40s %10.4f %10.4f\n", C.Name, Mean, median(V));
  }
  std::printf("  (means add up: total = parts + remainder)\n  first jobs:");
  for (size_t I = 0; I != std::min<size_t>(3, Jobs.size()); ++I) {
    const JobLayers &J = Jobs[I];
    std::printf("\n    %.3f = enc %.3f + wire %.3f + queue %.3f + resolve "
                "%.3f + exec %.3f + reply %.3f + dec %.3f + rem %.3f",
                J.Total, J.Encode, J.Wire, J.Queue, J.Resolve, J.Execute,
                J.Reply, J.Decode, J.Remainder);
  }
  std::printf("\n");
}

net::Endpoint unixEndpoint(const std::string &Path) {
  net::Endpoint Ep;
  Ep.Transport = net::Endpoint::Kind::Unix;
  Ep.Path = Path;
  return Ep;
}

StencilService::Options serviceOptions(const std::string &CacheDir) {
  StencilService::Options O;
  O.Backend = "native";
  O.AllowMultipleSources = true;
  O.Cache.DiskDir = CacheDir;
  return O;
}

void reportServeLayers(const std::vector<JobOutcome> &Outcomes,
                       const std::vector<JobLayers> &Sampled,
                       const std::vector<double> &LocalCompileMs, Result &R) {
  std::vector<double> Hit, Miss, Exec, Queue, Overhead;
  double ReqBytes = 0, RespBytes = 0, Retries = 0, Fallbacks = 0,
         Rejected = 0;
  long Done = 0;
  for (const JobOutcome &O : Outcomes) {
    Retries += O.Retries;
    Fallbacks += O.FellBack;
    Rejected += O.Rejected;
    if (!O.Ok)
      continue;
    ++Done;
    (O.CacheHit ? Hit : Miss).push_back(O.CompileMs);
    Exec.push_back(O.ExecuteMs);
    ReqBytes += O.RequestBytes;
    RespBytes += O.ResponseBytes;
  }
  for (const JobLayers &L : Sampled) {
    Queue.push_back(L.Queue);
    Overhead.push_back(L.ClientOverhead);
  }
  const double N = std::max<long>(1, Done);
  R.add("core.compile_ms", median(LocalCompileMs), "ms");
  R.add("service.compile_miss_ms", median(Miss), "ms");
  R.add("service.queue_ms", median(Queue), "ms");
  R.add("service.resolve_hit_ms", median(Hit), "ms");
  R.add("service.cache_hit_ratio",
        static_cast<double>(Hit.size()) /
            std::max<size_t>(1, Hit.size() + Miss.size()),
        "ratio");
  R.add("net.client_overhead_ms", median(Overhead), "ms");
  R.add("net.request_kib", ReqBytes / N / 1024.0, "KiB");
  R.add("net.response_kib", RespBytes / N / 1024.0, "KiB");
  R.add("backends.native.execute_ms", median(Exec), "ms");
  R.add("service.retries", Retries, "count");
  R.add("service.fallbacks", Fallbacks, "count");
  R.add("service.rejected", Rejected, "count");
}

//===----------------------------------------------------------------------===//
// The job mix
//===----------------------------------------------------------------------===//


/// A novel stencil: a seeded tap set within radius 2 plus a center term
/// whose scalar is unique to \p Index, so its fingerprint is new and the
/// job misses the cache and compiles. It reads X and coefficient arrays
/// C1..C<\p Coeffs> (at most NovelMaxCoeffs).
constexpr int NovelMaxCoeffs = 8;
std::string novelSource(uint64_t Seed, uint64_t Index, int &Coeffs) {
  SplitMix64 Rng(Seed * 0x2545F4914F6CDD1DULL + Index * 0x9e3779b97f4a7c15ULL);
  const bool Zero = Rng.nextBelow(2) == 0;
  const char *Shift = Zero ? "EOSHIFT" : "CSHIFT";
  std::vector<Offset> All;
  for (int Dy = -2; Dy <= 2; ++Dy)
    for (int Dx = -2; Dx <= 2; ++Dx)
      if (Dy || Dx)
        All.push_back({Dy, Dx});
  const int Taps = static_cast<int>(Rng.nextInRange(2, NovelMaxCoeffs));
  std::string Text = "R = ";
  int Coeff = 0;
  for (int T = 0; T != Taps; ++T) {
    const size_t Pick = static_cast<size_t>(Rng.nextBelow(All.size()));
    const Offset At = All[Pick];
    All.erase(All.begin() + static_cast<long>(Pick));
    std::string Data = "X";
    if (At.Dy)
      Data = std::string(Shift) + "(" + Data + ", 1, " +
             std::to_string(At.Dy) + ")";
    if (At.Dx)
      Data = std::string(Shift) + "(" + Data + ", 2, " +
             std::to_string(At.Dx) + ")";
    std::string Factor;
    if (Rng.nextBelow(2) == 0) {
      Factor = "C" + std::to_string(++Coeff);
    } else {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.4f", Rng.nextFloatInRange(-1, 1));
      Factor = Buf;
    }
    Text += (T ? " + " : "") + Factor + " * " + Data;
  }
  char Unique[48];
  std::snprintf(Unique, sizeof(Unique), " + %.9f * X",
                0.5 + static_cast<double>(Index + 1) / 1048576.0);
  Coeffs = Coeff;
  return Text + Unique;
}

/// The warm corpus: the paper's patterns, examples/stencils through all
/// three front ends, and scalar-coefficient assignments.
std::vector<ServeStencil> buildCorpus(const RunConfig &Cfg,
                                      const MachineConfig &M) {
  std::vector<ServeStencil> C;
  for (PatternId Id : allPatterns())
    C.push_back(compileLocally(M, patternName(Id),
                               SourceKind::FortranSubroutine,
                               patternFortranSource(Id)));
  C.push_back(compileLocally(M, "cross.f90", SourceKind::FortranSubroutine,
                             readRepoFile(Cfg, "examples/stencils/cross.f90")));
  C.push_back(
      compileLocally(M, "diamond.f90", SourceKind::FortranSubroutine,
                     readRepoFile(Cfg, "examples/stencils/diamond.f90")));
  C.push_back(compileLocally(
      M, "seismic_fused.f90", SourceKind::FortranAssignment,
      readRepoFile(Cfg, "examples/stencils/seismic_fused.f90")));
  C.push_back(compileLocally(M, "cross.lisp", SourceKind::DefStencil,
                             readRepoFile(Cfg, "examples/stencils/cross.lisp")));
  C.push_back(compileLocally(
      M, "heat", SourceKind::FortranAssignment,
      "UNEXT = 0.200000 * U + 0.200000 * EOSHIFT(U, 1, -1) + 0.200000 * "
      "EOSHIFT(U, 1, +1) + 0.200000 * EOSHIFT(U, 2, -1) + 0.200000 * "
      "EOSHIFT(U, 2, +1)"));
  C.push_back(compileLocally(M, "smooth", SourceKind::FortranAssignment,
                             "R = 0.5*CSHIFT(X,1,-1) + 0.5*CSHIFT(X,1,1)"));
  C.push_back(
      compileLocally(M, "mixed", SourceKind::FortranAssignment,
                     "R = C1*CSHIFT(X,2,1) + C2*CSHIFT(X,2,-1) + 1.0*X"));
  return C;
}

/// One job of the mix: a corpus entry or a novel stencil, and the
/// input variant it binds.
struct MixJob {
  int Entry = -1; ///< Corpus index; -1 = novel.
  uint64_t NovelIndex = 0;
  int Variant = 0;
};

/// What the timed phase keeps per job.
struct MixRecord {
  MixJob Job;
  JobOutcome Outcome;
  bool Wrong = false; ///< Result differs from its verified expectation.
  ServerTimeline Timeline;
  bool HasTimeline = false;
  double DoneAt = 0.0; ///< Seconds from the phase start.
};

/// The client's whole view of the job mix: corpus, inputs, the
/// expected result of every warm (entry, variant) pair.
struct Mix {
  MachineConfig Machine;
  std::vector<ServeStencil> Corpus;
  std::unique_ptr<InputPool> Pool;
  std::vector<std::vector<net::SubmitRequest>> Requests; // [entry][variant]
  std::vector<std::vector<std::vector<float>>> Expected; // [entry][variant]
  /// The warm-up jobs (results dropped): the corpus's own cache misses.
  std::vector<JobOutcome> Warmup;
  uint64_t Seed = 1;
  /// One job in NovelOneIn is a novel stencil; 0 = none.
  int NovelOneIn = 0;
  static constexpr int Variants = 4;

  MixJob draw(SplitMix64 &Rng, uint64_t NovelIndex) const {
    MixJob J;
    J.Variant = static_cast<int>(Rng.nextBelow(Variants));
    if (NovelOneIn && Rng.nextBelow(NovelOneIn) == 0)
      J.NovelIndex = NovelIndex;
    else
      J.Entry = static_cast<int>(Rng.nextBelow(Corpus.size()));
    return J;
  }

  ServeStencil novelStencil(uint64_t Index) const {
    int Coeffs = 0;
    return compileLocally(Machine, "novel", SourceKind::FortranAssignment,
                          novelSource(Seed, Index, Coeffs));
  }

  /// A novel job's request, built without compiling on the client: the
  /// arrays it binds are known from how its text was made.
  net::SubmitRequest novelRequest(const MixJob &J) const {
    int Coeffs = 0;
    net::SubmitRequest Req;
    Req.Kind = static_cast<uint8_t>(SourceKind::FortranAssignment);
    Req.Source = novelSource(Seed, J.NovelIndex, Coeffs);
    Req.ResultName = "R";
    using Role = net::SubmitRequest::Role;
    Req.Grids.push_back({Role::Source, gridOf("X", Pool->at(J.Variant, "X"))});
    for (int C = 1; C <= Coeffs; ++C) {
      const std::string Name = "C" + std::to_string(C);
      Req.Grids.push_back(
          {Role::Coefficient, gridOf(Name, Pool->at(J.Variant, Name))});
    }
    return Req;
  }
};

/// Builds the mix: corpus compiled locally, inputs, prebuilt requests.
std::unique_ptr<Mix> buildMix(const RunConfig &Cfg, const MachineConfig &M,
                              int Rows, int Cols, int NovelOneIn) {
  auto X = std::make_unique<Mix>();
  X->Machine = M;
  X->Seed = Cfg.Seed;
  X->NovelOneIn = NovelOneIn;
  X->Corpus = buildCorpus(Cfg, M);
  X->Pool = std::make_unique<InputPool>(Cfg.Seed, Mix::Variants, Rows, Cols);
  X->Requests.resize(X->Corpus.size());
  X->Expected.resize(X->Corpus.size());
  for (size_t E = 0; E != X->Corpus.size(); ++E) {
    for (int V = 0; V != Mix::Variants; ++V)
      X->Requests[E].push_back(makeRequest(X->Corpus[E], *X->Pool, V));
    X->Expected[E].resize(Mix::Variants);
  }
  // Every array a novel stencil can bind, made now: the timed phase's
  // connection threads only read the pool.
  for (int V = 0; V != Mix::Variants; ++V) {
    X->Pool->get(V, "X");
    for (int C = 1; C <= NovelMaxCoeffs; ++C)
      X->Pool->get(V, "C" + std::to_string(C));
  }
  return X;
}

/// The closed loop of one connection: draw, submit, wait, compare warm
/// results bitwise with the verified expectation; until \p Deadline and
/// at least \p MinJobs jobs across all connections.
void clientLoop(net::Client &C, Mix &X, int Conn, Clock::time_point Start,
                Clock::time_point Deadline,
                std::atomic<long> &Jobs, long MinJobs, bool Timelines,
                std::vector<MixRecord> &Out) {
  SplitMix64 Rng(X.Seed * 1000003 + static_cast<uint64_t>(Conn) * 7919 +
                 (Timelines ? 17 : 0));
  uint64_t Novel = 0;
  while (Clock::now() < Deadline || Jobs.load() < MinJobs) {
    MixRecord Rec;
    Rec.Job = X.draw(Rng, (Novel * 4 + static_cast<uint64_t>(Conn)) * 2 +
                              (Timelines ? 1 : 0));
    if (Rec.Job.Entry < 0) {
      ++Novel;
      const net::SubmitRequest Req = X.novelRequest(Rec.Job);
      Rec.Outcome = runJob(C, Req);
    } else {
      Rec.Outcome = runJob(C, X.Requests[Rec.Job.Entry][Rec.Job.Variant]);
      if (Rec.Outcome.Ok) {
        const std::vector<float> &Want =
            X.Expected[Rec.Job.Entry][Rec.Job.Variant];
        Rec.Wrong = Want.size() != Rec.Outcome.Result.size() ||
                    std::memcmp(Want.data(), Rec.Outcome.Result.data(),
                                Want.size() * sizeof(float)) != 0;
        Rec.Outcome.Result.clear();
        Rec.Outcome.Result.shrink_to_fit();
      }
    }
    if (Timelines && Rec.Outcome.Ok)
      Rec.HasTimeline = fetchTimeline(C, Rec.Outcome.JobId, Rec.Timeline);
    Rec.DoneAt = secondsSince(Start);
    Jobs.fetch_add(1);
    Out.push_back(std::move(Rec));
  }
}

/// Runs the mix on every connection for \p Seconds (and \p MinJobs).
std::vector<MixRecord> runMix(std::vector<std::unique_ptr<net::Client>> &Conns,
                              Mix &X, double Seconds, long MinJobs,
                              bool Timelines, double &WallSeconds) {
  std::vector<std::vector<MixRecord>> PerConn(Conns.size());
  std::atomic<long> Jobs{0};
  const Clock::time_point Start = Clock::now();
  const Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Conns.size(); ++I)
    Threads.emplace_back([&, I] {
      clientLoop(*Conns[I], X, static_cast<int>(I), Start, Deadline, Jobs,
                 MinJobs,
                 Timelines, PerConn[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  WallSeconds = secondsSince(Start);
  std::vector<MixRecord> All;
  for (auto &V : PerConn)
    for (MixRecord &R : V)
      All.push_back(std::move(R));
  std::stable_sort(All.begin(), All.end(),
                   [](const MixRecord &A, const MixRecord &B) {
                     return A.DoneAt < B.DoneAt;
                   });
  return All;
}

/// Checks every job of \p Records (after the timed phase): failed and
/// wrong jobs count as failed operations; novel results are compared
/// with the reference evaluator. Returns the local compile times of the
/// novel stencils.
std::vector<double> verifyMix(Mix &X, std::vector<MixRecord> &Records,
                              Result &R) {
  std::vector<double> CompileMs;
  long Failed = 0;
  std::string FirstWhy;
  for (MixRecord &Rec : Records) {
    std::string Why;
    if (!Rec.Outcome.Ok) {
      Why = Rec.Outcome.Error;
    } else if (Rec.Job.Entry >= 0) {
      if (Rec.Wrong)
        Why = X.Corpus[Rec.Job.Entry].Label +
              " result differs from its verified expectation";
    } else {
      const ServeStencil S = X.novelStencil(Rec.Job.NovelIndex);
      CompileMs.push_back(S.CompileMs);
      const int Rows = X.Pool->get(0, "X").rows();
      Array2D Got(Rows, static_cast<int>(Rec.Outcome.Result.size()) / Rows);
      std::copy(Rec.Outcome.Result.begin(), Rec.Outcome.Result.end(),
                Got.data());
      if (!matchesReference(S.Spec, referenceBindings(S, *X.Pool,
                                                      Rec.Job.Variant),
                            Got, Why))
        Why = "novel stencil " + S.Source + ": " + Why;
      Rec.Outcome.Result.clear();
      Rec.Outcome.Result.shrink_to_fit();
    }
    if (!Why.empty() && Failed++ == 0)
      FirstWhy = Why;
  }
  R.attempted(static_cast<long>(Records.size()));
  R.failedOps(Failed);
  if (Failed)
    std::printf("%ld failed jobs; first: %s\n", Failed, FirstWhy.c_str());
  return CompileMs;
}

/// Warm-up: every (entry, variant) once, in order, on one connection.
/// Compiles the corpus into the cache and records each result, which is
/// then checked against the reference evaluator.
bool warmMix(net::Client &C, Mix &X, std::string &Why) {
  for (size_t E = 0; E != X.Corpus.size(); ++E)
    for (int V = 0; V != Mix::Variants; ++V) {
      JobOutcome O = runJob(C, X.Requests[E][V]);
      if (!O.Ok) {
        Why = X.Corpus[E].Label + " warm-up job failed: " + O.Error;
        return false;
      }
      X.Expected[E][V] = std::move(O.Result);
      X.Warmup.push_back(std::move(O));
    }
  return true;
}

bool checkExpectations(Mix &X, std::string &Why) {
  for (size_t E = 0; E != X.Corpus.size(); ++E)
    for (int V = 0; V != Mix::Variants; ++V) {
      const std::vector<float> &Data = X.Expected[E][V];
      const Array2D &Src = X.Pool->get(V, X.Corpus[E].Spec.Source);
      if (Data.size() != static_cast<size_t>(Src.rows()) * Src.cols()) {
        Why = X.Corpus[E].Label + ": result has the wrong shape";
        return false;
      }
      Array2D Got(Src.rows(), Src.cols());
      std::copy(Data.begin(), Data.end(), Got.data());
      if (!matchesReference(X.Corpus[E].Spec,
                            referenceBindings(X.Corpus[E], *X.Pool, V), Got,
                            Why)) {
        Why = X.Corpus[E].Label + ": " + Why;
        return false;
      }
    }
  return true;
}

//===----------------------------------------------------------------------===//
// The server child
//===----------------------------------------------------------------------===//

std::atomic<bool> TermRequested{false};

void onTerm(int) { TermRequested.store(true); }

/// Serves until SIGTERM, then drains and exits.
int serveChild(const MachineConfig &M, const std::string &Sock,
               const std::string &CacheDir) {
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  struct sigaction SA {};
  SA.sa_handler = onTerm;
  ::sigaction(SIGTERM, &SA, nullptr);
  StencilService Service(M, serviceOptions(CacheDir));
  net::Server::Options NO;
  NO.Listen.push_back(unixEndpoint(Sock));
  net::Server Server(Service, NO);
  if (Error E = Server.start()) {
    std::fprintf(stderr, "perfbench server: %s\n", E.message().c_str());
    return 1;
  }
  while (!Server.finished()) {
    if (TermRequested.load())
      Server.requestDrain();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Server.stop();
  return 0;
}

/// A forked server child and its connections.
class ServerProcess {
public:
  ~ServerProcess() { stop(); }

  /// Forks the child; the caller must have no other threads.
  bool spawn(const MachineConfig &M, const std::string &Sock,
             const std::string &CacheDir) {
    this->Sock = Sock;
    ::unlink(Sock.c_str());
    std::fflush(nullptr);
    Pid = ::fork();
    if (Pid == 0)
      ::_exit(serveChild(M, Sock, CacheDir));
    return Pid > 0;
  }

  /// Connects \p N clients (waiting for the socket) and says hello.
  bool connect(int N, std::vector<std::unique_ptr<net::Client>> &Out) {
    net::Client::Options CO;
    CO.Target = unixEndpoint(Sock);
    for (int I = 0; I != N; ++I) {
      for (int Attempt = 0;; ++Attempt) {
        Expected<std::unique_ptr<net::Client>> C = net::Client::connect(CO);
        if (C && (*C)->hello("perfbench")) {
          Out.push_back(C.takeValue());
          break;
        }
        if (Attempt == 2000)
          return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    return true;
  }

  /// Drains and reaps the child; returns its peak RSS in MiB, or -1
  /// when it did not exit cleanly.
  double stop() {
    if (Pid <= 0)
      return -1.0;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    struct rusage U {};
    ::wait4(Pid, &Status, 0, &U);
    Pid = -1;
    ::unlink(Sock.c_str());
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      return -1.0;
    return static_cast<double>(U.ru_maxrss) / 1024.0;
  }

private:
  pid_t Pid = -1;
  std::string Sock;
};

} // namespace

//===----------------------------------------------------------------------===//
// serve_mixed and serve_warm
//===----------------------------------------------------------------------===//

namespace {

/// A served workload: one job in \p NovelOneIn is a novel stencil (0 =
/// all jobs warm). The traced run reproduces the backend layers of one
/// job locally: seismic_fused when novel stencils are served, else the
/// heat stencil at a time-tile depth of 4, so the two served workloads
/// between them measure every layer.
void runServe(const RunConfig &Cfg, Result &R, int NovelOneIn) {
  const MachineConfig M = MachineConfig::testMachine16();
  const int Rows = 4 * 32, Cols = 4 * 32;
  const int Connections = 4;
  const long MinJobs = 1000;

  std::unique_ptr<Mix> X;
  std::unique_ptr<ServerProcess> Server;
  std::vector<std::unique_ptr<net::Client>> Conns;
  int Rep = 0;
  bool SetupOk = true;
  std::string Why;
  SetupTimer Setup(
      [&] {
        const std::string Tag = std::to_string(Rep++);
        Server = std::make_unique<ServerProcess>();
        // Fork first, while this process has no other threads.
        SetupOk = Server->spawn(M, Cfg.Scratch + "/serve" + Tag + ".sock",
                                Cfg.Scratch + "/plans" + Tag);
        X = buildMix(Cfg, M, Rows, Cols, NovelOneIn);
        SetupOk = SetupOk && Server->connect(Connections, Conns) &&
                  warmMix(*Conns[0], *X, Why);
      },
      [&] {
        Conns.clear();
        X.reset();
        Server.reset();
      });
  Setup.run(Cfg.Trace ? 1 : SetupsBefore);
  if (!SetupOk) {
    R.attempted(1);
    R.failedOps(1);
    R.fail("serve_mixed setup: " + (Why.empty() ? "server did not start" : Why));
    return;
  }
  if (!checkExpectations(*X, Why))
    R.fail("serve_mixed corpus result: " + Why);

  std::vector<double> CorpusCompileMs;
  for (const ServeStencil &S : X->Corpus)
    CorpusCompileMs.push_back(S.CompileMs);

  if (!Cfg.Trace) {
    double Wall = 0.0;
    std::vector<MixRecord> Records =
        runMix(Conns, *X, Cfg.Seconds, MinJobs, false, Wall);
    std::vector<TimedOp> Ops;
    for (const MixRecord &Rec : Records)
      if (Rec.Outcome.Ok)
        Ops.push_back({Rec.DoneAt, Rec.Outcome.LatencyMs,
                       Rec.Outcome.ExecuteMs, Rec.Outcome.UsefulFlops});
    verifyMix(*X, Records, R);
    Conns.clear();
    const double RssMiB = Server->stop();
    if (RssMiB < 0)
      R.fail("server child did not exit cleanly");
    // The client threads have joined: forking the next servers is safe.
    Setup.run(SetupsAfter);
    if (!SetupOk)
      R.fail("serve_mixed setup after the timed phase: " + Why);
    long Novel = 0;
    for (const MixRecord &Rec : Records)
      Novel += Rec.Job.Entry < 0;
    std::printf("served %zu jobs (%ld novel) in %.3f s on %d "
                "connections\n",
                Records.size(), Novel, Wall, Connections);
    reportTimed(Ops, Wall, R);
    R.add("setup_s", Setup.median(), "s");
    R.add("peak_rss_mib", RssMiB, "MiB");
    return;
  }

  // Traced: an untraced phase and a traced phase (timelines fetched for
  // every job), then the local layer probes.
  const double Phase = Cfg.Seconds / 3;
  double WallU = 0.0, WallT = 0.0;
  std::vector<MixRecord> Plain = runMix(Conns, *X, Phase, MinJobs / 2, false, WallU);
  std::vector<MixRecord> Traced = runMix(Conns, *X, Phase, MinJobs / 2, true, WallT);
  std::vector<double> NovelCompileMs = verifyMix(*X, Plain, R);
  std::vector<double> More = verifyMix(*X, Traced, R);
  NovelCompileMs.insert(NovelCompileMs.end(), More.begin(), More.end());
  Conns.clear();
  if (Server->stop() < 0)
    R.fail("server child did not exit cleanly");

  std::vector<double> PlainMs, TracedMs;
  std::vector<JobOutcome> Outcomes = X->Warmup;
  std::vector<JobLayers> Sampled;
  for (const MixRecord &Rec : Plain) {
    if (Rec.Outcome.Ok)
      PlainMs.push_back(Rec.Outcome.LatencyMs);
    Outcomes.push_back(Rec.Outcome);
  }
  for (const MixRecord &Rec : Traced) {
    if (Rec.Outcome.Ok)
      TracedMs.push_back(Rec.Outcome.LatencyMs);
    if (Rec.HasTimeline)
      Sampled.push_back(splitJob(Rec.Outcome, Rec.Timeline));
    Outcomes.push_back(Rec.Outcome);
  }
  std::vector<double> CompileMs = CorpusCompileMs;
  CompileMs.insert(CompileMs.end(), NovelCompileMs.begin(),
                   NovelCompileMs.end());
  reportServeLayers(Outcomes, Sampled, CompileMs, R);
  printJobLayerTable(Sampled);
  R.add("obs.trace_overhead_pct",
        100.0 * (median(TracedMs) - median(PlainMs)) / median(PlainMs), "%");

  // The backend layers of one job, reproduced locally at the served
  // shape, same inputs every call.
  const Roofline Host = measureRoofline(2.0);
  const std::string Local = NovelOneIn ? "seismic_fused.f90" : "heat";
  const ServeStencil *Rep0 = nullptr;
  for (const ServeStencil &S : X->Corpus)
    if (S.Label == Local)
      Rep0 = &S;
  std::map<std::string, Array2D> Coeffs;
  for (const std::string &Name : Rep0->Spec.coefficientArrayNames())
    Coeffs.emplace(Name, X->Pool->get(0, Name));
  std::vector<Array2D> Levels = {X->Pool->get(0, Rep0->Spec.Source)};
  for (const std::string &Name : Rep0->Spec.ExtraSources)
    Levels.push_back(X->Pool->get(0, Name));
  std::unique_ptr<DirectState> S =
      makeDirectState(M, compileAssignmentOrDie(M, Rep0->Source), Coeffs,
                      Levels, NovelOneIn ? 1 : 4);
  S->Chained = false;
  const DirectLayers L =
      measureDirectLayers(*S, Phase * 0.75, Cfg.Scratch + "/njit");
  if (!L.NjitBitwise)
    R.fail("njit result differs from native bitwise");
  reportDirectLayers(*S, L, Host.KernelGflopsN, R);
  long Calls = L.Calls, Failed = L.Failed;
  R.add("runtime.timetile.speedup",
        timeTileSpeedup(*S, Phase * 0.25, Calls, Failed), "x");
  reportRoofline(Host, R);
  R.attempted(Calls);
  R.failedOps(Failed);
}

} // namespace

void runServeMixed(const RunConfig &Cfg, Result &R) { runServe(Cfg, R, 20); }

void runServeWarm(const RunConfig &Cfg, Result &R) { runServe(Cfg, R, 0); }

//===----------------------------------------------------------------------===//
// Service and net layers of a direct workload
//===----------------------------------------------------------------------===//

void probeServeLayers(const MachineConfig &M, const std::string &Source,
                      const RunConfig &Cfg, double Seconds, Result &R) {
  const int Rows = M.NodeRows * 32, Cols = M.NodeCols * 32;
  StencilService Service(M, serviceOptions(Cfg.Scratch + "/probe-plans"));
  net::Server::Options NO;
  const net::Endpoint Ep = unixEndpoint(Cfg.Scratch + "/probe.sock");
  NO.Listen.push_back(Ep);
  net::Server Server(Service, NO);
  if (Error E = Server.start()) {
    R.fail("probe server: " + E.message());
    return;
  }
  net::Client::Options CO;
  CO.Target = Ep;
  Expected<std::unique_ptr<net::Client>> C = net::Client::connect(CO);
  if (!C) {
    R.fail("probe client: " + C.error().message());
    return;
  }
  InputPool Pool(Cfg.Seed, 2, Rows, Cols);
  const ServeStencil Base =
      compileLocally(M, "workload", SourceKind::FortranAssignment, Source);
  std::vector<double> CompileMs = {Base.CompileMs};
  std::vector<JobOutcome> Outcomes;
  std::vector<JobLayers> Sampled;
  long Failed = 0;
  std::string Why;
  std::vector<std::vector<float>> Want(2);
  auto Check = [&](const ServeStencil &S, int V, const JobOutcome &O) {
    if (!O.Ok) {
      Why = O.Error;
      return false;
    }
    Array2D Got(Rows, Cols);
    std::copy(O.Result.begin(), O.Result.end(), Got.data());
    return matchesReference(S.Spec, referenceBindings(S, Pool, V), Got, Why);
  };
  const Clock::time_point Start = Clock::now();
  for (long I = 0; I < 40 || secondsSince(Start) < Seconds; ++I) {
    // Every tenth job is the workload's stencil plus a unique scalar
    // term: a cache miss that compiles.
    const bool Miss = I % 10 == 5;
    const int V = static_cast<int>(I % 2);
    ServeStencil S = Base;
    if (Miss) {
      char Term[64];
      std::snprintf(Term, sizeof(Term), " + %.9f * %s",
                    0.25 + static_cast<double>(I) / 1048576.0,
                    Base.Spec.Source.c_str());
      const std::string Stem =
          Source.substr(0, Source.find_last_not_of(" \n") + 1);
      S = compileLocally(M, "miss", SourceKind::FortranAssignment,
                         Stem + Term);
      CompileMs.push_back(S.CompileMs);
    }
    JobOutcome O = runJob(**C, makeRequest(S, Pool, V));
    bool Good;
    if (!Miss && O.Ok && !Want[V].empty())
      Good = O.Result == Want[V];
    else
      Good = Check(S, V, O);
    if (Good && !Miss && Want[V].empty())
      Want[V] = O.Result;
    if (!Good && Failed++ == 0)
      R.fail("probe job: " + Why);
    ServerTimeline T;
    if (O.Ok && fetchTimeline(**C, O.JobId, T))
      Sampled.push_back(splitJob(O, T));
    O.Result.clear();
    Outcomes.push_back(std::move(O));
  }
  C->reset();
  Server.stop();
  R.attempted(static_cast<long>(Outcomes.size()));
  R.failedOps(Failed);
  reportServeLayers(Outcomes, Sampled, CompileMs, R);
  printJobLayerTable(Sampled);
}

} // namespace perfbench
