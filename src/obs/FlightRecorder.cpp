//===- obs/FlightRecorder.cpp ---------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "support/Hash.h"
#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace cmcc;
using namespace cmcc::obs;

FlightRecorder::FlightRecorder() : Slots(new Slot[Capacity]) {}

FlightRecorder &FlightRecorder::process() {
  // Leaked: producers (pool workers, the serve main loop's signal
  // path) may record during static destruction.
  static FlightRecorder *R = new FlightRecorder;
  return *R;
}

void FlightRecorder::record(EventKind Kind, const char *Detail,
                            std::uint64_t A, std::uint64_t B,
                            std::uint64_t TraceId) {
  if (TraceId == 0)
    TraceId = currentTraceContext().TraceId;
  std::uint64_t Seq = Head.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot &S = Slots[(Seq - 1) & (Capacity - 1)];
  // Claim the slot before touching the payload: two writers meet on one
  // slot only when one of them slept through a full ring wrap (their
  // Seqs differ by a multiple of Capacity), and interleaved payload
  // stores would publish a mixed event the Seq re-read cannot detect.
  // The claim makes the writer exclusive: a *newer* in-flight or
  // published event wins and the stale write is dropped (it was
  // logically overwritten already); an *older* in-flight write is
  // waited out — a handful of relaxed stores, so the spin is bounded
  // and in practice never taken.
  for (;;) {
    std::uint64_t Cur = S.Seq.load(std::memory_order_relaxed);
    if (Cur & ClaimBit) {
      if ((Cur & ~ClaimBit) > Seq)
        return;
      continue;
    }
    if (Cur > Seq)
      return;
    if (S.Seq.compare_exchange_weak(Cur, Seq | ClaimBit,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed))
      break;
  }
  S.Ns.store(detail::nowNs(), std::memory_order_relaxed);
  S.KindBits.store(static_cast<std::uint64_t>(Kind),
                   std::memory_order_relaxed);
  S.A.store(A, std::memory_order_relaxed);
  S.B.store(B, std::memory_order_relaxed);
  S.Trace.store(TraceId, std::memory_order_relaxed);
  S.Detail.store(Detail, std::memory_order_relaxed);
  S.Seq.store(Seq, std::memory_order_release);
  Registry::process().counter("obs.flight_events").add(1);
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  std::vector<Event> Out;
  Out.reserve(Capacity);
  for (std::size_t I = 0; I < Capacity; ++I) {
    const Slot &S = Slots[I];
    std::uint64_t Seq1 = S.Seq.load(std::memory_order_acquire);
    if (Seq1 == 0 || (Seq1 & ClaimBit))
      continue;
    Event E;
    E.Seq = Seq1;
    E.Ns = S.Ns.load(std::memory_order_relaxed);
    E.Kind = static_cast<EventKind>(S.KindBits.load(std::memory_order_relaxed));
    E.A = S.A.load(std::memory_order_relaxed);
    E.B = S.B.load(std::memory_order_relaxed);
    E.TraceId = S.Trace.load(std::memory_order_relaxed);
    E.Detail = S.Detail.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    // Torn if a writer claimed the slot (Seq -> Seq|ClaimBit) or
    // finished a new event in it while we read the payload.
    if (S.Seq.load(std::memory_order_relaxed) != Seq1)
      continue;
    Out.push_back(E);
  }
  std::sort(Out.begin(), Out.end(),
            [](const Event &L, const Event &R) { return L.Seq < R.Seq; });
  return Out;
}

const char *FlightRecorder::kindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::None:
    return "none";
  case EventKind::ServerStart:
    return "server_start";
  case EventKind::ServerStop:
    return "server_stop";
  case EventKind::FaultFired:
    return "fault_fired";
  case EventKind::AdmissionReject:
    return "admission_reject";
  case EventKind::Retry:
    return "retry";
  case EventKind::Fallback:
    return "fallback";
  case EventKind::DeadlineExceeded:
    return "deadline_exceeded";
  case EventKind::Cancelled:
    return "cancelled";
  case EventKind::JobFailed:
    return "job_failed";
  case EventKind::SlowJob:
    return "slow_job";
  case EventKind::DrainBegin:
    return "drain_begin";
  case EventKind::ConnAccepted:
    return "conn_accepted";
  case EventKind::ConnClosed:
    return "conn_closed";
  case EventKind::ConnRejected:
    return "conn_rejected";
  case EventKind::DecodeError:
    return "decode_error";
  case EventKind::FatalError:
    return "fatal_error";
  }
  return "unknown";
}

namespace {

void appendEscaped(std::string &Out, const char *Text) {
  for (const char *P = Text; *P; ++P) {
    if (*P == '"' || *P == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(*P) < 0x20)
      Out += ' ';
    else
      Out += *P;
  }
}

} // namespace

std::string FlightRecorder::json() const {
  std::vector<Event> Events = snapshot();
  std::uint64_t Total = totalRecorded();
  std::uint64_t Dropped = Total > Events.size()
                              ? Total - static_cast<std::uint64_t>(Events.size())
                              : 0;
  std::string Out;
  Out.reserve(128 + Events.size() * 96);
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "{\"capacity\": %llu, \"recorded\": %llu, \"dropped\": %llu, "
                "\"events\": [",
                static_cast<unsigned long long>(Capacity),
                static_cast<unsigned long long>(Total),
                static_cast<unsigned long long>(Dropped));
  Out += Buf;
  bool First = true;
  for (const Event &E : Events) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"seq\": %llu, \"ns\": %llu, \"kind\": \"%s\", "
                  "\"a\": %llu, \"b\": %llu",
                  First ? "" : ",", static_cast<unsigned long long>(E.Seq),
                  static_cast<unsigned long long>(E.Ns), kindName(E.Kind),
                  static_cast<unsigned long long>(E.A),
                  static_cast<unsigned long long>(E.B));
    Out += Buf;
    First = false;
    if (E.TraceId) {
      Out += ", \"trace_id\": \"";
      Out += fingerprintHex(E.TraceId);
      Out += '"';
    }
    if (E.Detail) {
      Out += ", \"detail\": \"";
      appendEscaped(Out, E.Detail);
      Out += '"';
    }
    Out += '}';
  }
  Out += "\n]}\n";
  return Out;
}

void FlightRecorder::dumpOnFatal(const char *Reason) {
  FlightRecorder &R = process();
  R.record(EventKind::FatalError, Reason);
  std::string Json = R.json();
  const char *Path = std::getenv("CMCC_FLIGHT_DUMP");
  if (Path && *Path) {
    if (std::FILE *F = std::fopen(Path, "w")) {
      std::fwrite(Json.data(), 1, Json.size(), F);
      std::fclose(F);
      std::fprintf(stderr, "cmcc: flight recorder dumped to %s\n", Path);
      return;
    }
  }
  std::fprintf(stderr, "cmcc: flight recorder dump:\n%s", Json.c_str());
}
