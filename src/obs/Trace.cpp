//===- obs/Trace.cpp ------------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "obs/Metrics.h"
#include "support/Hash.h"
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

using namespace cmcc;
using namespace cmcc::obs;

std::atomic<bool> detail::TraceOn{false};

std::uint64_t detail::nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

struct SpanEvent {
  const char *Name;
  std::uint64_t BeginNs, EndNs;
  std::uint64_t TraceId, SpanId, ParentId;
};

/// One thread's span log. The per-buffer mutex is effectively
/// uncontended (the owning thread appends; the flusher drains in the
/// gaps) but makes the flush race-free under ThreadSanitizer.
struct ThreadBuffer {
  std::mutex Mutex;
  std::vector<SpanEvent> Events;
  int Tid = 0;
};

struct TraceState {
  std::mutex Mutex;
  bool Active = false;
  std::string Path;
  std::FILE *File = nullptr;
  /// Offset of the JSON tail ("\n]}"): each flush seeks here, appends
  /// the new events plus a fresh tail in one write, and advances it.
  long TailPos = 0;
  bool FirstEvent = true;
  bool WriteError = false;
  std::uint64_t EpochNs = 0;
  int Pid = 1;
  /// shared_ptr keeps a buffer alive past its thread's exit.
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  /// Background flusher (only when a flush interval was requested).
  std::thread Flusher;
  std::condition_variable FlusherCv;
  bool FlusherStop = false;
  long FlushMs = 0;
};

TraceState &state() {
  // Leaked: worker threads (e.g. the shared ThreadPool's) may record
  // spans during static destruction.
  static TraceState *S = new TraceState;
  return *S;
}

ThreadBuffer &threadBuffer() {
  static thread_local std::shared_ptr<ThreadBuffer> Buf = [] {
    auto B = std::make_shared<ThreadBuffer>();
    TraceState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mutex);
    B->Tid = static_cast<int>(S.Buffers.size());
    S.Buffers.push_back(B);
    return B;
  }();
  return *Buf;
}

/// Minimal JSON string escaping for span names.
std::string escaped(const char *Name) {
  std::string Out;
  for (const char *P = Name; *P; ++P) {
    if (*P == '"' || *P == '\\')
      Out += '\\';
    Out += *P;
  }
  return Out;
}

void appendEvent(std::string &Out, const TraceState &S, int Tid,
                 const SpanEvent &E, bool First) {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "%s\n{\"name\": \"%s\", \"cat\": \"cmcc\", \"ph\": \"X\", "
                "\"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                First ? "" : ",", escaped(E.Name).c_str(), S.Pid, Tid,
                static_cast<double>(E.BeginNs - S.EpochNs) / 1000.0,
                static_cast<double>(E.EndNs - E.BeginNs) / 1000.0);
  Out += Buf;
  if (E.TraceId) {
    // Ids as 16-hex-digit strings: JSON numbers lose precision past
    // 2^53 and Perfetto renders args verbatim.
    Out += ", \"args\": {\"trace_id\": \"";
    Out += fingerprintHex(E.TraceId);
    Out += "\", \"span_id\": \"";
    Out += fingerprintHex(E.SpanId);
    Out += "\", \"parent_id\": \"";
    Out += fingerprintHex(E.ParentId);
    Out += "\"}";
  }
  Out += '}';
}

/// Drains every buffer and rewrites the file tail. Caller holds
/// S.Mutex. The batch plus the new tail go out in a single fwrite so
/// the window in which a kill can leave the file unparseable is one
/// partial write, not the whole flush.
bool flushLocked(TraceState &S) {
  if (!S.File)
    return false;
  std::string Batch;
  for (const std::shared_ptr<ThreadBuffer> &Buf : S.Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    for (const SpanEvent &E : Buf->Events) {
      appendEvent(Batch, S, Buf->Tid, E, S.FirstEvent);
      S.FirstEvent = false;
    }
    Buf->Events.clear();
  }
  if (Batch.empty())
    return !S.WriteError;
  std::size_t EventsLen = Batch.size();
  Batch += "\n]}\n";
  if (std::fseek(S.File, S.TailPos, SEEK_SET) != 0 ||
      std::fwrite(Batch.data(), 1, Batch.size(), S.File) != Batch.size() ||
      std::fflush(S.File) != 0) {
    S.WriteError = true;
    return false;
  }
  S.TailPos += static_cast<long>(EventsLen);
  return !S.WriteError;
}

void flusherMain() {
  TraceState &S = state();
  std::unique_lock<std::mutex> Lock(S.Mutex);
  while (!S.FlusherStop) {
    S.FlusherCv.wait_for(Lock, std::chrono::milliseconds(S.FlushMs));
    if (S.FlusherStop)
      break;
    if (S.Active)
      flushLocked(S);
  }
}

/// Reads CMCC_TRACE at static-initialization time and arranges the
/// flush at process exit, so every tool is traceable without code.
/// CMCC_TRACE_FLUSH_MS overrides the 500 ms incremental-flush cadence
/// (0 disables the background flusher; the exit flush still runs).
struct EnvTrace {
  EnvTrace() {
    const char *Path = std::getenv("CMCC_TRACE");
    if (!Path || !*Path)
      return;
    long FlushMs = 500;
    if (const char *Interval = std::getenv("CMCC_TRACE_FLUSH_MS"))
      FlushMs = std::strtol(Interval, nullptr, 10);
    if (Trace::start(Path, FlushMs))
      std::atexit([] { Trace::stop(); });
  }
} TheEnvTrace;

} // namespace

void detail::recordSpan(const char *Name, std::uint64_t BeginNs,
                        std::uint64_t EndNs, std::uint64_t TraceId,
                        std::uint64_t SpanId, std::uint64_t ParentId) {
  ThreadBuffer &Buf = threadBuffer();
  {
    std::lock_guard<std::mutex> Lock(Buf.Mutex);
    Buf.Events.push_back({Name, BeginNs, EndNs, TraceId, SpanId, ParentId});
  }
  Registry::process().counter("obs.trace_spans").add(1);
}

bool Trace::active() { return traceEnabled(); }

bool Trace::start(const std::string &Path, long FlushIntervalMs) {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (S.Active)
    return false;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
#if defined(_WIN32)
  int Pid = _getpid();
#else
  int Pid = static_cast<int>(::getpid());
#endif
  // A valid (empty) trace is on disk before the first span: truncation
  // at any later flush boundary still parses.
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  long Tail = std::ftell(F);
  std::fprintf(F, "\n]}\n");
  if (Tail < 0 || std::fflush(F) != 0) {
    std::fclose(F);
    return false;
  }
  S.Active = true;
  S.Path = Path;
  S.File = F;
  S.TailPos = Tail;
  S.FirstEvent = true;
  S.WriteError = false;
  S.Pid = Pid;
  // Drop anything a span in flight at the previous stop() left behind,
  // so a restarted trace never shows events before its own epoch.
  for (const std::shared_ptr<ThreadBuffer> &Buf : S.Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    Buf->Events.clear();
  }
  S.EpochNs = detail::nowNs();
  if (FlushIntervalMs > 0) {
    S.FlushMs = FlushIntervalMs;
    S.FlusherStop = false;
    S.Flusher = std::thread(flusherMain);
  }
  detail::TraceOn.store(true, std::memory_order_relaxed);
  return true;
}

bool Trace::flush() {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (!S.Active)
    return false;
  return flushLocked(S);
}

bool Trace::stop() {
  TraceState &S = state();
  std::thread Flusher;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (!S.Active)
      return false;
    // Disable first: spans that begin after this line are dropped at
    // construction; spans already in flight land in a buffer and are
    // simply carried into the next trace (or never written).
    detail::TraceOn.store(false, std::memory_order_relaxed);
    S.Active = false;
    S.FlusherStop = true;
    Flusher = std::move(S.Flusher);
  }
  S.FlusherCv.notify_all();
  if (Flusher.joinable())
    Flusher.join();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  bool Ok = flushLocked(S);
  if (S.File) {
    Ok = (std::fclose(S.File) == 0) && Ok;
    S.File = nullptr;
  }
  return Ok && !S.WriteError;
}
