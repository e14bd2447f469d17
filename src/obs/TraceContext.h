//===- obs/TraceContext.h - Job-scoped trace propagation ------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 64-bit trace id plus parent span id, carried with a job across
/// process boundaries so one Perfetto trace shows the whole tree:
/// client submit -> server dispatch -> service stages -> backend
/// execution. The context lives in a thread-local; every Span records
/// the current context (when one is set) so spans from different
/// processes sharing a trace id line up under one flow.
///
/// The client mints the trace id (mintTraceId), stamps it into the
/// submit payload, and the service worker re-establishes it around the
/// job with ScopedTraceContext. When no context is set (TraceId == 0)
/// spans record exactly as before — the plumbing costs one thread-local
/// read on the traced path and nothing on the disabled path.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_OBS_TRACECONTEXT_H
#define CMCC_OBS_TRACECONTEXT_H

#include <cstdint>
#include <string>

namespace cmcc {
namespace obs {

/// The propagated identity: which trace this thread's spans belong to
/// and which span is their parent. TraceId == 0 means "no context".
struct TraceContext {
  std::uint64_t TraceId = 0;
  std::uint64_t SpanId = 0;

  bool valid() const { return TraceId != 0; }
};

/// The calling thread's current context ({0, 0} when none is set).
TraceContext currentTraceContext();

/// Replaces the calling thread's context; returns the previous one.
/// Prefer ScopedTraceContext.
TraceContext exchangeTraceContext(TraceContext Ctx);

/// Mints a fresh process-unique, collision-resistant 64-bit trace id
/// (never 0). Seeded from the clock, pid, and address-space layout so
/// concurrent clients mint distinct ids.
std::uint64_t mintTraceId();

/// Mints a fresh span id for the calling thread (never 0). Cheap: one
/// thread-local counter step through a mixing function.
std::uint64_t mintSpanId();

/// Parses an id the way trace JSON and the CLI print it
/// (cmcc::fingerprintHex: 16 hex digits); accepts an optional 0x
/// prefix and returns 0 on malformed input.
std::uint64_t parseTraceId(const std::string &Text);

/// Establishes \p Ctx as the thread's context for the enclosing scope
/// and restores the previous context on destruction. A default or
/// zero-trace-id context leaves the thread untouched, so un-traced jobs
/// pay only the TraceId != 0 branch.
class ScopedTraceContext {
public:
  ScopedTraceContext() = default;
  explicit ScopedTraceContext(TraceContext Ctx) {
    if (Ctx.valid()) {
      Saved = exchangeTraceContext(Ctx);
      Active = true;
    }
  }
  ScopedTraceContext(std::uint64_t TraceId, std::uint64_t ParentSpan)
      : ScopedTraceContext(TraceContext{TraceId, ParentSpan}) {}
  ~ScopedTraceContext() {
    if (Active)
      exchangeTraceContext(Saved);
  }
  ScopedTraceContext(const ScopedTraceContext &) = delete;
  ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

private:
  TraceContext Saved;
  bool Active = false;
};

} // namespace obs
} // namespace cmcc

#endif // CMCC_OBS_TRACECONTEXT_H
