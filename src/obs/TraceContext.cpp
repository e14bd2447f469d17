//===- obs/TraceContext.cpp -----------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/TraceContext.h"
#include <atomic>
#include <chrono>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

using namespace cmcc;
using namespace cmcc::obs;

namespace {

thread_local TraceContext CurrentContext;

/// SplitMix64: full-period mixing, the same generator the fault
/// injector and data fills use.
std::uint64_t splitMix64(std::uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  std::uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::uint64_t processSeed() {
  std::uint64_t Seed = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  Seed ^= static_cast<std::uint64_t>(
              std::chrono::system_clock::now().time_since_epoch().count())
          << 1;
#if defined(_WIN32)
  Seed ^= static_cast<std::uint64_t>(_getpid()) << 32;
#else
  Seed ^= static_cast<std::uint64_t>(::getpid()) << 32;
#endif
  // ASLR contributes entropy across processes started the same tick.
  Seed ^= reinterpret_cast<std::uintptr_t>(&Seed);
  return Seed;
}

} // namespace

TraceContext obs::currentTraceContext() { return CurrentContext; }

TraceContext obs::exchangeTraceContext(TraceContext Ctx) {
  TraceContext Prev = CurrentContext;
  CurrentContext = Ctx;
  return Prev;
}

std::uint64_t obs::mintTraceId() {
  static std::atomic<std::uint64_t> State{processSeed()};
  std::uint64_t Id = 0;
  while (Id == 0) {
    std::uint64_t S = State.fetch_add(0x9e3779b97f4a7c15ULL,
                                      std::memory_order_relaxed);
    std::uint64_t Z = S + 0x9e3779b97f4a7c15ULL;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    Id = Z ^ (Z >> 31);
  }
  return Id;
}

std::uint64_t obs::mintSpanId() {
  // Per-thread stream: no synchronization on the traced hot path.
  static thread_local std::uint64_t State = mintTraceId();
  std::uint64_t Id = 0;
  while (Id == 0)
    Id = splitMix64(State);
  return Id;
}

std::uint64_t obs::parseTraceId(const std::string &Text) {
  std::size_t Pos = 0;
  if (Text.size() > 2 && Text[0] == '0' && (Text[1] == 'x' || Text[1] == 'X'))
    Pos = 2;
  if (Pos == Text.size() || Text.size() - Pos > 16)
    return 0;
  std::uint64_t Value = 0;
  for (; Pos < Text.size(); ++Pos) {
    char C = Text[Pos];
    std::uint64_t Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<std::uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<std::uint64_t>(C - 'a') + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = static_cast<std::uint64_t>(C - 'A') + 10;
    else
      return 0;
    Value = (Value << 4) | Digit;
  }
  return Value;
}
