//===- support/ThreadPool.cpp ---------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include <cstdlib>
#include <string>

using namespace cmcc;

namespace {
/// True on threads currently executing a loop body; parallelFor from
/// such a thread must run inline rather than wait on the pool.
thread_local bool InsideLoopBody = false;
} // namespace

ThreadPool::ThreadPool(int Threads)
    : LoopsTotal(obs::Registry::process().counter("threadpool.loops_total")),
      LoopsActive(obs::Registry::process().gauge("threadpool.loops_active")),
      TaskWaitUs(
          obs::Registry::process().histogram("threadpool.task_wait_us")),
      LoopUs(obs::Registry::process().histogram("threadpool.loop_us")),
      BusyInline(
          obs::Registry::process().counter("threadpool.busy_inline_total")) {
  int Spawn = Threads < 1 ? 0 : Threads - 1;
  Workers.reserve(Spawn);
  for (int I = 0; I != Spawn; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runIndices() {
  for (;;) {
    int I = NextIndex.fetch_add(1, std::memory_order_relaxed);
    if (I >= EndIndex)
      return;
    (*Body)(I);
  }
}

void ThreadPool::workerLoop() {
  long SeenGeneration = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [&] {
        return ShuttingDown || Generation != SeenGeneration;
      });
      if (ShuttingDown)
        return;
      SeenGeneration = Generation;
    }
    // Adopt the submitter's trace context for this loop's spans.
    obs::ScopedTraceContext TraceScope(LoopCtx.TraceId, LoopCtx.SpanId);
    // Wake-up latency: dispatch notify to this worker pulling its
    // first index (the queueing delay of the pool's "task").
    TaskWaitUs.observe(
        static_cast<double>(obs::detail::nowNs() -
                            DispatchNs.load(std::memory_order_relaxed)) /
        1000.0);
    InsideLoopBody = true;
    {
      CMCC_SPAN("threadpool.worker_run");
      runIndices();
    }
    InsideLoopBody = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Active == 0)
        WorkDone.notify_all();
    }
  }
}

void ThreadPool::parallelFor(int N, const std::function<void(int)> &Fn) {
  if (N <= 0)
    return;
  LoopsTotal.add(1);
  auto RunInline = [&] {
    for (int I = 0; I != N; ++I)
      Fn(I);
  };
  // Serial pool, tiny loop, a nested call from a loop body — or an
  // injected dispatch fault, which degrades this loop to inline serial
  // execution. Any thread count (including one) computes identical
  // bits, so running inline never changes results.
  if (Workers.empty() || N == 1 || InsideLoopBody ||
      fault::probe("threadpool.dispatch"))
    return RunInline();
  // A pool busy with another caller's loop is not waited for: its loops
  // last microseconds, and concurrent service workers queueing behind
  // each other lost more time than running their own loop serially.
  std::unique_lock<std::mutex> OneCaller(CallerMutex, std::try_to_lock);
  if (!OneCaller.owns_lock()) {
    BusyInline.add(1);
    return RunInline();
  }
  // Loops running on pools (callers no longer queue, so one per pool).
  LoopsActive.add(1);
  obs::ScopedLatencyUs LoopTimer(LoopUs);
  CMCC_SPAN("threadpool.parallel_for");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Body = &Fn;
    LoopCtx = obs::traceEnabled() ? obs::currentTraceContext()
                                  : obs::TraceContext();
    EndIndex = N;
    NextIndex.store(0, std::memory_order_relaxed);
    Active = static_cast<int>(Workers.size());
    ++Generation;
    DispatchNs.store(obs::detail::nowNs(), std::memory_order_relaxed);
  }
  WorkReady.notify_all();
  InsideLoopBody = true;
  runIndices();
  InsideLoopBody = false;
  std::unique_lock<std::mutex> Lock(Mutex);
  WorkDone.wait(Lock, [&] { return Active == 0; });
  Body = nullptr;
  LoopsActive.add(-1);
}

int ThreadPool::sharedThreadCount() {
  if (const char *Env = std::getenv("CMCC_THREADS")) {
    int Requested = std::atoi(Env);
    if (Requested >= 1)
      return Requested;
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : static_cast<int>(Hw);
}

ThreadPool &ThreadPool::shared() {
  static ThreadPool Pool(sharedThreadCount());
  return Pool;
}
