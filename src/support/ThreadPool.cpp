//===- support/ThreadPool.cpp ---------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>

using namespace cmcc;

namespace {
/// True on threads currently executing a loop body; parallelFor from
/// such a thread must run inline rather than wait on the pool.
thread_local bool InsideLoopBody = false;

/// The pools lease() built, and which of them are parked, by size.
struct ParkingLot {
  std::mutex Mutex;
  std::vector<std::unique_ptr<ThreadPool>> Built;
  std::unordered_map<int, std::vector<ThreadPool *>> Parked;
};

/// Leaked, so a lease that ends during static destruction (a service
/// drained from a destructor) still finds the lot.
ParkingLot &parkingLot() {
  static ParkingLot *Lot = new ParkingLot;
  return *Lot;
}
} // namespace

ThreadPool::ThreadPool(int Threads)
    : LoopsTotal(obs::Registry::process().counter("threadpool.loops_total")),
      LoopsActive(obs::Registry::process().gauge("threadpool.loops_active")),
      TaskWaitUs(
          obs::Registry::process().histogram("threadpool.task_wait_us")),
      LoopUs(obs::Registry::process().histogram("threadpool.loop_us")) {
  int Spawn = Threads < 1 ? 0 : Threads - 1;
  Workers.reserve(Spawn);
  for (int I = 0; I != Spawn; ++I)
    Workers.emplace_back([this, I] { workerLoop(I + 1); });
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

void ThreadPool::runChunk(int Participant) {
  const long T = threadCount();
  const int Begin = static_cast<int>(Participant * EndIndex / T);
  const int End = static_cast<int>((Participant + 1) * EndIndex / T);
  if (Begin != End)
    (*Body)(Begin, End);
}

void ThreadPool::workerLoop(int Participant) {
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
    // Wake-up latency: dispatch notify to this worker starting its
    // chunk (the queueing delay of the pool's "task").
    TaskWaitUs.observe(
        static_cast<double>(obs::detail::nowNs() -
                            DispatchNs.load(std::memory_order_relaxed)) /
        1000.0);
    InsideLoopBody = true;
    {
      CMCC_SPAN("threadpool.worker_run");
      runChunk(Participant);
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
  parallelChunks(N, [&Fn](int Begin, int End) {
    for (int I = Begin; I != End; ++I)
      Fn(I);
  });
}

void ThreadPool::parallelChunks(int N,
                                const std::function<void(int, int)> &Fn) {
  if (N <= 0)
    return;
  LoopsTotal.add(1);
  // Serial pool, tiny loop, a nested call from a loop body — or an
  // injected dispatch fault, which degrades this loop to inline serial
  // execution. Dispatch is the one site whose fault is benign by
  // construction: any thread count (including one) computes identical
  // bits, so the degraded mode must not change results.
  if (Workers.empty() || N == 1 || InsideLoopBody ||
      fault::probe("threadpool.dispatch")) {
    Fn(0, N);
    return;
  }
  // Loops queued on the pool (waiting on CallerMutex) plus the one
  // running: the pool's task-queue depth, high-water mark included.
  LoopsActive.add(1);
  obs::ScopedLatencyUs LoopTimer(LoopUs);
  CMCC_SPAN("threadpool.parallel_for");
  std::lock_guard<std::mutex> OneCaller(CallerMutex);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Body = &Fn;
    LoopCtx = obs::traceEnabled() ? obs::currentTraceContext()
                                  : obs::TraceContext();
    EndIndex = N;
    Active = static_cast<int>(Workers.size());
    ++Generation;
    DispatchNs.store(obs::detail::nowNs(), std::memory_order_relaxed);
  }
  WorkReady.notify_all();
  InsideLoopBody = true;
  runChunk(0);
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

ThreadPool::Lease ThreadPool::lease(int Threads) {
  if (Threads == 0)
    return Lease(&shared(), /*Borrowed=*/false);
  const int Size = Threads < 1 ? 1 : Threads;
  ParkingLot &Lot = parkingLot();
  {
    std::lock_guard<std::mutex> Lock(Lot.Mutex);
    std::vector<ThreadPool *> &Parked = Lot.Parked[Size];
    if (!Parked.empty()) {
      ThreadPool *Pool = Parked.back();
      Parked.pop_back();
      return Lease(Pool, /*Borrowed=*/true);
    }
  }
  // Spawn outside the lot's lock; the new pool is registered on return.
  auto Pool = std::make_unique<ThreadPool>(Size);
  ThreadPool *Raw = Pool.get();
  std::lock_guard<std::mutex> Lock(Lot.Mutex);
  Lot.Built.push_back(std::move(Pool));
  return Lease(Raw, /*Borrowed=*/true);
}

ThreadPool::Lease::~Lease() {
  if (!Borrowed)
    return;
  ParkingLot &Lot = parkingLot();
  std::lock_guard<std::mutex> Lock(Lot.Mutex);
  Lot.Parked[Pool->threadCount()].push_back(Pool);
}

int ThreadPool::leasedPoolCount() {
  ParkingLot &Lot = parkingLot();
  std::lock_guard<std::mutex> Lock(Lot.Mutex);
  return static_cast<int>(Lot.Built.size());
}
