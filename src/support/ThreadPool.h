//===- support/ThreadPool.h - Host-side parallel-for pool -----*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool with a blocking parallelFor — the host
/// execution engine behind the simulator's per-node fan-out. The machine
/// being modeled is synchronous SIMD: after the halo exchange every
/// node's half-strips are independent, so the functional loop over nodes
/// is embarrassingly parallel on the host. The pool deliberately has no
/// work stealing and no futures: one loop at a time, the caller
/// participating as a worker, and every participant running a fixed
/// contiguous chunk of the index range — of T participants, participant
/// t (the caller is 0, worker w is w + 1) always runs [t*N/T,
/// (t+1)*N/T). Every loop the engine runs does uniform work per index
/// (a node), so static chunks balance as well as a shared counter
/// would, and they make the index -> thread map a fixed property of the
/// pool: a node's data stays in the same core's cache from one run to
/// the next (the CM-2's owner-computes rule, where each node owns its
/// subgrid). That is all the engine needs, and it keeps it easy to
/// reason about (and to run under -fsanitize=thread).
///
/// Parallelism must never change results: every index writes disjoint
/// data, and each index's work is internally sequential, so the output
/// is bitwise identical for any thread count (a property the tests
/// enforce).
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_SUPPORT_THREADPOOL_H
#define CMCC_SUPPORT_THREADPOOL_H

#include "obs/Metrics.h"
#include "obs/TraceContext.h"
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cmcc {

/// A fixed pool of worker threads executing [0, N) index ranges.
class ThreadPool {
public:
  /// Creates a pool that runs loop bodies on \p Threads threads in
  /// total (the caller counts as one; Threads - 1 workers are spawned).
  /// Threads < 1 is clamped to 1, which makes parallelFor run inline.
  explicit ThreadPool(int Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total threads that execute loop bodies (callers of parallelFor
  /// included).
  int threadCount() const { return static_cast<int>(Workers.size()) + 1; }

  /// Runs Fn(Begin, End) once per participant with a nonempty chunk of
  /// [0, N) — participant t's chunk is [t*N/T, (t+1)*N/T) of T =
  /// threadCount() — and returns when all calls have finished. The
  /// calling thread runs chunk 0. Concurrent calls from different
  /// threads are serialized. A one-thread pool, a one-index loop, a call
  /// from inside a loop body (no nested fan-out, no deadlock) and an
  /// injected `threadpool.dispatch` fault run Fn(0, N) inline.
  void parallelChunks(int N, const std::function<void(int, int)> &Fn);

  /// Runs Fn(0) ... Fn(N-1) through parallelChunks: each index on its
  /// chunk's participant, in ascending order within a chunk.
  void parallelFor(int N, const std::function<void(int)> &Fn);

  /// The process-wide pool the executor uses: lazily constructed on
  /// first use, sized by the CMCC_THREADS environment variable when set
  /// (clamped to >= 1), else std::thread::hardware_concurrency().
  static ThreadPool &shared();

  /// The thread count shared() will use (or did use), resolved from the
  /// environment without constructing the pool.
  static int sharedThreadCount();

  /// A run's pool, held for the run's duration (see lease()). Ending the
  /// lease parks a borrowed pool for the next run; it never joins
  /// threads.
  class Lease {
  public:
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    ~Lease();

    ThreadPool *get() const { return Pool; }

  private:
    friend class ThreadPool;
    Lease(ThreadPool *Pool, bool Borrowed) : Pool(Pool), Borrowed(Borrowed) {}
    ThreadPool *Pool;
    bool Borrowed;
  };

  /// The pool one host run executes on. \p Threads == 0 means the shared
  /// pool. Otherwise the run borrows a parked pool of exactly that many
  /// threads (< 1 is clamped to 1), and one is built only when every
  /// pool of that size is already leased. A run therefore pays for
  /// thread start-up once per process, not once per run, and the number
  /// of pools of a size is the peak number of concurrent runs asking
  /// for it. Parked pools live until the process exits.
  static Lease lease(int Threads);

  /// Pools lease() has built so far, all sizes together.
  static int leasedPoolCount();

private:
  /// The loop of worker \p Participant (1-based: the caller is 0).
  void workerLoop(int Participant);
  /// Runs participant \p Participant's chunk of the current loop.
  void runChunk(int Participant);

  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable WorkDone;
  /// Serializes concurrent parallelFor callers.
  std::mutex CallerMutex;

  const std::function<void(int, int)> *Body = nullptr;
  /// The submitting thread's trace context, captured per loop (under
  /// Mutex, like Body) so worker spans nest under the caller's span and
  /// carry the job's trace id instead of appearing as orphan roots.
  obs::TraceContext LoopCtx;
  int EndIndex = 0;
  /// When the current loop was handed to the workers; each worker's
  /// wake-up latency against it lands in the task-wait histogram.
  std::atomic<std::uint64_t> DispatchNs{0};
  //===--- Observability (process registry; pools share the names) --------===//
  obs::Counter &LoopsTotal;   ///< threadpool.loops_total
  obs::Gauge &LoopsActive;    ///< threadpool.loops_active (depth + max)
  obs::Histogram &TaskWaitUs; ///< threadpool.task_wait_us
  obs::Histogram &LoopUs;     ///< threadpool.loop_us
  /// Incremented per parallelFor; wakes workers exactly once per loop.
  long Generation = 0;
  /// Workers still inside the current loop.
  int Active = 0;
  bool ShuttingDown = false;
};

} // namespace cmcc

#endif // CMCC_SUPPORT_THREADPOOL_H
