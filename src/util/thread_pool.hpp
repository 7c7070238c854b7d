#pragma once

/// \file thread_pool.hpp
/// The library's worker pool: every parallel loop in charter runs on one.
///
///  - The exec layer (exec/batch.hpp) and the daemon scheduler own pools
///    sized by their `threads` knob and hand out tasks through run(): a
///    dynamic self-scheduling loop whose tasks see a stable worker index,
///    the handle for per-worker scratch (a cloned simulation engine).
///  - util::parallel_for (parallel.hpp) splits loops that start off every
///    pool across process_pool() through try_split(): the calling thread
///    takes one contiguous block and the workers take the others.
///
/// Nothing numeric changes with the worker count.  Tasks write results
/// keyed by task index and never reduce across tasks inside the pool (the
/// coordinating thread folds in index order afterwards), and every task
/// body runs with util::in_pool_worker() set, so the nested
/// util::parallel_* helpers stay serial there at *every* pool width,
/// including 1.  A run() issued from inside a worker (accidental nesting)
/// executes inline on the caller.
///
/// Workers spin for up to a millisecond after each region before they park
/// on a condition variable, so back-to-back regions (one per tape op of a
/// 20-qubit sweep) pay no wake-up each.  A region is complete when its
/// tasks are done, not when every worker has checked in: a worker that is
/// descheduled before it claims a task cannot stall the caller.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace charter::util {

/// Resolves a thread-count knob: values >= 1 are taken literally; 0 (the
/// "auto" convention used by exec::BatchOptions::threads) means one worker
/// per hardware thread.
int resolve_threads(int threads);

/// True on threads owned by a util::ThreadPool, and on a try_split() caller
/// while it runs its blocks.
bool in_pool_worker();

/// Cooperative cancellation flag shared between a controller (a Session job
/// handle, a CLI signal handler) and the workers executing on its behalf.
/// request() is sticky: once set, every observer sees it until the flag
/// object is destroyed.  Safe to request from any thread, including from
/// inside a progress callback running on a pool worker.
class CancelFlag {
 public:
  void request() { requested_.store(true, std::memory_order_relaxed); }
  bool requested() const {
    return requested_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> requested_{false};
};

/// Fixed-width pool of worker threads with dynamic task claiming.
class ThreadPool {
 public:
  /// Spawns \p num_workers threads (clamped to >= 1).  Workers idle on a
  /// condition variable until a region publishes work.
  explicit ThreadPool(int num_workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  int num_workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(task, worker) for every task in [0, n), dynamically scheduled
  /// across the workers, and blocks until all complete.  \p worker is the
  /// executing worker's stable index in [0, num_workers()) — the handle for
  /// per-worker scratch.  fn must be safe to invoke concurrently for
  /// distinct tasks.  Exceptions thrown by fn are captured; the first one
  /// (in completion order) is rethrown here after the loop drains.  Called
  /// from inside a pool worker, the loop degrades to an inline serial walk
  /// (worker index 0) rather than deadlocking on the busy pool; concurrent
  /// callers from outside take turns.
  ///
  /// When \p cancel is non-null, workers stop *claiming* tasks as soon as
  /// the flag is requested (tasks already executing finish normally) and
  /// run() returns after the drain without visiting the remaining indices.
  /// The caller decides what a partial walk means — exec::BatchRunner
  /// discards its partial results and throws charter::Cancelled.
  void run(std::int64_t n, const std::function<void(std::int64_t, int)>& fn,
           const CancelFlag* cancel = nullptr);

  /// Splits [0, n) into min(n, num_workers() + 1) contiguous blocks and
  /// runs range(begin, end) once per block: the calling thread takes the
  /// first block, then every block no worker has claimed yet; the workers
  /// take the rest.  Returns true once every block is done.  Returns false
  /// at once, running nothing, when another caller holds the pool.
  /// Exceptions propagate as in run().
  bool try_split(std::int64_t n,
                 const std::function<void(std::int64_t, std::int64_t)>& range);

 private:
  /// One split block's claim word, on its own cache line: the generation of
  /// the region that last claimed the block (see try_split()).
  struct alignas(64) BlockClaim {
    std::atomic<std::uint64_t> generation{0};
  };

  void worker_main(int worker);
  void wake_parked();
  bool claim_block(std::int64_t block, std::uint64_t generation);
  void run_block(std::int64_t block);
  void drain(int worker);
  void record_error(std::exception_ptr err);
  void finish(std::int64_t tasks);
  void wait_done();

  std::mutex region_mu_;              ///< held by a run()/try_split() caller
  std::mutex mu_;                     ///< guards run()'s task fields, errors
  std::condition_variable work_cv_;   ///< parked workers wait here
  std::condition_variable done_cv_;   ///< a parked caller waits here
  std::atomic<std::uint64_t> generation_{0};  ///< bumped per region and stop
  std::atomic<bool> split_{false};    ///< current region came from try_split
  std::atomic<std::int64_t> unfinished_{0};   ///< tasks or blocks not done
  std::atomic<int> parked_{0};        ///< workers waiting on work_cv_
  std::atomic<bool> caller_parked_{false};  ///< a caller waits on done_cv_
  std::atomic<bool> failed_{false};   ///< first_error_ is set
  std::atomic<bool> stop_{false};
  // run()'s region, under mu_.
  const std::function<void(std::int64_t, int)>* fn_ = nullptr;
  const CancelFlag* cancel_ = nullptr;
  std::int64_t total_ = 0;
  std::int64_t next_ = 0;             ///< next unclaimed task
  // try_split()'s region, written before generation_ is bumped.
  const std::function<void(std::int64_t, std::int64_t)>* range_ = nullptr;
  std::int64_t split_n_ = 0;
  std::int64_t split_blocks_ = 0;
  std::vector<BlockClaim> claims_;    ///< one per block, num_workers() + 1
  std::exception_ptr first_error_;    ///< under mu_
  std::vector<std::thread> threads_;
};

/// The process-wide pool behind util::parallel_for and
/// sim::run_trajectories: resolve_threads(0) - 1 workers, so a region the
/// calling thread joins spans resolve_threads(0) threads.  Built on the
/// first call and never destroyed; nullptr on a one-thread machine.
ThreadPool* process_pool();

}  // namespace charter::util
