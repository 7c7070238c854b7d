#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace charter::util {

namespace {

thread_local bool t_pool_worker = false;

/// Marks the calling thread as a pool worker for its lifetime.
class WorkerScope {
 public:
  WorkerScope() : saved_(std::exchange(t_pool_worker, true)) {}
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;
  ~WorkerScope() { t_pool_worker = saved_; }

 private:
  bool saved_;
};

/// How long an idle worker (or a caller waiting for its region) polls
/// before it parks on a condition variable.  Over the ~63k regions of
/// bench_trajectory_pipeline's coherent and full-noise 20-qubit sweeps on a
/// 4-core AVX-512 VM, the workers parked 45k times at 50 us (the coherent
/// sweep then ran ~15% slower than on libgomp, which spins for
/// milliseconds), 6k times at 200 us and ~400 times at 1 ms.
constexpr auto kSpin = std::chrono::milliseconds(1);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls \p ready for up to kSpin; true as soon as it holds.
template <typename Ready>
bool spin_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

}  // namespace

bool in_pool_worker() { return t_pool_worker; }

int resolve_threads(int threads) {
  if (threads >= 1) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers < 1) num_workers = 1;
  claims_ = std::vector<BlockClaim>(static_cast<std::size_t>(num_workers) + 1);
  threads_.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  generation_.fetch_add(1);
  wake_parked();
  for (std::thread& t : threads_) t.join();
}

// Every region bumps generation_ once its fields are written.  A worker
// that sees a new generation either claims its own split block (split
// regions) or drains tasks under mu_ (run() regions).
void ThreadPool::worker_main(int worker) {
  t_pool_worker = true;
  std::uint64_t seen = 0;
  const auto published = [&] { return generation_.load() != seen; };
  for (;;) {
    if (!spin_until(published)) {
      std::unique_lock<std::mutex> lock(mu_);
      parked_.fetch_add(1);
      work_cv_.wait(lock, published);
      parked_.fetch_sub(1);
    }
    if (stop_.load()) return;
    seen = generation_.load();
    if (split_.load()) {
      if (claim_block(worker + 1, seen)) run_block(worker + 1);
    } else {
      drain(worker);
    }
  }
}

// generation_ and parked_ are sequentially consistent on both sides: either
// the publisher sees a parking worker here, or that worker's predicate sees
// the new generation before it waits.
void ThreadPool::wake_parked() {
  if (parked_.load() == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  work_cv_.notify_all();
}

// A block is open in region `generation` while its claim word is older.
// Each region stamps every block it does not hand out with its own
// generation, so once a region is done every word has reached it, and a
// worker still acting on an earlier region can claim nothing.
bool ThreadPool::claim_block(std::int64_t block, std::uint64_t generation) {
  std::atomic<std::uint64_t>& word =
      claims_[static_cast<std::size_t>(block)].generation;
  std::uint64_t seen = word.load();
  while (seen < generation) {
    if (word.compare_exchange_weak(seen, generation)) return true;
  }
  return false;
}

void ThreadPool::run_block(std::int64_t block) {
  try {
    (*range_)(block * split_n_ / split_blocks_,
              (block + 1) * split_n_ / split_blocks_);
  } catch (...) {
    record_error(std::current_exception());
  }
  finish(1);
}

void ThreadPool::drain(int worker) {
  for (;;) {
    std::int64_t task = 0;
    std::int64_t skipped = 0;
    const std::function<void(std::int64_t, int)>* fn = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (next_ >= total_) return;
      if (cancel_ != nullptr && cancel_->requested()) {
        skipped = total_ - next_;
        next_ = total_;
      } else {
        task = next_++;
        fn = fn_;
      }
    }
    if (skipped > 0) {
      finish(skipped);
      return;
    }
    try {
      (*fn)(task, worker);
    } catch (...) {
      record_error(std::current_exception());
    }
    finish(1);
  }
}

void ThreadPool::record_error(std::exception_ptr err) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_) first_error_ = std::move(err);
  failed_.store(true);
}

// unfinished_ and caller_parked_ are sequentially consistent on both sides:
// either the last finisher sees the parking caller here, or the caller's
// predicate sees zero before it waits.
void ThreadPool::finish(std::int64_t tasks) {
  if (unfinished_.fetch_sub(tasks) == tasks && caller_parked_.load()) {
    const std::lock_guard<std::mutex> lock(mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::wait_done() {
  const auto done = [&] { return unfinished_.load() == 0; };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(mu_);
    caller_parked_.store(true);
    done_cv_.wait(lock, done);
    caller_parked_.store(false);
  }
  if (failed_.load()) {
    const std::lock_guard<std::mutex> lock(mu_);
    failed_.store(false);
    std::rethrow_exception(std::exchange(first_error_, {}));
  }
}

void ThreadPool::run(std::int64_t n,
                     const std::function<void(std::int64_t, int)>& fn,
                     const CancelFlag* cancel) {
  if (n <= 0) return;
  if (in_pool_worker()) {
    // Nested use from a task body: the pool is busy running *this* batch, so
    // parking on done_cv_ would deadlock.  Degrade to an inline serial walk.
    for (std::int64_t i = 0; i < n; ++i) {
      if (cancel && cancel->requested()) return;
      fn(i, 0);
    }
    return;
  }
  const std::lock_guard<std::mutex> region(region_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    cancel_ = cancel;
    total_ = n;
    next_ = 0;
    unfinished_.store(n);
    split_.store(false);
    const std::uint64_t generation = generation_.load() + 1;
    for (BlockClaim& c : claims_) c.generation.store(generation);
    generation_.store(generation);
  }
  wake_parked();
  wait_done();
}

bool ThreadPool::try_split(
    std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t)>& range) {
  if (n <= 0) return true;
  const std::unique_lock<std::mutex> region(region_mu_, std::try_to_lock);
  if (!region.owns_lock()) return false;
  const std::int64_t blocks =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(claims_.size()));
  range_ = &range;
  split_n_ = n;
  split_blocks_ = blocks;
  unfinished_.store(blocks);
  split_.store(true);
  // The caller's block 0 and the blocks past the split are stamped here;
  // blocks [1, blocks) stay open for the workers.
  const std::uint64_t generation = generation_.load() + 1;
  claims_[0].generation.store(generation);
  for (std::size_t b = static_cast<std::size_t>(blocks); b < claims_.size();
       ++b)
    claims_[b].generation.store(generation);
  generation_.store(generation);
  wake_parked();

  const WorkerScope as_worker;
  run_block(0);
  // Blocks whose worker has not woken yet are the caller's too.
  for (std::int64_t b = 1; b < blocks; ++b)
    if (claim_block(b, generation)) run_block(b);
  wait_done();
  return true;
}

ThreadPool* process_pool() {
  static ThreadPool* const pool =
      resolve_threads(0) > 1 ? new ThreadPool(resolve_threads(0) - 1)
                             : nullptr;
  return pool;
}

}  // namespace charter::util
