#pragma once

/// \file parallel.hpp
/// Shared-memory parallel loop helpers.
///
/// Following the HPC guides, all parallelism in charter goes through these
/// high-level abstractions rather than ad-hoc thread management.  Loops run
/// on util::process_pool() (thread_pool.hpp), the same pool type the exec
/// layer schedules its jobs on; kernels stay oblivious to it.
///
/// A loop runs serially when it is shorter than kParallelMinLength, when the
/// caller is a pool worker (a task body of any util::ThreadPool), or when
/// another thread holds the process pool.  Every loop writes disjoint
/// indices and every reduction sums fixed chunks, so the serial and the
/// parallel run give the same bits.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace charter::util {

/// Iteration count below which parallel_for stays serial.  On a 4-core
/// AVX-512 VM the 1-qubit kernel (two amplitude pairs per iteration) ran
/// slower split than serial at 2048 iterations (5-7 us against 4 us) and
/// faster at 4096 (6.3 us against 7.9 us).
inline constexpr std::int64_t kParallelMinLength = 4096;

/// Runs fn(i) for i in [0, n), split into contiguous blocks across the
/// calling thread and the process pool once n * \p iteration_size reaches
/// kParallelMinLength.  A loop whose iterations each cover a block of
/// elements passes the block length as \p iteration_size.  fn must be safe
/// to invoke concurrently for distinct i.
template <typename Fn>
void parallel_for(std::int64_t n, Fn&& fn, std::int64_t iteration_size = 1) {
  const auto range = [&](std::int64_t begin, std::int64_t end) {
    // A local copy keeps the body's captures in registers: through the
    // reference, every store a kernel makes could alias them.
    auto body = fn;
    for (std::int64_t i = begin; i < end; ++i) body(i);
  };
  if (n * iteration_size >= kParallelMinLength && !in_pool_worker()) {
    ThreadPool* pool = process_pool();
    if (pool != nullptr && pool->try_split(n, range)) return;
  }
  range(0, n);
}

/// Fixed chunk length of parallel_sum_chunked's association tree (a power
/// of two, so amplitude sums over <= 2^13 entries degenerate to one chunk —
/// the plain serial accumulation).
inline constexpr std::int64_t kChunkedSumLen = 8192;

/// Thread-count-*invariant* sum-reduction over [0, n): \p range_sum(b, e)
/// returns the serial, index-ordered sum of the terms in [b, e); it is
/// called once per fixed-length chunk and the per-chunk partials are folded
/// serially in chunk-index order.  The association is a function of n
/// alone, so the result is bit-identical at every thread count and on pool
/// workers, where the chunk loop runs serially.  A range function may skip
/// terms that are exactly +0.0 without changing a bit.  Every reduction
/// over a state (norms, marginals, purity) goes through here.
template <typename RangeSum>
double parallel_sum_chunked(std::int64_t n, RangeSum&& range_sum) {
  if (n <= kChunkedSumLen) return range_sum(std::int64_t{0}, n);
  const std::int64_t num_chunks = (n + kChunkedSumLen - 1) / kChunkedSumLen;
  std::vector<double> partial(static_cast<std::size_t>(num_chunks), 0.0);
  parallel_for(
      num_chunks,
      [&](std::int64_t c) {
        const std::int64_t begin = c * kChunkedSumLen;
        const std::int64_t end =
            begin + kChunkedSumLen < n ? begin + kChunkedSumLen : n;
        partial[static_cast<std::size_t>(c)] = range_sum(begin, end);
      },
      kChunkedSumLen);
  double total = 0.0;
  for (const double s : partial) total += s;
  return total;
}

}  // namespace charter::util
