#pragma once

/// \file parallel.hpp
/// Shared-memory parallel loop helpers.
///
/// Following the HPC guides, all parallelism in charter goes through these
/// high-level abstractions rather than ad-hoc thread management: OpenMP when
/// available, serial fallback otherwise.  Kernels stay oblivious to the
/// threading backend.

#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace charter::util {

namespace detail {
/// Set for the lifetime of every util::ThreadPool worker thread
/// (thread_pool.cpp).  The helpers below treat pool workers exactly like
/// nested OpenMP regions and stay serial there — at *every* pool width, so
/// order-dependent reductions (parallel_sum) can never reassociate
/// differently when the exec layer's `threads` knob changes.
extern thread_local bool t_pool_worker;
}  // namespace detail

/// True on threads owned by a util::ThreadPool.
inline bool in_pool_worker() { return detail::t_pool_worker; }

/// Number of hardware threads the parallel helpers will use.
inline int num_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Runs fn(i) for i in [0, n); parallel when n is large enough to amortize
/// scheduling overhead.  fn must be safe to invoke concurrently for distinct i.
template <typename Fn>
void parallel_for(std::int64_t n, Fn&& fn, std::int64_t grain = 1024) {
#ifdef _OPENMP
  if (n >= 2 * grain && omp_get_max_threads() > 1 && !omp_in_parallel() &&
      !in_pool_worker()) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

/// Dynamic-schedule variant of parallel_for for loops whose iterations have
/// irregular cost (whole-circuit simulation jobs, per-gate analysis runs).
/// Same policy guards as parallel_for: serial when OpenMP is absent, when the
/// loop is too small to amortize scheduling (< \p min_parallel iterations),
/// or when already inside a parallel region (inner kernels detect nesting and
/// stay serial).  fn must be safe to invoke concurrently for distinct i.
template <typename Fn>
void parallel_for_dynamic(std::int64_t n, Fn&& fn,
                          std::int64_t min_parallel = 2) {
#ifdef _OPENMP
  if (n >= min_parallel && omp_get_max_threads() > 1 && !omp_in_parallel() &&
      !in_pool_worker()) {
#pragma omp parallel for schedule(dynamic)
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
#else
  (void)min_parallel;
#endif
  for (std::int64_t i = 0; i < n; ++i) fn(i);
}

/// Parallel sum-reduction of fn(i) over i in [0, n).
template <typename Fn>
double parallel_sum(std::int64_t n, Fn&& fn, std::int64_t grain = 1024) {
  double total = 0.0;
#ifdef _OPENMP
  if (n >= 2 * grain && omp_get_max_threads() > 1 && !omp_in_parallel() &&
      !in_pool_worker()) {
#pragma omp parallel for schedule(static) reduction(+ : total)
    for (std::int64_t i = 0; i < n; ++i) total += fn(i);
    return total;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = 0; i < n; ++i) total += fn(i);
  return total;
}

/// Fixed chunk length of parallel_sum_chunked's association tree (a power
/// of two, so amplitude sums over <= 2^13 entries degenerate to one chunk —
/// the plain serial accumulation).
inline constexpr std::int64_t kChunkedSumLen = 8192;

/// Thread-count-*invariant* sum-reduction over [0, n): \p range_sum(b, e)
/// returns the serial, index-ordered sum of the terms in [b, e); it is
/// called once per fixed-length chunk and the per-chunk partials are folded
/// serially in chunk-index order.  Unlike parallel_sum — whose OpenMP
/// reduction tree reassociates with the worker count — the association here
/// is a function of n alone, so the result is bit-identical at every thread
/// count, inside nested regions and pool workers (where the chunk loop runs
/// serially), and on a machine with no OpenMP at all.  A range function may
/// skip terms that are exactly +0.0 without changing a bit.  Used by the
/// amplitude-parallel large-n statevector path, whose reductions would
/// otherwise break the bit-determinism contract the trajectory fold relies
/// on.
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
      /*grain=*/1);
  double total = 0.0;
  for (const double s : partial) total += s;
  return total;
}

}  // namespace charter::util
