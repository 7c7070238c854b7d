#pragma once

/// \file sharding.hpp
/// Shard construction for the parallel analysis sweep.
///
/// BatchRunner schedules a checkpointed sweep over the worker pool at the
/// granularity of *shards*, not individual jobs: all jobs that resume from
/// the same checkpoint segment are grouped, so one worker reloads one
/// cache-warm snapshot (a 4^n density matrix) many times instead of every
/// worker touching every snapshot.  Shards are claimed dynamically — resumed
/// suffixes shrink as the fork point moves toward the circuit's end, so
/// static assignment would leave the early-segment workers idle — and a
/// segment with more jobs than \p max_shard_jobs is split so a single hot
/// segment cannot serialize the pool.
///
/// Determinism does not depend on any of this: every job writes its result
/// by submission index and the coordinating thread reduces in that order,
/// so shard shapes and completion order never reach the numbers.

#include <cstddef>
#include <vector>

namespace charter::exec {

/// One pool-scheduling unit: jobs (identified by their index into the
/// batch's job array) resuming from the same checkpoint segment.
struct Shard {
  std::size_t segment = 0;
  std::vector<std::size_t> jobs;  ///< submission order preserved
};

/// Partitions \p job_indices into shards by \p segments (parallel to
/// \p job_indices: segments[k] is job_indices[k]'s checkpoint segment).
/// Shards are ordered by ascending segment; jobs keep their relative order;
/// no shard exceeds \p max_shard_jobs (>= 1).
std::vector<Shard> make_shards(const std::vector<std::size_t>& job_indices,
                               const std::vector<std::size_t>& segments,
                               std::size_t max_shard_jobs);

/// Shard-size cap that keeps \p num_workers pool workers balanced: roughly
/// four claims per worker across the batch, never below 1.
std::size_t default_max_shard_jobs(std::size_t num_jobs, int num_workers);

}  // namespace charter::exec
