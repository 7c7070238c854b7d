#pragma once

/// \file batch.hpp
/// Batched execution: the layer between the analysis pipeline and the
/// backend.
///
/// CHARTER-style protocols submit many near-identical circuits per analysis
/// (one reversed circuit per gate).  BatchRunner accepts the whole family as
/// AnalysisJobs and schedules them across a util::ThreadPool sized by
/// BatchOptions::threads — partitioned into checkpoint-segment shards
/// (sharding.hpp), one cloned scratch engine per worker, with every result
/// written by submission index so the reduction order never depends on
/// completion order.  The numbers are bit-identical at every thread count:
/// task bodies run with nested util::parallel_* forced serial, and
/// trajectory averages fold in trajectory-index order within fixed groups.  On top of the
/// scheduling, two accelerations the per-run backend API cannot give:
///
///  - prefix-state checkpointing (checkpoint.hpp): when jobs declare a
///    shared prefix against a base program and the run is exactly
///    reproducible (density-matrix engine, drift == 0), the base is
///    simulated once and every job resumes mid-circuit, simulating only its
///    inserted gates plus the suffix — O(G * avg-suffix) instead of O(G^2)
///    simulated gate-applications;
///  - run caching (cache.hpp): results are memoized process-wide on
///    (program, device, options), so repeated submissions — bench sweeps,
///    the mitigation workflow's re-analysis — skip the simulator entirely.
///
/// Checkpoint sharing covers both engines.  Density-matrix jobs resume from
/// vec(rho) snapshots (checkpoint.hpp).  Trajectory jobs resume from
/// per-unravelling engine clones that carry the RNG stream
/// (trajectory_plan.hpp) — exact only when every sharer also agrees on
/// (seed, trajectory count) with the base sweep, which the analyzer opts
/// into via common random numbers.  Jobs that cannot share exactly (drifted
/// calibration, differing qubit footprints, or mismatched trajectory seeds)
/// fall back to independent full runs on the same pool — trajectory full
/// runs fan every unravelling out as its own task and fold through
/// sim::TrajectoryFold; every result is bit-identical to a standalone
/// FakeBackend::run with the same options.

#include <cstddef>
#include <functional>
#include <vector>

#include "backend/backend.hpp"
#include "exec/cache.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

/// One analysis execution: a compiled program plus its run options.
struct AnalysisJob {
  const backend::CompiledProgram* program = nullptr;
  backend::RunOptions run;
  /// Number of leading ops of program->physical that are byte-identical to
  /// the batch's base program (0 = unrelated; insertion-at-i reversed
  /// circuits share i + 1 ops).  Enables checkpoint resumption; sharing is
  /// re-verified at run time, so an over-claim degrades to a full run
  /// rather than a wrong answer.
  std::size_t shared_prefix = 0;
};

/// Execution-strategy knobs.
struct BatchOptions {
  /// Resume jobs from prefix-state snapshots when exact (density matrix or
  /// seed-aligned trajectories, drift == 0).  Off: every job is an
  /// independent full run.
  bool checkpointing = true;
  /// Serve and populate the process-wide RunCache.
  bool caching = true;
  /// Total snapshot memory per batch; when the insertion points outnumber
  /// the budget, an evenly spaced subset is kept and the gaps are replayed.
  std::size_t checkpoint_memory_bytes = 512ull << 20;
  /// Worker-pool width for the sweep: 0 = one worker per hardware thread,
  /// >= 1 = exactly that many workers.  Results are bit-identical at every
  /// value; only wall-clock changes.
  int threads = 0;
  /// Externally owned worker pool to schedule on instead of spawning one
  /// per run() (non-owning; must outlive the runner; `threads` is ignored).
  /// charterd points every tenant's sweeps at one shared pool so the
  /// daemon's concurrency is bounded by a single width knob.  The pool
  /// serves one run() at a time — callers multiplex at job granularity.
  util::ThreadPool* pool = nullptr;
};

/// Observation and cancellation hooks for one BatchRunner::run call.
struct RunHooks {
  /// Invoked once per job, as its result lands — from pool worker threads
  /// (or the coordinating thread for cache hits), in completion order.
  /// Must be thread-safe; keep it cheap (a counter bump, a cv notify).
  std::function<void(std::size_t job_index)> on_job_complete;
  /// Cooperative cancellation: checked before every job (and threaded into
  /// util::ThreadPool's claim loop, so parked work is never started).  A
  /// requested flag makes run() throw charter::Cancelled after the workers
  /// drain; partial results are discarded and never cached.
  const util::CancelFlag* cancel = nullptr;
};

/// Schedules a family of jobs over one backend.
///
/// Any backend::Backend works.  The checkpoint/trajectory sharing paths
/// additionally require Backend::supports_lowering(); a backend without it
/// (a custom device wrapper) has every job executed as an independent
/// Backend::run on the pool.  Caching requires Backend::cache_identity();
/// backends without one simply never hit the RunCache.
class BatchRunner {
 public:
  explicit BatchRunner(const backend::Backend& backend,
                       BatchOptions options = {});

  /// Runs every job and returns the logical distributions in job order.
  /// \p base is the program the jobs' shared_prefix fields refer to
  /// (nullptr disables prefix sharing).  A job whose program *is* \p base
  /// is served from the checkpoint sweep itself.  \p hooks (optional)
  /// observes per-job completion and carries the cancellation flag.
  std::vector<std::vector<double>> run(
      const std::vector<AnalysisJob>& jobs,
      const backend::CompiledProgram* base = nullptr,
      const RunHooks* hooks = nullptr) const;

  /// Diagnostics from the most recent run() (not cumulative).
  struct Stats {
    std::size_t jobs = 0;
    std::size_t cache_hits = 0;  ///< total over both tiers
    /// Tier split of cache_hits: served from the striped memory tier vs
    /// loaded from the persistent disk tier (exec/disk_cache.hpp).  A warm
    /// same-process re-analysis shows memory hits; a warm re-analysis
    /// after a restart shows disk hits.
    std::size_t cache_memory_hits = 0;
    std::size_t cache_disk_hits = 0;
    std::size_t checkpointed = 0;  ///< jobs served via the DM checkpoint plan
    /// Jobs served via the trajectory checkpoint plan (clone resumption).
    std::size_t trajectory_checkpointed = 0;
    std::size_t full_runs = 0;     ///< independent full simulations
    /// Checkpoint-eligible jobs whose prefix could not be proven exact at
    /// run time and were re-simulated cold (still correct, just slower).
    std::size_t checkpoint_fallbacks = 0;
    /// How the executed (non-cache-hit) jobs ran, by path, counted on
    /// every run.  checkpoint_splice counts DM jobs resumed from a shared
    /// prefix snapshot; dm_exact counts full DM walks; trajectory counts
    /// jobs on the trajectory engine.
    struct StrategyCount {
      std::size_t dm_exact = 0;
      /// Always zero: every run executes the exact tape.  Kept only
      /// because the repository benchmark (perfbench) still reads them.
      std::size_t dm_fused = 0;
      std::size_t dm_fused_wide = 0;
      std::size_t trajectory = 0;
      std::size_t checkpoint_splice = 0;
    };
    StrategyCount strategy_jobs;
    /// Adaptive early-termination accounting.  BatchRunner itself always
    /// runs fixed budgets; the analyzer merges these in from
    /// run_adaptive_trajectory_sweep (exec/adaptive.hpp) when
    /// BudgetMode::kAdaptive is active, so under the default kFixedBudget
    /// all three stay 0.
    std::size_t trajectories_budgeted = 0;
    std::size_t trajectories_executed = 0;
    std::size_t gates_settled_early = 0;
  };
  Stats last_stats() const { return stats_; }

  const BatchOptions& options() const { return options_; }

 private:
  const backend::Backend& backend_;
  BatchOptions options_;
  mutable Stats stats_;  // written only by the coordinating thread
};

}  // namespace charter::exec
