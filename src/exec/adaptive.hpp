#pragma once

/// \file adaptive.hpp
/// The trajectory budget policy: a fixed budget (every trajectory job runs
/// its full RunOptions::trajectories) or sequential-test early termination
/// (BudgetMode::kAdaptive).  Trajectory groups are independently seeded
/// (sim/trajectory.hpp), so a sweep can run them one group at a time per
/// gate and stop allocating groups to a gate once its impact confidence
/// interval separates from its rank neighbors — the folded prefix of groups
/// is exactly what a smaller fixed budget would produce.  Gates whose rank
/// stays ambiguous run to the full budget, so top-k rankings are preserved
/// while total simulated trajectories drop.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/backend.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

struct RunHooks;  // exec/batch.hpp

/// Trajectory shot/unravelling budget policy.
enum class BudgetMode : std::uint8_t {
  /// Every trajectory job runs its full RunOptions::trajectories budget.
  /// The default, and the mode every bit-identity contract (determinism
  /// matrix, golden fixtures) is stated under.
  kFixedBudget = 0,
  /// Sequential-test early termination: a gate stops receiving trajectory
  /// groups once its impact CI separates from its rank neighbors.  Saves
  /// simulation on settled gates; scores differ from kFixedBudget within
  /// the statistical tolerance the test enforces (top-k rank preserved).
  kAdaptive,
};

/// One gate's reversed circuit in an adaptive sweep.
struct AdaptiveJob {
  const backend::CompiledProgram* program = nullptr;
  backend::RunOptions run;
};

struct AdaptiveOptions {
  /// Groups every gate always executes before the sequential test may
  /// stop it (>= 2 so a variance estimate exists).
  int min_groups = 2;
  /// CI half-width multiplier: a gate settles when
  /// [tvd - z*se, tvd + z*se] is disjoint from both rank neighbors'
  /// intervals.  Larger = more conservative (fewer early stops).
  double z = 3.0;
  /// Worker pool (same semantics as BatchOptions: nullptr + threads).
  util::ThreadPool* pool = nullptr;
  int threads = 0;
  /// Completion/cancellation hooks (exec/batch.hpp semantics).
  const RunHooks* hooks = nullptr;
};

struct AdaptiveResult {
  /// Final logical distribution per job, folded over the trajectory
  /// groups that actually ran (finalized with each job's RunOptions).
  std::vector<std::vector<double>> distributions;
  std::size_t trajectories_budgeted = 0;
  std::size_t trajectories_executed = 0;
  std::size_t gates_settled_early = 0;
};

/// Runs every job on the trajectory engine with sequential-test early
/// termination against \p original (the reference distribution TVDs are
/// measured from).  Requires backend.supports_lowering(), and every job
/// must carry a program and trajectories >= 1 (charter::InvalidArgument
/// otherwise, before any work starts).  Results are deterministic at every
/// pool width: group partials land by (job, group) index and every
/// stopping decision is made on the coordinating thread from index-ordered
/// folds.  Results are intentionally *not* cached — an early-terminated
/// distribution must never be served where a full-budget one is expected.
/// Throws charter::Cancelled when options.hooks carries a requested cancel
/// flag.
AdaptiveResult run_adaptive_trajectory_sweep(
    const backend::Backend& backend, const std::vector<AdaptiveJob>& jobs,
    const std::vector<double>& original, const AdaptiveOptions& options);

}  // namespace charter::exec
