#include "exec/batch.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "exec/checkpoint.hpp"
#include "exec/sharding.hpp"
#include "exec/trajectory_plan.hpp"
#include "noise/executor.hpp"
#include "sim/density_matrix.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charter::exec {

using backend::CompiledProgram;
using backend::EngineKind;

BatchRunner::BatchRunner(const backend::Backend& backend,
                         BatchOptions options)
    : backend_(backend), options_(options) {}

namespace {

/// Lazily constructed per-worker density-matrix scratch engines.  Workers
/// have stable indices, so each engine is touched by exactly one thread.
class WorkerEngines {
 public:
  explicit WorkerEngines(int num_workers)
      : engines_(static_cast<std::size_t>(num_workers)) {}

  sim::DensityMatrixEngine& get(int worker, int width) {
    auto& slot = engines_[static_cast<std::size_t>(worker)];
    if (!slot) slot = std::make_unique<sim::DensityMatrixEngine>(width);
    return *slot;
  }

 private:
  std::vector<std::unique_ptr<sim::DensityMatrixEngine>> engines_;
};

}  // namespace

std::vector<std::vector<double>> BatchRunner::run(
    const std::vector<AnalysisJob>& jobs,
    const CompiledProgram* base,
    const RunHooks* hooks) const {
  stats_ = Stats{};
  stats_.jobs = jobs.size();
  std::vector<std::vector<double>> results(jobs.size());
  std::vector<bool> done(jobs.size(), false);
  for (const AnalysisJob& job : jobs)
    require(job.program != nullptr, "analysis job without a program");

  const util::CancelFlag* cancel = hooks != nullptr ? hooks->cancel : nullptr;
  const auto cancelled = [&] { return cancel && cancel->requested(); };
  const auto notify_done = [&](std::size_t job_index) {
    if (hooks != nullptr && hooks->on_job_complete)
      hooks->on_job_complete(job_index);
  };

  // Serve repeated submissions from the process-wide cache.  The device
  // fingerprint sweeps the full calibration table, so compute it once for
  // the batch rather than once per job.  A backend with no cache identity
  // (custom Backend subclasses by default) skips the cache entirely.
  std::vector<Fingerprint> keys;
  const std::optional<Fingerprint> device =
      options_.caching ? fingerprint(backend_) : std::nullopt;
  const bool caching = device.has_value();
  if (caching) {
    keys.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      keys[i] = run_key(*jobs[i].program, *device, jobs[i].run);
      CacheTier served = CacheTier::kNone;
      if (auto hit = RunCache::global().lookup(keys[i], &served)) {
        results[i] = std::move(*hit);
        done[i] = true;
        ++stats_.cache_hits;
        ++(served == CacheTier::kDisk ? stats_.cache_disk_hits
                                      : stats_.cache_memory_hits);
        notify_done(i);
      }
    }
  }

  // Partition the remaining jobs into three routes.
  //
  //  - Density-matrix checkpoint sharers: deterministic given the model, so
  //    drift == 0 and a verified prefix suffice for exactness.
  //  - Trajectory checkpoint sharers: unravellings re-randomize per run
  //    seed, so sharing additionally requires every job to carry the *same*
  //    (seed, trajectory count) as the base sweep — then each trajectory's
  //    prefix consumes identical random draws and an engine clone (state +
  //    RNG stream) resumes it exactly.
  //  - Everything else (drifted models, mismatched footprints or seeds):
  //    independent full runs, still scheduled on the pool.
  std::vector<std::size_t> dm_idx;
  std::vector<std::size_t> traj_idx;
  std::vector<std::size_t> plain_idx;
  // Checkpoint sharing (and the lowered trajectory fan-out below) needs the
  // backend's lower/finalize decomposition; backends without it run every
  // job whole.
  const bool lowering = backend_.supports_lowering();
  const bool base_usable =
      options_.checkpointing && base != nullptr && lowering;
  std::vector<int> base_kept;
  if (base_usable) base_kept = backend::used_qubits(*base);
  const int base_width = static_cast<int>(base_kept.size());
  std::vector<std::size_t> traj_candidates;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (done[i]) continue;
    const AnalysisJob& job = jobs[i];
    const bool prefix_ok =
        base_usable && job.shared_prefix > 0 && job.run.drift == 0.0 &&
        job.program->physical.num_qubits() ==
            base->physical.num_qubits() &&
        (job.program == base || backend::used_qubits(*job.program) == base_kept);
    const EngineKind engine =
        prefix_ok ? backend::resolve_engine(job.run, base_width)
                  : EngineKind::kAuto;
    if (prefix_ok && engine == EngineKind::kDensityMatrix &&
        base_width <= sim::DensityMatrixEngine::kMaxQubits) {
      dm_idx.push_back(i);
    } else if (prefix_ok && engine == EngineKind::kTrajectory) {
      traj_candidates.push_back(i);
    } else {
      plain_idx.push_back(i);
    }
  }

  // Trajectory sharing only pays when at least two candidates agree on
  // (seed, trajectory count) — the base sweep costs a full run's worth of
  // simulation, so a lone job is cheaper cold.  Pick the plurality config;
  // candidates outside it run plain.
  bool have_traj_group = false;
  std::uint64_t group_seed = 0;
  int group_trajectories = 0;
  if (traj_candidates.size() >= 2) {
    std::size_t best_count = 0;
    for (const std::size_t i : traj_candidates) {
      std::size_t count = 0;
      for (const std::size_t j : traj_candidates)
        count += (jobs[j].run.seed == jobs[i].run.seed &&
                  jobs[j].run.trajectories == jobs[i].run.trajectories);
      if (count > best_count) {
        best_count = count;
        group_seed = jobs[i].run.seed;
        group_trajectories = jobs[i].run.trajectories;
      }
    }
    have_traj_group = best_count >= 2;
  }
  for (const std::size_t i : traj_candidates) {
    const bool in_group = have_traj_group &&
                          jobs[i].run.seed == group_seed &&
                          jobs[i].run.trajectories == group_trajectories;
    (in_group ? traj_idx : plain_idx).push_back(i);
  }

  // The pool spawns lazily: a fully cache-served batch (the warm re-analysis
  // path) never pays worker creation.  A caller-provided pool (charterd's
  // shared one) is used as-is.
  std::optional<util::ThreadPool> pool_storage;
  const auto pool = [&]() -> util::ThreadPool& {
    if (options_.pool != nullptr) return *options_.pool;
    if (!pool_storage)
      pool_storage.emplace(util::resolve_threads(options_.threads));
    return *pool_storage;
  };

  // Cancellation policy: workers stop claiming tasks once the flag is set
  // (threaded into every pool().run below); between phases the coordinator
  // re-checks and abandons the batch.  Partial results never reach the
  // caller or the cache — the only exit on a requested flag is the throw.
  const auto throw_if_cancelled = [&] {
    if (cancelled())
      throw Cancelled("batch execution cancelled (" +
                      std::to_string(jobs.size()) + "-job batch on '" +
                      backend_.name() + "')");
  };
  throw_if_cancelled();

  if (!dm_idx.empty()) {
    // Lower the base once; every sharer reuses the compaction, restricted
    // model, and executor.  drift == 0 for all sharers, so the lowered model
    // is seed-independent and shared safely.
    backend::RunOptions lower_options;
    lower_options.drift = 0.0;
    const backend::LoweredRun lowered = backend_.lower(*base, lower_options);
    const noise::NoisyExecutor executor(lowered.model);

    std::vector<std::size_t> prefix_lens;
    for (const std::size_t i : dm_idx)
      if (jobs[i].program != base) prefix_lens.push_back(jobs[i].shared_prefix);
    const CheckpointPlan plan(executor, lowered.local, std::move(prefix_lens),
                              options_.checkpoint_memory_bytes);

    // Shard by checkpoint segment: jobs resuming from the same snapshot run
    // on the same worker and reload a cache-warm rho.  Results land by
    // submission index, so shard shapes never reach the numbers.
    std::vector<std::size_t> segments(dm_idx.size());
    for (std::size_t k = 0; k < dm_idx.size(); ++k) {
      const AnalysisJob& job = jobs[dm_idx[k]];
      segments[k] = plan.segment_of(
          std::min(job.shared_prefix, lowered.local.size()));
    }
    const std::vector<Shard> shards = make_shards(
        dm_idx, segments,
        default_max_shard_jobs(dm_idx.size(), pool().num_workers()));

    WorkerEngines engines(pool().num_workers());
    pool().run(static_cast<std::int64_t>(shards.size()),
             [&](std::int64_t s, int worker) {
               for (const std::size_t i :
                    shards[static_cast<std::size_t>(s)].jobs) {
                 // One shard holds many jobs; honor cancellation between
                 // them, not just between shards.
                 if (cancelled()) return;
                 const AnalysisJob& job = jobs[i];
                 // The sweep already ran the base to completion.
                 std::vector<double> probs =
                     job.program == base
                         ? plan.base_probabilities()
                         : plan.run_shared(
                               backend::compact_to(job.program->physical,
                                                   lowered.kept),
                               job.shared_prefix,
                               engines.get(worker,
                                           lowered.local.num_qubits()));
                 results[i] = backend_.finalize(std::move(probs), lowered,
                                                *job.program, job.run);
                 notify_done(i);
               }
             }, cancel);
    throw_if_cancelled();
    stats_.checkpoint_fallbacks += plan.stats().fallbacks;
    stats_.checkpointed = dm_idx.size() - plan.stats().fallbacks;

    // Non-base jobs resume from shared prefix snapshots (splice); base
    // jobs are full DM walks.
    std::size_t splice_jobs = 0;
    for (const std::size_t i : dm_idx)
      splice_jobs += (jobs[i].program != base);
    stats_.strategy_jobs.checkpoint_splice += splice_jobs;
    stats_.strategy_jobs.dm_exact += dm_idx.size() - splice_jobs;
  }

  if (!traj_idx.empty()) {
    backend::RunOptions lower_options;
    lower_options.drift = 0.0;
    const backend::LoweredRun lowered = backend_.lower(*base, lower_options);
    const noise::NoisyExecutor executor(lowered.model);
    std::vector<std::size_t> prefix_lens;
    for (const std::size_t i : traj_idx)
      if (jobs[i].program != base) prefix_lens.push_back(jobs[i].shared_prefix);
    const TrajectoryCheckpointPlan plan(
        executor, lowered.local, std::move(prefix_lens), group_trajectories,
        group_seed, options_.checkpoint_memory_bytes, pool());

    pool().run(static_cast<std::int64_t>(traj_idx.size()),
             [&](std::int64_t k, int /*worker*/) {
               const std::size_t i = traj_idx[static_cast<std::size_t>(k)];
               const AnalysisJob& job = jobs[i];
               std::vector<double> probs =
                   job.program == base
                       ? plan.base_probabilities()
                       : plan.run_shared(
                             backend::compact_to(job.program->physical,
                                                 lowered.kept),
                             job.shared_prefix);
               results[i] = backend_.finalize(std::move(probs), lowered,
                                              *job.program, job.run);
               notify_done(i);
             }, cancel);
    throw_if_cancelled();
    stats_.checkpoint_fallbacks += plan.stats().fallbacks;
    stats_.trajectory_checkpointed = traj_idx.size() - plan.stats().fallbacks;
    stats_.strategy_jobs.trajectory += traj_idx.size();
  }

  if (!plain_idx.empty()) {
    // Independent full runs.  Trajectory jobs fan their unravellings out
    // as individual pool tasks — a two-job batch of 8 trajectories each
    // still saturates the pool — and fold through sim::TrajectoryFold,
    // which is the exact reduction run_trajectories performs; everything
    // else runs one job per task.
    std::vector<std::size_t> traj_plain;
    std::vector<std::size_t> other_plain;
    for (const std::size_t i : plain_idx) {
      // Classify on the *job's own* compacted width (plain jobs may differ
      // from the base footprint).  The lowered trajectory fan-out needs the
      // backend's lower/finalize split; without it every job runs whole.
      const int width = static_cast<int>(
          backend::used_qubits(*jobs[i].program).size());
      const bool trajectory = backend::resolve_engine(jobs[i].run, width) ==
                              EngineKind::kTrajectory;
      if (trajectory) ++stats_.strategy_jobs.trajectory;
      else ++stats_.strategy_jobs.dm_exact;
      (lowering && trajectory ? traj_plain : other_plain).push_back(i);
    }

    pool().run(static_cast<std::int64_t>(other_plain.size()),
             [&](std::int64_t k, int /*worker*/) {
               const std::size_t i =
                   other_plain[static_cast<std::size_t>(k)];
               results[i] = backend_.run(*jobs[i].program, jobs[i].run);
               notify_done(i);
             }, cancel);
    throw_if_cancelled();

    if (!traj_plain.empty()) {
      struct TrajRun {
        std::optional<backend::LoweredRun> lowered;
        noise::NoiseProgram tape{0};
        std::optional<sim::TrajectoryFold> fold;
      };
      std::vector<TrajRun> runs(traj_plain.size());
      // Phase 1: lower every job's tape (one task per job).
      pool().run(static_cast<std::int64_t>(traj_plain.size()),
               [&](std::int64_t k, int /*worker*/) {
                 const std::size_t i =
                     traj_plain[static_cast<std::size_t>(k)];
                 TrajRun& r = runs[static_cast<std::size_t>(k)];
                 r.lowered = backend_.lower(*jobs[i].program, jobs[i].run);
                 r.tape = noise::lower(r.lowered->model, r.lowered->local);
                 r.fold.emplace(jobs[i].run.trajectories);
               }, cancel);
      throw_if_cancelled();
      const auto seed_of = [&](std::size_t k) {
        return jobs[traj_plain[k]].run.seed ^ backend::kTrajectorySeedSalt;
      };
      // Phase 2: the unravellings.  Every (job, unravelling) pair is one
      // pool task, so a batch keeps every worker busy even when it has fewer
      // jobs than workers or a job count that does not divide evenly; each
      // job's TrajectoryFold sums them in index order, so the result cannot
      // tell which thread produced which part.
      std::vector<std::pair<std::size_t, int>> units;
      for (std::size_t k = 0; k < traj_plain.size(); ++k)
        for (int t = 0; t < jobs[traj_plain[k]].run.trajectories; ++t)
          units.emplace_back(k, t);
      pool().run(static_cast<std::int64_t>(units.size()),
               [&](std::int64_t u, int /*worker*/) {
                 const auto [k, t] = units[static_cast<std::size_t>(u)];
                 TrajRun& r = runs[k];
                 sim::TrajectoryEngine engine(
                     r.lowered->local.num_qubits(),
                     sim::trajectory_engine_seed(util::Rng(seed_of(k)), t));
                 r.tape.execute(engine);
                 r.fold->add(t, engine.probabilities());
               }, cancel);
      throw_if_cancelled();
      // Phase 3: fold and finalize (one task per job).
      pool().run(static_cast<std::int64_t>(traj_plain.size()),
               [&](std::int64_t k, int /*worker*/) {
                 const std::size_t i =
                     traj_plain[static_cast<std::size_t>(k)];
                 TrajRun& r = runs[static_cast<std::size_t>(k)];
                 results[i] = backend_.finalize(r.fold->finish(), *r.lowered,
                                                *jobs[i].program, jobs[i].run);
                 notify_done(i);
               }, cancel);
      throw_if_cancelled();
    }
    stats_.full_runs = plain_idx.size();
  }
  throw_if_cancelled();

  if (caching) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (!done[i]) RunCache::global().store(keys[i], results[i]);
  }
  return results;
}

}  // namespace charter::exec
