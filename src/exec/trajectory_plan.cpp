#include "exec/trajectory_plan.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "backend/backend.hpp"
#include "exec/checkpoint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace charter::exec {

using noise::NoisyExecutor;

TrajectoryCheckpointPlan::TrajectoryCheckpointPlan(
    const NoisyExecutor& executor, circ::Circuit base,
    std::vector<std::size_t> prefix_lens, int num_trajectories,
    std::uint64_t run_seed, std::size_t memory_budget_bytes,
    util::ThreadPool& pool)
    : executor_(executor),
      base_(std::move(base)),
      base_stream_(executor.make_stream(base_)),
      num_trajectories_(num_trajectories),
      seed_(run_seed ^ backend::kTrajectorySeedSalt) {
  require(num_trajectories_ >= 1, "need at least one trajectory");
  std::sort(prefix_lens.begin(), prefix_lens.end());
  prefix_lens.erase(std::unique(prefix_lens.begin(), prefix_lens.end()),
                    prefix_lens.end());
  // A zero-length prefix shares nothing; a clone there is just a fresh engine.
  while (!prefix_lens.empty() && prefix_lens.front() == 0)
    prefix_lens.erase(prefix_lens.begin());
  for (const std::size_t len : prefix_lens)
    require(len <= base_.size(), "checkpoint prefix longer than the base");

  // One statevector clone per (fork point, unravelling): 16 bytes * 2^n for
  // the amplitudes plus the engine's RNG state.
  const std::size_t per_engine =
      (std::size_t{16} << base_.num_qubits()) + 64;
  const std::size_t per_snapshot =
      per_engine * static_cast<std::size_t>(num_trajectories_);
  const std::size_t cap = memory_budget_bytes / per_snapshot;
  const std::vector<std::size_t> keep =
      select_checkpoints_within_budget(std::move(prefix_lens), cap);

  const noise::NoiseProgram& tape = base_stream_.program;
  checkpoints_.resize(keep.size());
  for (std::size_t k = 0; k < keep.size(); ++k) {
    checkpoints_[k].prefix_len = keep[k];
    checkpoints_[k].tape_pos = tape.op_end(keep[k] - 1);
    checkpoints_[k].engines.resize(
        static_cast<std::size_t>(num_trajectories_));
  }

  // Sweep the base once per unravelling, cloning at every kept fork point.
  // Every unravelling is one pool task; the fold sums them in index order,
  // so the base distribution is thread-count-independent.
  const util::Rng seeder(seed_);
  sim::TrajectoryFold fold(num_trajectories_);
  pool.run(num_trajectories_, [&](std::int64_t t, int /*worker*/) {
    sim::TrajectoryEngine engine(
        base_.num_qubits(),
        sim::trajectory_engine_seed(seeder, static_cast<int>(t)));
    std::size_t pos = 0;
    for (Checkpoint& cp : checkpoints_) {
      tape.run(engine, pos, cp.tape_pos);
      pos = cp.tape_pos;
      cp.engines[static_cast<std::size_t>(t)] = engine.clone();
    }
    tape.run(engine, pos, tape.size());
    fold.add(static_cast<int>(t), engine.probabilities());
  });
  base_probs_ = fold.finish();
}

std::vector<double> TrajectoryCheckpointPlan::run_cold(
    const circ::Circuit& c) const {
  const noise::NoiseProgram tape = executor_.lower(c);
  return sim::run_trajectories(
      c.num_qubits(), num_trajectories_, seed_,
      [&](sim::NoisyEngine& engine) { tape.execute(engine); });
}

std::vector<double> TrajectoryCheckpointPlan::run_shared(
    const circ::Circuit& c, std::size_t prefix_len) const {
  require(c.num_qubits() == base_.num_qubits(),
          "derived circuit width differs from the base");

  // Deepest clone set at or before the fork point.
  const Checkpoint* snapshot = nullptr;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.prefix_len > std::min(prefix_len, c.size())) break;
    snapshot = &cp;
  }

  std::optional<noise::NoiseProgram> spliced =
      snapshot == nullptr
          ? std::nullopt
          : noise::lower_spliced(executor_.model(), base_,
                                 base_stream_.program, c, prefix_len);
  if (!spliced.has_value()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return run_cold(c);
  }

  // The spliced tape copies the shared prefix verbatim, so the snapshot's
  // base-tape position is a valid resume point on it; the region from there
  // covers the (budget-induced) gap, the insertion, and the suffix — all
  // consuming the same random draws a cold run would after the identical
  // prefix.
  const std::size_t resume_pos = spliced->op_end(snapshot->prefix_len - 1);
  sim::TrajectoryFold fold(num_trajectories_);
  for (int t = 0; t < num_trajectories_; ++t) {
    const std::unique_ptr<sim::NoisyEngine> engine =
        snapshot->engines[static_cast<std::size_t>(t)]->clone();
    spliced->run(*engine, resume_pos, spliced->size());
    fold.add(t, engine->probabilities());
  }
  replayed_ops_.fetch_add(prefix_len - snapshot->prefix_len,
                          std::memory_order_relaxed);
  resumed_.fetch_add(1, std::memory_order_relaxed);
  return fold.finish();
}

}  // namespace charter::exec
