#include "exec/checkpoint.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/error.hpp"

namespace charter::exec {

using noise::NoisyExecutor;

std::vector<std::size_t> select_checkpoints_within_budget(
    std::vector<std::size_t> lens, std::size_t cap) {
  if (cap == 0) return {};
  if (lens.size() <= cap) return lens;
  std::vector<std::size_t> picked;
  picked.reserve(cap);
  const double step =
      static_cast<double>(lens.size() - 1) / static_cast<double>(cap);
  // Walk from the deep end so the last prefix is always kept.
  for (std::size_t k = 0; k < cap; ++k) {
    const double pos = static_cast<double>(lens.size() - 1) -
                       static_cast<double>(k) * step;
    picked.push_back(lens[static_cast<std::size_t>(pos)]);
  }
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

CheckpointPlan::CheckpointPlan(const NoisyExecutor& executor,
                               circ::Circuit base,
                               std::vector<std::size_t> prefix_lens,
                               std::size_t memory_budget_bytes)
    : executor_(executor),
      base_(std::move(base)),
      base_stream_(executor.make_stream(base_)) {
  std::sort(prefix_lens.begin(), prefix_lens.end());
  prefix_lens.erase(std::unique(prefix_lens.begin(), prefix_lens.end()),
                    prefix_lens.end());
  // A zero-length prefix shares nothing; a snapshot there is just reset().
  while (!prefix_lens.empty() && prefix_lens.front() == 0)
    prefix_lens.erase(prefix_lens.begin());
  for (const std::size_t len : prefix_lens)
    require(len <= base_.size(), "checkpoint prefix longer than the base");

  sim::DensityMatrixEngine engine(base_.num_qubits());
  const std::size_t per_snapshot = engine.state_bytes();
  const std::size_t cap =
      per_snapshot == 0 ? prefix_lens.size()
                        : memory_budget_bytes / per_snapshot;
  const std::vector<std::size_t> keep =
      select_checkpoints_within_budget(std::move(prefix_lens), cap);
  checkpoints_.reserve(keep.size());

  executor_.start(base_, base_stream_, engine);
  auto next_keep = keep.begin();
  while (base_stream_.next_op < base_.size()) {
    executor_.step(base_, base_stream_, engine);
    if (next_keep != keep.end() && base_stream_.next_op == *next_keep) {
      Checkpoint cp;
      cp.prefix_len = base_stream_.next_op;
      engine.save_state(cp.rho);
      checkpoints_.push_back(std::move(cp));
      ++next_keep;
    }
  }
  executor_.finish(base_, base_stream_, engine);
  base_probs_ = engine.probabilities();
}

std::size_t CheckpointPlan::segment_of(std::size_t prefix_len) const {
  std::size_t segment = 0;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.prefix_len > prefix_len) break;
    ++segment;
  }
  return segment;
}

std::vector<double> CheckpointPlan::run_shared(
    const circ::Circuit& c, std::size_t prefix_len,
    sim::DensityMatrixEngine& engine) const {
  require(c.num_qubits() == base_.num_qubits(),
          "derived circuit width differs from the base");

  // Deepest snapshot at or before the fork point.
  const Checkpoint* snapshot = nullptr;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.prefix_len > std::min(prefix_len, c.size())) break;
    snapshot = &cp;
  }

  // Splice the derived tape from the base tape: the shared prefix is copied
  // (and proven exact), only the suffix is lowered.
  std::optional<noise::NoiseProgram> spliced =
      snapshot == nullptr
          ? std::nullopt
          : noise::lower_spliced(executor_.model(), base_,
                                 base_stream_.program, c, prefix_len);

  if (!spliced.has_value()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    executor_.run(c, engine);
    return engine.probabilities();
  }

  // Resume at the tape position of the snapshot.
  const std::size_t resume_pos = spliced->op_end(snapshot->prefix_len - 1);
  replayed_ops_.fetch_add(prefix_len - snapshot->prefix_len,
                          std::memory_order_relaxed);
  resumed_.fetch_add(1, std::memory_order_relaxed);
  engine.load_state(snapshot->rho);
  spliced->run(engine, resume_pos, spliced->size());
  return engine.probabilities();
}

}  // namespace charter::exec
