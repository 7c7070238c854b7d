#pragma once

/// \file checkpoint.hpp
/// Prefix-state checkpointing for families of near-identical circuits.
///
/// CHARTER's reversed circuits are byte-identical to the original up to the
/// insertion point (paper Fig. 5): the circuit for gate i is
/// `ops[0..i] ++ reversed-pairs ++ ops[i+1..]`.  Re-simulating the shared
/// prefix for every gate is what makes the naive analyzer O(G^2).  This
/// module simulates the *base* circuit once on the density-matrix engine —
/// as a NoiseProgram tape stream — snapshots vec(rho) at the tape position
/// after each requested prefix length, and resumes every derived circuit
/// from the deepest snapshot at or before its fork point, interpreting only
/// the tape ops for the inserted pairs and the suffix.
///
/// Lowering is shared, not repeated: each derived circuit's tape is
/// *spliced* from the base tape (noise::lower_spliced), which copies the
/// shared prefix verbatim, resumes the lazy decoherence/ZZ clock walk from
/// the recorded per-op state, and lowers only the suffix — so the analyzer's
/// G reversed circuits never re-derive their common prefix.
///
/// Exactness.  Resumption is bit-identical to a cold run because the splice
/// *verifies* per derived circuit that the prefix would lower identically
/// (same gates, same ASAP times, same drive-crosstalk terms — ASAP assigns
/// ops [0, L) the same windows in base and derived circuits because a
/// gate's time depends only on earlier gates).  The verification can fail,
/// e.g. when an un-isolated insertion overlaps a late-starting prefix op on
/// another qubit; on any mismatch the circuit silently falls back to a full
/// cold run, so checkpointing is always safe and never approximate.
/// Drifted models re-randomize per run and must not share prefixes at all —
/// BatchRunner routes those to plain full runs; trajectory jobs share
/// through TrajectoryCheckpointPlan (trajectory_plan.hpp) instead.
///
/// Memory.  Each snapshot costs 16 bytes * 4^n for an n-qubit local circuit.
/// When the requested snapshots exceed the budget, an evenly spaced subset
/// is kept; resumption replays the gap [snapshot, fork point) from the
/// shared prefix, trading time back for memory without losing exactness.

#include <atomic>
#include <cstddef>
#include <vector>

#include "noise/executor.hpp"
#include "sim/density_matrix.hpp"

namespace charter::exec {

/// Evenly spaced subset of \p lens (sorted ascending, deduped) with at most
/// \p cap entries, biased toward the deepest prefixes (they save the most
/// replay work; shallow gaps are cheap to replay from earlier snapshots or
/// from scratch).  The deepest prefix is always kept.  Shared by the
/// density-matrix and trajectory checkpoint plans.
std::vector<std::size_t> select_checkpoints_within_budget(
    std::vector<std::size_t> lens, std::size_t cap);

/// Checkpointed execution plan over one base circuit (density-matrix only).
/// Built once (a single streaming sweep of the base), then shared read-only
/// across worker threads.
class CheckpointPlan {
 public:
  /// Sweeps \p base once under \p executor, snapshotting after each prefix
  /// length in \p prefix_lens (deduped; capped by \p memory_budget_bytes).
  /// The executor reference must outlive the plan.
  CheckpointPlan(const noise::NoisyExecutor& executor, circ::Circuit base,
                 std::vector<std::size_t> prefix_lens,
                 std::size_t memory_budget_bytes);

  const circ::Circuit& base_circuit() const { return base_; }

  /// The base circuit's exact tape (the splice source; exposed for tests
  /// and for cache keys that want the tape fingerprint).
  const noise::NoiseProgram& base_program() const { return base_stream_.program; }

  /// Engine-level probabilities of the base circuit itself (the sweep runs
  /// it to completion, so the original run comes for free).
  const std::vector<double>& base_probabilities() const { return base_probs_; }

  /// Runs \p c — which shares ops [0, prefix_len) with the base circuit —
  /// on \p engine, resuming from the deepest usable snapshot.  Falls back to
  /// a full cold run when the prefix is not provably exact or no snapshot
  /// applies.  Returns the engine probabilities (pre-readout).  Thread-safe;
  /// \p engine is caller-owned scratch (one per worker).
  std::vector<double> run_shared(const circ::Circuit& c,
                                 std::size_t prefix_len,
                                 sim::DensityMatrixEngine& engine) const;

  std::size_t num_checkpoints() const { return checkpoints_.size(); }

  /// Checkpoint *segment* a job with \p prefix_len falls in: 0 when no
  /// snapshot is at or before the fork point (cold segment), k when snapshot
  /// k-1 (0-based, ascending) is the deepest usable one.  The sharded driver
  /// partitions jobs by this id so every job resuming from the same snapshot
  /// lands on the same worker and reloads a cache-warm rho.
  std::size_t segment_of(std::size_t prefix_len) const;

  /// Total segments (num_checkpoints() + 1; segment 0 is the cold segment).
  std::size_t num_segments() const { return checkpoints_.size() + 1; }

  /// Jobs served from a snapshot vs. full cold-run fallbacks (diagnostics).
  struct Stats {
    std::size_t resumed = 0;
    std::size_t replayed_ops = 0;  ///< gap ops re-simulated due to budget
    std::size_t fallbacks = 0;
  };
  Stats stats() const {
    return {resumed_.load(), replayed_ops_.load(), fallbacks_.load()};
  }

 private:
  struct Checkpoint {
    std::size_t prefix_len = 0;  ///< circuit ops applied before the snapshot
    std::vector<math::cplx> rho;
  };

  const noise::NoisyExecutor& executor_;
  circ::Circuit base_;
  noise::NoisyExecutor::Stream base_stream_;  ///< exact tape + resume records
  std::vector<Checkpoint> checkpoints_;       ///< ascending prefix_len
  std::vector<double> base_probs_;
  mutable std::atomic<std::size_t> resumed_{0};
  mutable std::atomic<std::size_t> replayed_ops_{0};
  mutable std::atomic<std::size_t> fallbacks_{0};
};

}  // namespace charter::exec
