#pragma once

/// \file trajectory.hpp
/// Monte-Carlo (quantum trajectory) noisy engine.
///
/// Holds a pure state and realizes each noise channel by sampling one Kraus
/// branch with the Born-rule probability.  Coherent errors (over-rotation,
/// ZZ phases) are deterministic and identical in every trajectory, so the
/// only sampling variance comes from the stochastic channels.  Each
/// trajectory contributes its *entire* |psi|^2 distribution — variance is
/// therefore far lower than shot-by-shot sampling and a few dozen
/// trajectories reproduce a density-matrix run closely (validated in
/// tests/test_sim.cpp and bench/ablation_engines).

#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "math/simd.hpp"
#include "sim/engine.hpp"
#include "sim/statevector.hpp"
#include "util/rng.hpp"

namespace charter::sim {

/// One stochastic unravelling of the noisy evolution.  The class is final so
/// that the NoiseProgram tape interpreter's concrete overload devirtualizes
/// every call and folds runs of diagonal ops into one diag_run pass.
class TrajectoryEngine final : public NoisyEngine {
 public:
  /// \p seed drives every stochastic branch of this trajectory.
  TrajectoryEngine(int num_qubits, std::uint64_t seed);

  int num_qubits() const override { return state_.num_qubits(); }
  void reset() override;

  void apply_unitary_1q(const math::Mat2& u, int q) override;
  void apply_diag_1q(math::cplx d0, math::cplx d1, int q) override;
  void apply_cx(int c, int t) override;
  void apply_diag_2q(const std::array<math::cplx, 4>& d, int qa,
                     int qb) override;
  void apply_unitary_2q(const math::Mat4& u, int qa, int qb) override;

  void apply_thermal_relaxation(int q, double gamma, double pz) override;
  void apply_depolarizing_1q(int q, double p) override;
  void apply_depolarizing_2q(int qa, int qb, double p) override;
  void apply_bitflip(int q, double p) override;
  void apply_kraus_1q(std::span<const math::Mat2> kraus, int q) override;

  std::vector<double> probabilities() const override;

  /// Clones state *and* RNG stream: the copy replays the exact stochastic
  /// branches the original would take.
  std::unique_ptr<NoisyEngine> clone() const override;

  /// Underlying pure state (tests).
  const Statevector& state() const { return state_; }

  /// Diagonal factors one diagonal op contributes to a run: one on the
  /// statevector (the density-matrix engine takes two).
  static constexpr std::size_t kDiagFactorsPerOp = 1;

  /// Writes the diag_run factor of the diagonal \p d on (qa, qb) to out[0];
  /// qb < 0 marks a one-qubit diagonal diag(d[0], d[1]) on qa.
  /// apply_diag_1q/apply_diag_2q are exactly these 1-factor runs.
  static void diag_factors(const std::array<math::cplx, 4>& d, int qa,
                           int qb, math::simd::DiagFactor* out);

  /// Applies \p count diagonal factors in order in one pass over the
  /// amplitudes; bit-identical to applying their ops one at a time.
  void apply_diag_run(const math::simd::DiagFactor* f, std::size_t count);

 private:
  void apply_pauli(int which, int q);  // 0=X, 1=Y, 2=Z

  Statevector state_;
  util::Rng rng_;
};

/// Trajectories are folded in fixed-size groups merged in index order, so
/// the floating-point accumulation order — and therefore the averaged
/// distribution, bit for bit — never depends on which thread produced which
/// unravelling.  The group size is part of the numeric contract: a group's
/// partial is the sum of its unravellings' distributions added in index
/// order, and the partials are summed in group order
/// (fold_trajectory_groups).  The unit of parallel work is one unravelling
/// (run_trajectories, the exec layer's in-process fan-out and the
/// trajectory checkpoint plan's base sweep all hand each finished
/// unravelling to a TrajectoryFold); the adaptive sweep computes whole
/// groups (run_trajectory_group), which carry the same sums.  Any path
/// that folds with another size drifts from a standalone run by
/// reassociation.
inline constexpr int kTrajectoryGroupSize = 8;

/// Number of fold groups covering \p num_trajectories.
inline int num_trajectory_groups(int num_trajectories) {
  return (num_trajectories + kTrajectoryGroupSize - 1) / kTrajectoryGroupSize;
}

/// Engine seed for unravelling \p t of the family rooted at \p seeder
/// (stream-splitting keeps trajectories uncorrelated and platform-stable).
inline std::uint64_t trajectory_engine_seed(const util::Rng& seeder,
                                            int t) {
  return seeder.split(static_cast<std::uint64_t>(t)).next_u64();
}

/// Runs unravellings [begin, end) of the family rooted at \p seeder and
/// returns their probability *sum* (one fold group's partial).  begin/end
/// must lie within a single group for the deterministic-fold contract.
std::vector<double> run_trajectory_group(
    int num_qubits, int begin, int end, const util::Rng& seeder,
    const std::function<void(NoisyEngine&)>& program);

/// Merges group partials in index order and normalizes by num_trajectories.
/// This is *the* reduction: bit-identical no matter which worker produced
/// which partial.
std::vector<double> fold_trajectory_groups(
    const std::vector<std::vector<double>>& partials, std::uint64_t dim,
    int num_trajectories);

/// The in-order fold of unravelling distributions.  Tasks that finish
/// unravellings in any order, on any thread, hand each distribution to
/// add(); the fold adds it to its group's partial as soon as every earlier
/// unravelling of that group has been added, and parks it until then.  Each
/// group's partial is therefore accumulated in exactly
/// run_trajectory_group's order, and finish() folds the partials with
/// fold_trajectory_groups — bit-identical to a serial run at every thread
/// count.  Added vectors are freed as soon as they are summed, so at most
/// the out-of-order stragglers stay parked.  Thread-safe.
class TrajectoryFold {
 public:
  explicit TrajectoryFold(int num_trajectories);

  /// Hands over unravelling \p t's probability distribution (non-empty,
  /// entries >= 0).  Each t in [0, num_trajectories) is added exactly once.
  void add(int t, std::vector<double> probabilities);

  /// Averaged distribution over every unravelling; requires all of them
  /// added.  Consumes the fold; call once, after the last add().
  std::vector<double> finish();

 private:
  struct Group {
    int added = 0;  ///< unravellings summed into `sum` so far
    int size = 0;
    bool busy = false;  ///< a thread is summing into `sum` right now
    std::vector<double> sum;
    std::vector<std::vector<double>> parked;  ///< by offset within the group
  };

  std::mutex mu_;
  int num_trajectories_;
  std::vector<Group> groups_;
};

/// Averages probabilities over \p num_trajectories independent unravellings
/// of the noisy program \p program (a callback that drives one engine).
/// Unravellings run as tasks on util::process_pool() below
/// kAmpParallelMinQubits (serially on pool workers); at and above it they
/// run one after another and the kernels split across the pool.  Either way
/// they fold through a TrajectoryFold and \p seed splits per trajectory, so
/// results are the same bits regardless of thread count.
std::vector<double> run_trajectories(
    int num_qubits, int num_trajectories, std::uint64_t seed,
    const std::function<void(NoisyEngine&)>& program);

}  // namespace charter::sim
