#include "sim/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "sim/kernels.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace charter::sim {

using math::cplx;
using math::Mat2;

TrajectoryEngine::TrajectoryEngine(int num_qubits, std::uint64_t seed)
    : state_(num_qubits), rng_(seed) {}

void TrajectoryEngine::reset() { state_.reset(); }

void TrajectoryEngine::apply_unitary_1q(const Mat2& u, int q) {
  state_.apply_unitary_1q(u, q);
}

void TrajectoryEngine::diag_factors(const std::array<cplx, 4>& d, int qa,
                                    int qb, math::simd::DiagFactor* out) {
  out[0].m0 = std::uint64_t{1} << qa;
  out[0].m1 = qb < 0 ? 0 : std::uint64_t{1} << qb;
  out[0].d = d;
}

void TrajectoryEngine::apply_diag_run(const math::simd::DiagFactor* f,
                                      std::size_t count) {
  kernels::diag_run(state_.mutable_amplitudes().data(), state_.dim(), f,
                    count);
}

void TrajectoryEngine::apply_diag_1q(cplx d0, cplx d1, int q) {
  math::simd::DiagFactor f;
  diag_factors({d0, d1, cplx(0.0), cplx(0.0)}, q, -1, &f);
  apply_diag_run(&f, 1);
}

void TrajectoryEngine::apply_cx(int c, int t) {
  kernels::apply_cx(state_.mutable_amplitudes().data(), state_.dim(), c, t);
}

void TrajectoryEngine::apply_diag_2q(const std::array<cplx, 4>& d, int qa,
                                     int qb) {
  math::simd::DiagFactor f;
  diag_factors(d, qa, qb, &f);
  apply_diag_run(&f, 1);
}

void TrajectoryEngine::apply_unitary_2q(const math::Mat4& u, int qa, int qb) {
  state_.apply_unitary_2q(u, qa, qb);
}

void TrajectoryEngine::apply_pauli(int which, int q) {
  cplx* a = state_.mutable_amplitudes().data();
  const std::uint64_t d = state_.dim();
  switch (which) {
    case 0:
      kernels::apply_x(a, d, q);
      return;
    case 1: {
      Mat2 y;
      y(0, 1) = cplx(0.0, -1.0);
      y(1, 0) = cplx(0.0, 1.0);
      kernels::apply_1q(a, d, q, y);
      return;
    }
    default:
      apply_diag_1q(1.0, -1.0, q);
      return;
  }
}

void TrajectoryEngine::apply_thermal_relaxation(int q, double gamma,
                                                double pz) {
  if (gamma > 0.0) {
    const double p1 = state_.probability_one(q);
    const double p_jump = gamma * p1;
    if (rng_.bernoulli(p_jump)) {
      // Jump branch K1: |1> collapses to |0>.
      cplx* a = state_.mutable_amplitudes().data();
      const std::uint64_t dim = state_.dim();
      const std::uint64_t mask = 1ULL << q;
      const double inv = 1.0 / std::sqrt(p1);
      util::parallel_for(
          static_cast<std::int64_t>(dim >> 1), [=](std::int64_t i) {
            const std::uint64_t ui = static_cast<std::uint64_t>(i);
            const std::uint64_t i0 =
                ((ui & ~(mask - 1)) << 1) | (ui & (mask - 1));
            const std::uint64_t i1 = i0 | mask;
            a[i0] = a[i1] * inv;
            a[i1] = 0.0;
          });
    } else {
      // No-jump branch K0 = diag(1, sqrt(1-gamma)), then renormalize.
      apply_diag_1q(1.0, std::sqrt(1.0 - gamma), q);
      state_.normalize();
    }
  }
  if (pz > 0.0 && rng_.bernoulli(pz)) apply_pauli(2, q);
}

void TrajectoryEngine::apply_depolarizing_1q(int q, double p) {
  if (p <= 0.0) return;
  if (!rng_.bernoulli(p)) return;
  apply_pauli(static_cast<int>(rng_.uniform_int(3)), q);
}

void TrajectoryEngine::apply_depolarizing_2q(int qa, int qb, double p) {
  if (p <= 0.0) return;
  if (!rng_.bernoulli(p)) return;
  // One of the 15 non-identity two-qubit Paulis, uniformly.
  const int pick = static_cast<int>(rng_.uniform_int(15)) + 1;
  const int pa = pick % 4;        // 0=I, 1=X, 2=Y, 3=Z on qa
  const int pb = pick / 4;        // same encoding on qb
  if (pa != 0) apply_pauli(pa - 1, qa);
  if (pb != 0) apply_pauli(pb - 1, qb);
}

void TrajectoryEngine::apply_bitflip(int q, double p) {
  if (p > 0.0 && rng_.bernoulli(p)) apply_pauli(0, q);
}

void TrajectoryEngine::apply_kraus_1q(std::span<const Mat2> kraus, int q) {
  require(!kraus.empty(), "empty Kraus set");
  // Sample a branch with the Born probability ||K_i psi||^2.
  const double u = rng_.uniform();
  double acc = 0.0;
  std::vector<cplx> backup = state_.amplitudes();
  for (std::size_t i = 0; i < kraus.size(); ++i) {
    std::copy(backup.begin(), backup.end(),
              state_.mutable_amplitudes().begin());
    state_.apply_unitary_1q(kraus[i], q);  // kernels accept non-unitary K
    const double pr = state_.norm_sq();
    acc += pr;
    if (u < acc || i + 1 == kraus.size()) {
      CHARTER_ASSERT(pr > 1e-300, "selected Kraus branch has zero weight");
      state_.normalize();
      return;
    }
  }
}

std::vector<double> TrajectoryEngine::probabilities() const {
  return state_.probabilities();
}

std::unique_ptr<NoisyEngine> TrajectoryEngine::clone() const {
  return std::make_unique<TrajectoryEngine>(*this);
}

std::vector<double> run_trajectory_group(
    int num_qubits, int begin, int end, const util::Rng& seeder,
    const std::function<void(NoisyEngine&)>& program) {
  const std::uint64_t dim = std::uint64_t{1} << num_qubits;
  std::vector<double> local(dim, 0.0);
  for (int t = begin; t < end; ++t) {
    TrajectoryEngine engine(num_qubits, trajectory_engine_seed(seeder, t));
    program(engine);
    const std::vector<double> p = engine.probabilities();
    for (std::uint64_t i = 0; i < dim; ++i) local[i] += p[i];
  }
  return local;
}

std::vector<double> fold_trajectory_groups(
    const std::vector<std::vector<double>>& partials, std::uint64_t dim,
    int num_trajectories) {
  std::vector<double> total(dim, 0.0);
  for (const auto& local : partials)
    for (std::uint64_t i = 0; i < dim; ++i) total[i] += local[i];
  const double inv = 1.0 / num_trajectories;
  for (double& v : total) v *= inv;
  return total;
}

TrajectoryFold::TrajectoryFold(int num_trajectories)
    : num_trajectories_(num_trajectories) {
  require(num_trajectories >= 1, "need at least one trajectory");
  groups_.resize(
      static_cast<std::size_t>(num_trajectory_groups(num_trajectories)));
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    groups_[g].size = std::min(
        kTrajectoryGroupSize,
        num_trajectories - static_cast<int>(g) * kTrajectoryGroupSize);
    groups_[g].parked.resize(static_cast<std::size_t>(groups_[g].size));
  }
}

void TrajectoryFold::add(int t, std::vector<double> probabilities) {
  require(t >= 0 && t < num_trajectories_, "trajectory index out of range");
  require(!probabilities.empty(), "empty trajectory distribution");
  Group& g = groups_[static_cast<std::size_t>(t / kTrajectoryGroupSize)];
  const auto offset = static_cast<std::size_t>(t % kTrajectoryGroupSize);
  std::unique_lock<std::mutex> lock(mu_);
  CHARTER_ASSERT(static_cast<int>(offset) >= g.added &&
                     g.parked[offset].empty(),
                 "trajectory added twice");
  g.parked[offset] = std::move(probabilities);
  // Whoever holds `busy` sums the group in index order and will pick this
  // vector up when its turn comes; otherwise become that thread.
  if (g.busy) return;
  g.busy = true;
  while (g.added < g.size &&
         !g.parked[static_cast<std::size_t>(g.added)].empty()) {
    {
      std::vector<double> p =
          std::exchange(g.parked[static_cast<std::size_t>(g.added)], {});
      lock.unlock();
      if (g.sum.empty()) {
        // 0.0 + p[i] == p[i] for every probability, so the group's first
        // unravelling becomes its partial as is.
        g.sum = std::move(p);
      } else {
        for (std::size_t i = 0; i < g.sum.size(); ++i) g.sum[i] += p[i];
      }
    }  // p is freed here, outside the lock
    lock.lock();
    ++g.added;
  }
  g.busy = false;
}

std::vector<double> TrajectoryFold::finish() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<double>> partials;
  partials.reserve(groups_.size());
  for (Group& g : groups_) {
    CHARTER_ASSERT(g.added == g.size, "trajectory fold is incomplete");
    partials.push_back(std::move(g.sum));
  }
  const std::uint64_t dim = partials.front().size();
  return fold_trajectory_groups(partials, dim, num_trajectories_);
}

std::vector<double> run_trajectories(
    int num_qubits, int num_trajectories, std::uint64_t seed,
    const std::function<void(NoisyEngine&)>& program) {
  const util::Rng seeder(seed);
  TrajectoryFold fold(num_trajectories);
  const auto run_one = [&](std::int64_t t) {
    TrajectoryEngine engine(
        num_qubits, trajectory_engine_seed(seeder, static_cast<int>(t)));
    program(engine);
    fold.add(static_cast<int>(t), engine.probabilities());
  };
  util::ThreadPool* pool =
      num_qubits < kAmpParallelMinQubits && num_trajectories > 1 &&
              !util::in_pool_worker()
          ? util::process_pool()
          : nullptr;
  if (pool != nullptr) {
    // One pool task per unravelling.
    pool->run(num_trajectories, [&](std::int64_t t, int) { run_one(t); });
  } else {
    // Amplitude-parallel regime (or one unravelling, or already on a pool
    // worker): each O(2^n) kernel pass dwarfs the per-unravelling overhead,
    // so run them one after another and let the kernels' own loops split
    // across the pool instead.  The fold makes the order in which
    // unravellings finish irrelevant, so both branches give the same bits.
    for (std::int64_t t = 0; t < num_trajectories; ++t) run_one(t);
  }
  return fold.finish();
}

}  // namespace charter::sim
