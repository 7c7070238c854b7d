// Tests for the NoiseProgram tape: exact lowering is equivalent to the
// streaming walk, two-qubit fused tapes agree with exact tapes to 1e-12
// while being strictly smaller, spliced lowering reproduces full lowering
// bit-exactly, and fingerprints separate circuits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>

#include "circuit/circuit.hpp"
#include "core/reversal.hpp"
#include "noise/calibration.hpp"
#include "noise/executor.hpp"
#include "noise/program.hpp"
#include "sim/density_matrix.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cc = charter::circ;
namespace cn = charter::noise;
namespace cs = charter::sim;
using cc::GateKind;

namespace {

/// Line-coupled device with heterogeneous generated calibration: every
/// noise mechanism (decoherence, depolarizing, over-rotation, static and
/// drive ZZ, SPAM) is active, so fusion legality is exercised against the
/// full channel set.
cn::NoiseModel line_model(int n, std::uint64_t seed) {
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < n; ++q) edges.emplace_back(q, q + 1);
  cn::NoiseModel m = cn::generate_calibration(n, edges, seed);
  // Make the coherent CX error non-trivial so diag-2q fusion paths run.
  for (const auto& [a, b] : m.edges()) m.edge(a, b).cx_zz_angle = 0.01;
  return m;
}

/// Random basis-gate circuit over a line coupling.
cc::Circuit random_basis_circuit(int n, int num_gates, std::uint64_t seed) {
  charter::util::Rng rng(seed);
  cc::Circuit c(n);
  for (int i = 0; i < num_gates; ++i) {
    switch (rng.uniform_int(6)) {
      case 0:
        c.rz(static_cast<int>(rng.uniform_int(n)),
             rng.uniform() * 2.0 * M_PI - M_PI);
        break;
      case 1:
        c.sx(static_cast<int>(rng.uniform_int(n)));
        break;
      case 2:
        c.sxdg(static_cast<int>(rng.uniform_int(n)));
        break;
      case 3:
        c.x(static_cast<int>(rng.uniform_int(n)));
        break;
      default: {
        const int a = static_cast<int>(rng.uniform_int(n - 1));
        if (rng.bernoulli(0.5))
          c.cx(a, a + 1);
        else
          c.cx(a + 1, a);
        break;
      }
    }
  }
  return c;
}

double max_abs_diff(const std::vector<charter::math::cplx>& a,
                    const std::vector<charter::math::cplx>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace

TEST(NoiseProgram, ExactTapeMatchesStreamingWalkBitExactly) {
  const cn::NoiseModel m = line_model(4, 11);
  const cc::Circuit c = random_basis_circuit(4, 40, 3);
  const cn::NoisyExecutor executor(m);

  // run() interprets the whole tape; the streaming API interprets it one
  // circuit-op segment at a time.  Both must agree bit-for-bit.
  cs::DensityMatrixEngine whole(4);
  executor.run(c, whole);

  cn::NoisyExecutor::Stream stream = executor.make_stream(c);
  cs::DensityMatrixEngine stepped(4);
  executor.start(c, stream, stepped);
  while (stream.next_op < c.size()) executor.step(c, stream, stepped);
  executor.finish(c, stream, stepped);

  EXPECT_EQ(max_abs_diff(whole.raw(), stepped.raw()), 0.0);
}

// The density-matrix interpreter executes each maximal run of consecutive
// diagonal ops (static-ZZ flushes, CX ZZ, drive crosstalk) as one pass.
// On a drifted tape, running it through the interface, through the concrete
// overload, one op per region, and as two halves split at every position
// inside a diagonal run (resuming from a saved state, as checkpoints do)
// must all give memcmp-identical states.
TEST(NoiseProgram, DiagonalRunsAreExactAtEverySplit) {
  const int n = 6;
  const cn::NoiseModel m = line_model(n, 21).with_drift(7, 0.06);
  const cc::Circuit c = random_basis_circuit(n, 30, 5);
  const cn::NoiseProgram p = cn::lower(m, c);
  const auto is_diag = [&](std::size_t i) {
    return p.op(i).kind == cn::TapeOpKind::kDiag1q ||
           p.op(i).kind == cn::TapeOpKind::kDiag2q;
  };
  std::vector<std::size_t> inner;  // split positions inside a diagonal run
  std::size_t run = 0, longest = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    run = is_diag(i) ? run + 1 : 0;
    longest = std::max(longest, run);
    if (run >= 2) inner.push_back(i);
  }
  ASSERT_GE(longest, 5u) << "tape has no ZZ-flush runs";

  const auto same = [](const cs::DensityMatrixEngine& a,
                       const cs::DensityMatrixEngine& b) {
    return std::memcmp(a.raw().data(), b.raw().data(),
                       a.raw().size() * sizeof(charter::math::cplx)) == 0;
  };
  cs::DensityMatrixEngine via_interface(n);
  p.execute(static_cast<cs::NoisyEngine&>(via_interface));
  cs::DensityMatrixEngine direct(n);
  p.run(direct, 0, p.size());
  EXPECT_TRUE(same(via_interface, direct));
  cs::DensityMatrixEngine op_by_op(n);
  for (std::size_t i = 0; i < p.size(); ++i) p.run(op_by_op, i, i + 1);
  EXPECT_TRUE(same(op_by_op, direct));

  std::vector<charter::math::cplx> snap;
  for (const std::size_t split : inner) {
    cs::DensityMatrixEngine head(n);
    p.run(head, 0, split);
    head.save_state(snap);
    cs::DensityMatrixEngine resumed(n);
    resumed.load_state(snap);
    p.run(resumed, split, p.size());
    EXPECT_TRUE(same(resumed, direct)) << "split at " << split;
  }
}

TEST(NoiseProgram, TrajectoryDiagonalRunsAreExactAtEverySplit) {
  // The statevector counterpart of the test above: one diag_run factor per
  // op, and the engine also carries an RNG stream that grouping must not
  // perturb.  A drifted 12-qubit tape keeps the state past the small-n
  // padding of the vector kernels.
  const int n = 12;
  const cn::NoiseModel m = line_model(n, 22).with_drift(9, 0.06);
  const cc::Circuit c = random_basis_circuit(n, 60, 6);
  const cn::NoiseProgram p = cn::lower(m, c);
  const auto is_diag = [&](std::size_t i) {
    return p.op(i).kind == cn::TapeOpKind::kDiag1q ||
           p.op(i).kind == cn::TapeOpKind::kDiag2q;
  };
  std::vector<std::size_t> inner;  // split positions inside a diagonal run
  std::size_t run = 0, longest = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    run = is_diag(i) ? run + 1 : 0;
    longest = std::max(longest, run);
    if (run >= 2) inner.push_back(i);
  }
  ASSERT_GE(longest, 5u) << "tape has no ZZ-flush runs";

  constexpr std::uint64_t kSeed = 77;
  // Same amplitudes bit for bit, and the same RNG stream: a burst of
  // depolarizing draws (each a 3/4 chance of a random Pauli) after the tape
  // lands both engines on the same state only if their streams agree.
  const auto same = [](const cs::TrajectoryEngine& a,
                       const cs::TrajectoryEngine& b) {
    cs::TrajectoryEngine x = a, y = b;
    for (int k = 0; k < 48; ++k) {
      x.apply_depolarizing_1q(k % x.num_qubits(), 0.75);
      y.apply_depolarizing_1q(k % y.num_qubits(), 0.75);
    }
    const auto bytes = [](const cs::TrajectoryEngine& e) {
      return e.state().amplitudes().size() * sizeof(charter::math::cplx);
    };
    return std::memcmp(a.state().amplitudes().data(),
                       b.state().amplitudes().data(), bytes(a)) == 0 &&
           std::memcmp(x.state().amplitudes().data(),
                       y.state().amplitudes().data(), bytes(x)) == 0;
  };
  cs::TrajectoryEngine via_interface(n, kSeed);
  p.execute(static_cast<cs::NoisyEngine&>(via_interface));
  cs::TrajectoryEngine direct(n, kSeed);
  p.run(direct, 0, p.size());
  EXPECT_TRUE(same(via_interface, direct));
  cs::TrajectoryEngine op_by_op(n, kSeed);
  for (std::size_t i = 0; i < p.size(); ++i) p.run(op_by_op, i, i + 1);
  EXPECT_TRUE(same(op_by_op, direct));

  for (const std::size_t split : inner) {
    cs::TrajectoryEngine head(n, kSeed);
    p.run(head, 0, split);
    const std::unique_ptr<cs::NoisyEngine> resumed = head.clone();
    p.run(*resumed, split, p.size());
    EXPECT_TRUE(same(static_cast<const cs::TrajectoryEngine&>(*resumed),
                     direct))
        << "split at " << split;
  }
}

TEST(NoiseProgram, BoundariesPartitionTheTape) {
  const cn::NoiseModel m = line_model(3, 5);
  const cc::Circuit c = random_basis_circuit(3, 20, 9);
  const cn::NoiseProgram p = cn::lower(m, c);

  ASSERT_EQ(p.num_circuit_ops(), c.size());
  EXPECT_GE(p.prologue_end(), 0u);
  std::size_t prev = p.prologue_end();
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(p.op_begin(i), prev);
    EXPECT_GE(p.op_end(i), p.op_begin(i));
    prev = p.op_end(i);
  }
  EXPECT_EQ(p.epilogue_begin(), prev);
  EXPECT_GE(p.size(), prev);
}

TEST(NoiseProgram, FusedWideTapeAgreesWithinTolerance) {
  // Wide-gate fusion consolidates coherent runs into dense two-qubit
  // unitaries and still agrees with the exact tape to 1e-12.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const cn::NoiseModel m = line_model(5, 200 + seed);
    const cc::Circuit c = random_basis_circuit(5, 60, seed);
    const cn::NoiseProgram exact = cn::lower(m, c);
    const cn::NoiseProgram wide = cn::fused_wide(exact);
    EXPECT_LT(wide.size(), exact.size())
        << "wide fusion should shrink the tape";

    cs::DensityMatrixEngine a(5), b(5);
    exact.execute(a);
    wide.execute(b);
    EXPECT_LE(max_abs_diff(a.raw(), b.raw()), 1e-12) << "seed " << seed;
  }
}

TEST(NoiseProgram, FusedWideTrajectoryAgreesAndPreservesRanking) {
  // Stochastic channels stay in-order barriers on the fused tape: the RNG
  // draw sequence matches the exact tape, so per-seed results agree within
  // the fusion tolerance and the outcome ranking is unchanged.
  const int n = 5;
  const cn::NoiseModel m = line_model(n, 307);
  const cc::Circuit c = random_basis_circuit(n, 60, 71);
  const cn::NoiseProgram exact = cn::lower(m, c);
  const cn::NoiseProgram wide = cn::fused_wide(exact);

  const auto run = [&](const cn::NoiseProgram& tape) {
    return cs::run_trajectories(
        n, 24, 0x5eedULL,
        [&](cs::NoisyEngine& engine) { tape.execute(engine); });
  };
  const std::vector<double> pe = run(exact);
  const std::vector<double> pw = run(wide);
  ASSERT_EQ(pe.size(), pw.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < pe.size(); ++i)
    worst = std::max(worst, std::abs(pe[i] - pw[i]));
  EXPECT_LE(worst, 1e-12);

  // Ranking equality: sorting outcomes by probability must give the same
  // order on both tapes (the exact density-matrix ranking check below is
  // the stronger cross-engine version).
  const auto ranking = [](const std::vector<double>& p) {
    std::vector<std::size_t> order(p.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return p[a] != p[b] ? p[a] > p[b] : a < b;
    });
    return order;
  };
  EXPECT_EQ(ranking(pe), ranking(pw));

  // Cross-check on the exact engine: fused-wide vs exact density-matrix
  // distributions rank outcomes identically.
  cs::DensityMatrixEngine a(n), b(n);
  exact.execute(a);
  wide.execute(b);
  EXPECT_EQ(ranking(a.probabilities()), ranking(b.probabilities()));
}

TEST(NoiseProgram, FusedWideEmitsDenseWideOps) {
  // A coherent-dominated model (stochastic channels off) collapses whole
  // gate runs between CX barriers; the result must actually contain dense
  // two-qubit tape ops, not just re-emitted 1q gates.
  cn::NoiseModel m = line_model(4, 401);
  m.toggles().decoherence = false;
  m.toggles().depolarizing = false;
  m.toggles().prep = false;
  m.toggles().readout = false;
  const cc::Circuit c = random_basis_circuit(4, 50, 77);
  const cn::NoiseProgram exact = cn::lower(m, c);
  const cn::NoiseProgram wide = cn::fused_wide(exact);
  std::size_t dense = 0;
  for (std::size_t i = 0; i < wide.size(); ++i)
    dense += wide.op(i).kind == cn::TapeOpKind::kUnitary2q;
  EXPECT_GT(dense, 0u);
  EXPECT_LT(wide.size(), exact.size());
}

TEST(NoiseProgram, SplicedLoweringMatchesFullLoweringBitExactly) {
  const cn::NoiseModel m = line_model(5, 13);
  const cc::Circuit base = random_basis_circuit(5, 40, 17);
  const cn::NoiseProgram base_tape = cn::lower(m, base, true);

  const std::vector<std::size_t> eligible =
      charter::core::reversible_ops(base, true);
  ASSERT_GE(eligible.size(), 10u);
  for (const std::size_t g :
       {eligible.front(), eligible[eligible.size() / 2], eligible.back()}) {
    const cc::Circuit derived =
        charter::core::insert_reversed_pairs(base, g, 3, true);
    const auto spliced = cn::lower_spliced(m, base, base_tape, derived, g + 1);
    ASSERT_TRUE(spliced.has_value()) << "gate " << g;
    const cn::NoiseProgram full = cn::lower(m, derived);
    ASSERT_EQ(spliced->size(), full.size());
    EXPECT_TRUE(spliced->region_equal(full, 0, full.size()));
    EXPECT_EQ(spliced->fingerprint(), full.fingerprint());
  }
}

TEST(NoiseProgram, SpliceRejectsOverClaimedPrefix) {
  const cn::NoiseModel m = line_model(3, 19);
  const cc::Circuit base = random_basis_circuit(3, 20, 23);
  const cn::NoiseProgram base_tape = cn::lower(m, base, true);

  // A circuit whose claimed prefix diverges (different first gate) must be
  // rejected rather than resumed.
  cc::Circuit other(3);
  other.x(0);
  for (std::size_t i = 1; i < base.size(); ++i) other.append(base.op(i));
  EXPECT_FALSE(cn::lower_spliced(m, base, base_tape, other, 5).has_value());

  // Without resume records there is nothing to splice from.
  const cn::NoiseProgram bare = cn::lower(m, base, false);
  EXPECT_FALSE(cn::lower_spliced(m, base, bare, base, 5).has_value());
}

TEST(NoiseProgram, FingerprintsSeparateCircuits) {
  const cn::NoiseModel m = line_model(4, 29);
  const cc::Circuit c1 = random_basis_circuit(4, 25, 31);
  cc::Circuit c2 = c1;
  c2.x(0);

  const cn::NoiseProgram exact = cn::lower(m, c1);
  const cn::NoiseProgram again = cn::lower(m, c1);
  const cn::NoiseProgram other = cn::lower(m, c2);

  EXPECT_EQ(exact.fingerprint(), again.fingerprint());
  EXPECT_NE(exact.fingerprint(), other.fingerprint());
  EXPECT_NE(exact.fingerprint()[0], cn::tape_schema_fingerprint()[0]);
}

TEST(NoiseProgram, KrausTapeOpMatchesDirectEngineCall) {
  // Hand-built tape with a generic Kraus channel: interpretation must equal
  // the direct engine call (the analyzer never emits kraus ops today, but
  // custom channels enter through this path).
  const double p = 0.2;
  charter::math::Mat2 k0, k1;
  k0(0, 0) = 1.0;
  k0(1, 1) = std::sqrt(1.0 - p);
  k1(0, 1) = std::sqrt(p);
  const std::array<charter::math::Mat2, 2> kraus = {k0, k1};

  cn::NoiseProgram tape(1);
  tape.append_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})),
                         0);
  tape.append_kraus_1q(kraus, 0);

  cs::DensityMatrixEngine direct(1), taped(1);
  direct.apply_unitary_1q(
      cc::gate_unitary_1q(cc::make_gate(GateKind::X, {0})), 0);
  direct.apply_kraus_1q(kraus, 0);
  tape.execute(taped);

  EXPECT_EQ(max_abs_diff(direct.raw(), taped.raw()), 0.0);
  // Amplitude damping after X: P(0) = p.
  EXPECT_NEAR(taped.probabilities()[0], p, 1e-12);
}

TEST(NoiseProgram, ExecuteRejectsWidthMismatch) {
  const cn::NoiseModel m = line_model(3, 41);
  const cc::Circuit c = random_basis_circuit(3, 10, 43);
  const cn::NoiseProgram tape = cn::lower(m, c);
  cs::DensityMatrixEngine narrow(2);
  EXPECT_THROW(tape.execute(narrow), charter::InvalidArgument);
}
