// Golden-file regression suite: full CharterReports for three seeded
// circuits (QFT, VQE ansatz, random basis-gate) are pinned as JSON fixtures
// and replayed to 1e-12, so a future change that silently shifts scores,
// distributions, or the exec layer's checkpoint/cache behavior fails here
// instead of shipping.  Scores are engine-exact (shots = 0), so the 1e-12
// budget only absorbs libm/FP-contraction differences across toolchains —
// any algorithmic change lands far outside it.
//
// Regenerating (after a *deliberate* output change): run this binary with
// CHARTER_REGEN_FIXTURES=1 in the environment and commit the rewritten
// files under tests/fixtures/, explaining in the commit why the outputs
// moved.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "algos/algorithms.hpp"
#include "backend/backend.hpp"
#include "core/analyzer.hpp"
#include "core/report_io.hpp"
#include "exec/cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#ifndef CHARTER_FIXTURE_DIR
#define CHARTER_FIXTURE_DIR "tests/fixtures"
#endif

namespace ca = charter::algos;
namespace cb = charter::backend;
namespace cc = charter::circ;
namespace co = charter::core;
namespace ex = charter::exec;

namespace {

constexpr double kTolerance = 1e-12;

/// Seeded random circuit over the device basis gates (RZ/SX/X/CX).
cc::Circuit random_basis_circuit(int n, int gates, std::uint64_t seed) {
  charter::util::Rng rng(seed);
  cc::Circuit c(n);
  const auto qubit = [&] { return static_cast<int>(rng.uniform_int(n)); };
  for (int k = 0; k < gates; ++k) {
    switch (rng.uniform_int(4)) {
      case 0: c.rz(qubit(), rng.uniform(-3.0, 3.0)); break;
      case 1: c.sx(qubit()); break;
      case 2: c.x(qubit()); break;
      default: {
        const int a = qubit();
        int b = qubit();
        while (b == a) b = qubit();
        c.cx(a, b);
        break;
      }
    }
  }
  return c;
}

/// The pinned analysis configuration: engine-exact distributions (no shot
/// sampling cliffs inside the tolerance), checkpointing and caching on, a
/// gate cap to keep replays fast.  Reports are thread-count-independent, so
/// the fixtures carry no threads field.
co::CharterOptions golden_options() {
  co::CharterOptions options;
  options.reversals = 2;
  options.max_gates = 10;
  options.run.shots = 0;
  options.run.seed = 2022;
  return options;
}

co::GoldenReport analyze_golden(const cc::Circuit& logical) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = backend.compile(logical);
  ex::RunCache::global().clear();
  const co::CharterAnalyzer analyzer(backend, golden_options());
  co::GoldenReport out;
  out.report = analyzer.analyze(program);
  out.exec = out.report.exec_stats;
  // Structural (un-pinned) property while we are here: a re-analysis is
  // served entirely from the run cache.
  const co::CharterReport warm = analyzer.analyze(program);
  EXPECT_EQ(warm.exec_stats.cache_hits, warm.exec_stats.jobs);
  ex::RunCache::global().clear();
  return out;
}

std::string fixture_path(const std::string& name) {
  return std::string(CHARTER_FIXTURE_DIR) + "/" + name + ".json";
}

void check_against_fixture(const std::string& name,
                           const cc::Circuit& logical) {
  const co::GoldenReport actual = analyze_golden(logical);

  if (std::getenv("CHARTER_REGEN_FIXTURES") != nullptr) {
    std::ofstream out(fixture_path(name));
    ASSERT_TRUE(out.good()) << "cannot write " << fixture_path(name);
    out << co::report_to_json(actual.report, actual.exec);
    GTEST_SKIP() << "regenerated " << fixture_path(name);
  }

  std::ifstream in(fixture_path(name));
  ASSERT_TRUE(in.good()) << "missing fixture " << fixture_path(name)
                         << " (run with CHARTER_REGEN_FIXTURES=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const co::GoldenReport expected = co::report_from_json(buffer.str());

  EXPECT_EQ(actual.report.total_gates, expected.report.total_gates);
  EXPECT_EQ(actual.report.eligible_gates, expected.report.eligible_gates);
  EXPECT_EQ(actual.report.analyzed_gates, expected.report.analyzed_gates);

  ASSERT_EQ(actual.report.original_distribution.size(),
            expected.report.original_distribution.size());
  for (std::size_t i = 0; i < expected.report.original_distribution.size();
       ++i)
    EXPECT_NEAR(actual.report.original_distribution[i],
                expected.report.original_distribution[i], kTolerance)
        << "outcome " << i;

  ASSERT_EQ(actual.report.impacts.size(), expected.report.impacts.size());
  for (std::size_t k = 0; k < expected.report.impacts.size(); ++k) {
    const co::GateImpact& a = actual.report.impacts[k];
    const co::GateImpact& e = expected.report.impacts[k];
    EXPECT_EQ(a.op_index, e.op_index) << "impact " << k;
    EXPECT_EQ(a.kind, e.kind) << "impact " << k;
    EXPECT_EQ(a.layer, e.layer) << "impact " << k;
    EXPECT_EQ(a.num_qubits, e.num_qubits) << "impact " << k;
    for (int q = 0; q < e.num_qubits; ++q)
      EXPECT_EQ(a.qubits[static_cast<std::size_t>(q)],
                e.qubits[static_cast<std::size_t>(q)])
          << "impact " << k;
    EXPECT_NEAR(a.tvd, e.tvd, kTolerance) << "impact " << k;
  }

  // The ranking itself — the analyzer's one-line deliverable — must match
  // exactly, not just within tolerance.
  const auto actual_ranked = actual.report.sorted_by_impact();
  const auto expected_ranked = expected.report.sorted_by_impact();
  for (std::size_t k = 0; k < expected_ranked.size(); ++k)
    EXPECT_EQ(actual_ranked[k].op_index, expected_ranked[k].op_index)
        << "rank " << k;

  // Execution diagnostics are part of the pinned surface: a checkpoint plan
  // that silently stops engaging is a perf regression this catches.
  EXPECT_EQ(actual.exec.jobs, expected.exec.jobs);
  EXPECT_EQ(actual.exec.cache_hits, expected.exec.cache_hits);
  EXPECT_EQ(actual.exec.checkpointed, expected.exec.checkpointed);
  EXPECT_EQ(actual.exec.trajectory_checkpointed,
            expected.exec.trajectory_checkpointed);
  EXPECT_EQ(actual.exec.full_runs, expected.exec.full_runs);
  EXPECT_EQ(actual.exec.checkpoint_fallbacks,
            expected.exec.checkpoint_fallbacks);
  // The path counters are counted on every run, so they are pinned too.
  const auto& a = actual.exec.strategy_jobs;
  const auto& e = expected.exec.strategy_jobs;
  EXPECT_EQ(a.dm_exact, e.dm_exact);
  EXPECT_EQ(a.trajectory, e.trajectory);
  EXPECT_EQ(a.checkpoint_splice, e.checkpoint_splice);
}

}  // namespace

TEST(ReportIo, RoundTripsThroughJson) {
  const co::GoldenReport golden = analyze_golden(ca::qft(3, 0));
  const std::string json = co::report_to_json(golden.report, golden.exec);
  const co::GoldenReport back = co::report_from_json(json);

  ASSERT_EQ(back.report.impacts.size(), golden.report.impacts.size());
  for (std::size_t k = 0; k < golden.report.impacts.size(); ++k) {
    EXPECT_EQ(back.report.impacts[k].op_index,
              golden.report.impacts[k].op_index);
    EXPECT_EQ(back.report.impacts[k].kind, golden.report.impacts[k].kind);
    // %.17g round-trips doubles exactly.
    EXPECT_EQ(back.report.impacts[k].tvd, golden.report.impacts[k].tvd);
  }
  ASSERT_EQ(back.report.original_distribution.size(),
            golden.report.original_distribution.size());
  for (std::size_t i = 0; i < golden.report.original_distribution.size(); ++i)
    EXPECT_EQ(back.report.original_distribution[i],
              golden.report.original_distribution[i]);
  EXPECT_EQ(back.exec.jobs, golden.exec.jobs);
  EXPECT_EQ(back.exec.checkpointed, golden.exec.checkpointed);
}

TEST(ReportIo, RejectsMalformedAndMismatchedSchema) {
  EXPECT_THROW(co::report_from_json("not json"), charter::InvalidArgument);
  EXPECT_THROW(co::report_from_json("{\"schema\":999}"),
               charter::InvalidArgument);
}

TEST(GoldenReports, Qft3) { check_against_fixture("qft3", ca::qft(3, 0)); }

TEST(GoldenReports, Vqe4) {
  check_against_fixture("vqe4", ca::vqe_ansatz(4, 3, 31));
}

TEST(GoldenReports, RandomBasis5) {
  check_against_fixture("random_basis5",
                        random_basis_circuit(5, 40, 0x5eedULL));
}

TEST(GoldenReports, Qaoa5P1) {
  check_against_fixture("qaoa5p1", ca::qaoa_maxcut(5, 1, 21));
}

TEST(GoldenReports, Grover3) {
  check_against_fixture("grover3", ca::grover(3, 5));
}
