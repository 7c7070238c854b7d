// Micro-benchmark of the exec subsystem: naive per-gate analysis (every
// reversed circuit simulated from scratch) vs. prefix-state checkpointed
// analysis on the same program, the warm-cache replay served to repeated
// sweeps (the Table V/VI pattern and the mitigation workflow's re-analysis),
// and the worker-pool scaling curve of the sharded parallel driver.  Emits
// JSON so the perf trajectory can be tracked across commits.
//
// Reported metrics (all on a 5-qubit, >= 30-eligible-gate program, density
// matrix, drift 0, verified bit-identical between paths):
//   cold_speedup       one from-scratch analysis, checkpointed vs naive;
//                      bounded by 2x for a uniform sweep (each job still
//                      simulates its pairs + on average half the circuit)
//   session_speedup    two-sweep session (analysis + cached re-analysis)
//                      vs two naive sweeps
//   reanalysis_speedup a cached re-analysis alone vs a naive sweep
//   threads[]          checkpointed analysis wall-clock per worker-pool
//                      width (1, 2, 4, ... up to --max-threads), each row's
//                      speedup vs the 1-worker run, with the report asserted
//                      *bit-identical* to the single-threaded one — the
//                      driver's determinism contract, enforced on every
//                      bench run
//
// Usage: bench_exec_batching [--rounds N] [--reps N] [--reversals N]
//                            [--shots N] [--max-threads N] [--smoke]
//                            [--out PATH]
//
// The default program is a 5-qubit, >= 30-eligible-gate circuit analyzed on
// the density-matrix engine with drift 0 — the regime where checkpointing is
// exact.  The two paths are verified bit-identical before timings are
// reported.  --smoke shrinks the workload for CI.

#include <cstdio>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "bench/common.hpp"
#include "core/analyzer.hpp"
#include "exec/cache.hpp"
#include "math/simd_dispatch.hpp"
#include "transpile/topology.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace cb = charter::backend;
namespace cc = charter::circ;
namespace co = charter::core;
namespace ct = charter::transpile;
namespace ex = charter::exec;

namespace {

/// Deep 5-qubit logical circuit; rounds scale the eligible-gate count.
/// The program opens with the active-reset initialization cycle hardware
/// prepends to every execution — expensive to simulate (840 ns thermal
/// windows per qubit) and ineligible for reversal, so it is pure shared
/// prefix for the checkpointed path while the naive path re-simulates it
/// for every gate.
cc::Circuit workload(int rounds, int reset_cycles) {
  cc::Circuit c(5);
  for (int r = 0; r < reset_cycles; ++r)
    for (int q = 0; q < 5; ++q) c.reset(q);
  for (int q = 0; q < 5; ++q) c.h(q, cc::kFlagInputPrep);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < 4; ++q) c.cx(q, q + 1);
    for (int q = 0; q < 5; ++q) c.rx(q, 0.2 + 0.07 * q);
    c.cx(4, 3);
    for (int q = 0; q < 5; ++q) c.ry(q, 0.5 - 0.05 * q);
  }
  return c;
}

double analyze_seconds(const cb::FakeBackend& backend,
                       const cb::CompiledProgram& program,
                       const co::CharterOptions& options, int reps,
                       co::CharterReport* out) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const co::CharterAnalyzer analyzer(backend, options);
    charter::util::Timer timer;
    co::CharterReport report = analyzer.analyze(program);
    best = std::min(best, timer.seconds());
    if (report.exec_stats.checkpoint_fallbacks > 0)
      std::fprintf(stderr, "note: %zu checkpoint fallbacks\n",
                   report.exec_stats.checkpoint_fallbacks);
    if (out != nullptr) *out = std::move(report);
  }
  return best;
}

bool reports_identical(const co::CharterReport& a, const co::CharterReport& b) {
  if (a.impacts.size() != b.impacts.size()) return false;
  if (a.original_distribution != b.original_distribution) return false;
  for (std::size_t i = 0; i < a.impacts.size(); ++i) {
    if (a.impacts[i].op_index != b.impacts[i].op_index) return false;
    if (a.impacts[i].tvd != b.impacts[i].tvd) return false;
  }
  return true;
}

void append_double(std::string& out, const char* key, double v,
                   bool trailing_comma = true) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  \"%s\": %.3f%s\n", key, v,
                trailing_comma ? "," : "");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  charter::util::Cli cli(
      "bench_exec_batching: naive vs checkpointed analyzer wall-clock and "
      "worker-pool scaling");
  cli.add_flag("rounds", std::int64_t{8}, "workload rounds (depth scale)");
  cli.add_flag("resets", std::int64_t{1},
               "active-reset initialization cycles before the program");
  cli.add_flag("reps", std::int64_t{3}, "timed repetitions (best-of)");
  cli.add_flag("reversals", std::int64_t{5}, "reversed pairs per gate");
  cli.add_flag("shots", std::int64_t{0},
               "shots per run (0 = exact engine distributions)");
  cli.add_flag("max-threads", std::int64_t{8},
               "sweep pool widths 1, 2, 4, ... up to this many workers");
  cli.add_flag("smoke", false, "CI preset: tiny workload, 2-wide sweep");
  cli.add_flag("out", std::string("bench_results/exec_batching.json"),
               "JSON output path ('' = stdout only)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  const int rounds = smoke ? 2 : static_cast<int>(cli.get_int("rounds"));
  const int reps = smoke ? 1 : static_cast<int>(cli.get_int("reps"));
  const int max_threads =
      smoke ? 2 : static_cast<int>(cli.get_int("max-threads"));

  const cb::FakeBackend backend =
      cb::FakeBackend::from_topology(ct::line(5), /*cal_seed=*/2022);
  const cb::CompiledProgram program = backend.compile(
      workload(rounds, static_cast<int>(cli.get_int("resets"))));

  co::CharterOptions options;
  options.reversals = static_cast<int>(cli.get_int("reversals"));
  options.run.shots = cli.get_int("shots");
  options.run.seed = 2022;
  options.run.drift = 0.0;
  options.exec.caching = false;

  options.exec.checkpointing = false;
  co::CharterReport naive_report;
  const double naive_s =
      analyze_seconds(backend, program, options, reps, &naive_report);

  options.exec.checkpointing = true;
  co::CharterReport fast_report;
  const double fast_s =
      analyze_seconds(backend, program, options, reps, &fast_report);

  // Worker-pool scaling sweep: the same checkpointed analysis at explicit
  // pool widths.  Every width must reproduce the 1-worker report bit for
  // bit — the sharded driver's determinism contract.
  struct ThreadRow {
    int threads = 0;
    double seconds = 0.0;
    bool identical = false;
  };
  std::vector<ThreadRow> thread_rows;
  co::CharterReport one_worker_report;
  bool all_identical = true;
  for (int t = 1; t <= max_threads; t *= 2) {
    options.exec.threads = t;
    co::CharterReport report;
    const double s = analyze_seconds(backend, program, options, reps, &report);
    if (t == 1) one_worker_report = report;
    const bool identical = reports_identical(one_worker_report, report);
    all_identical = all_identical && identical;
    thread_rows.push_back({t, s, identical});
  }
  options.exec.threads = 0;

  // Warm-cache replay (the mitigation workflow's re-analysis pattern).
  options.exec.caching = true;
  ex::RunCache::global().clear();
  analyze_seconds(backend, program, options, 1, nullptr);  // populate
  const double warm_s = analyze_seconds(backend, program, options, 1, nullptr);
  ex::RunCache::global().clear();

  const bool identical = reports_identical(naive_report, fast_report);
  // Cold speedup: one from-scratch analysis, checkpointing vs naive.  For a
  // uniform per-gate sweep the theoretical bound is 2x (every job still
  // simulates its reversed pairs plus on average half the circuit).
  const double cold_speedup = fast_s > 0.0 ? naive_s / fast_s : 0.0;
  // Session speedup: an analysis session that sweeps the program twice (the
  // Table V/VI pattern and the mitigation workflow's re-analysis) — the
  // second sweep is served by the run cache.
  const double session_speedup =
      (fast_s + warm_s) > 0.0 ? 2.0 * naive_s / (fast_s + warm_s) : 0.0;
  const double warm_speedup = warm_s > 0.0 ? naive_s / warm_s : 0.0;

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"exec_batching\",\n";
  json += "  \"qubits\": 5,\n";
  json += "  \"analyzed_gates\": " +
          std::to_string(naive_report.analyzed_gates) + ",\n";
  json += "  \"reversals\": " + std::to_string(options.reversals) + ",\n";
  json += "  \"shots\": " + std::to_string(options.run.shots) + ",\n";
  json += "  \"engine\": \"density_matrix\",\n";
  json += std::string("  \"simd_active\": \"") +
          charter::math::simd::path_name(charter::math::simd::active_path()) +
          "\",\n";
  json += "  \"drift\": 0.0,\n";
  append_double(json, "naive_ms", naive_s * 1e3);
  append_double(json, "checkpointed_ms", fast_s * 1e3);
  append_double(json, "warm_cache_ms", warm_s * 1e3);
  append_double(json, "cold_speedup", cold_speedup);
  append_double(json, "session_speedup", session_speedup);
  append_double(json, "reanalysis_speedup", warm_speedup);
  json += "  \"threads\": [\n";
  const double one_worker_s = thread_rows.empty() ? 0.0 : thread_rows[0].seconds;
  for (std::size_t k = 0; k < thread_rows.size(); ++k) {
    const ThreadRow& row = thread_rows[k];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"ms\": %.3f, \"speedup\": %.3f, "
                  "\"bit_identical_to_1_thread\": %s}%s\n",
                  row.threads, row.seconds * 1e3,
                  row.seconds > 0.0 ? one_worker_s / row.seconds : 0.0,
                  row.identical ? "true" : "false",
                  k + 1 < thread_rows.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += std::string("  \"bit_identical\": ") +
          (identical ? "true" : "false") + "\n";
  json += "}\n";
  std::fputs(json.c_str(), stdout);

  charter::bench::write_output_file(cli.get_string("out"), json);
  if (!identical) {
    std::fprintf(stderr, "FAIL: checkpointed != naive\n");
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: report changed with the worker-pool width\n");
    return 1;
  }
  return 0;
}
