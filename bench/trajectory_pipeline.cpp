// Benchmark of the trajectory pipeline: 20+ qubit trajectory sweeps, where
// the density-matrix engine is out of reach and every statevector pass is a
// full 2^n-amplitude scan.
//
//  1. coherent: a coherent-dominated noise config (decoherence and
//     depolarizing off; coherent over-rotations and ZZ phases on), timed as
//     one exact-tape sweep.
//  2. full_noise: every channel on — recorded so the trend shows both
//     regimes.
//  3. threads[]: the coherent sweep re-run at 1/2/4 OpenMP threads; each
//     row's folded distribution must be bit-identical to the 1-thread row
//     (group folding is index-ordered and the amplitude-parallel sums are
//     chunk-invariant).
//  4. fanout: one exec::BatchRunner batch of 6 drifted trajectory jobs x 8
//     unravellings on 4 pool threads — the shape of a Charter sweep past
//     the density-matrix limit (tfim16 on ibmq_guadalupe; hlf10 under
//     --smoke).  Records wall time and CPU utilization (process CPU time
//     over wall x threads); every unravelling is its own pool task, so the
//     pool stays busy although 6 jobs do not divide over 4 threads.  Each
//     job must be bit-identical to its own run_trajectories average.
//  5. adaptive: one Charter trajectory sweep of a deep 5-qubit circuit run
//     twice — fixed budget vs BudgetMode::kAdaptive — recording the
//     trajectories the sequential test saved; the top-3 gate ranking must
//     be unchanged and the savings positive.
//
// Emits JSON like bench_sim_kernels; CI records the --smoke output as
// BENCH_trajectory.json and tools/check_bench_trend.py validates the keys.
//
// Usage: bench_trajectory_pipeline [--qubits N] [--trajectories N]
//                                  [--rounds N] [--reps N] [--smoke]
//                                  [--out PATH]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "algos/registry.hpp"
#include "backend/backend.hpp"
#include "bench/common.hpp"
#include "circuit/circuit.hpp"
#include "core/analyzer.hpp"
#include "core/reversal.hpp"
#include "exec/adaptive.hpp"
#include "exec/batch.hpp"
#include "math/simd_dispatch.hpp"
#include "noise/calibration.hpp"
#include "noise/executor.hpp"
#include "noise/program.hpp"
#include "sim/trajectory.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace cb = charter::backend;
namespace cc = charter::circ;
namespace cn = charter::noise;
namespace co = charter::core;
namespace cs = charter::sim;
namespace simd = charter::math::simd;

namespace {

/// Transpiled-shape workload: u3-style RZ-SX-RZ-SX-RZ runs interleaved with
/// CX ladders — the same gate mix bench_sim_kernels times, at sweep widths.
cc::Circuit workload(int qubits, int rounds) {
  cc::Circuit c(qubits);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < qubits; ++q) {
      c.rz(q, 0.3 + 0.01 * q).sx(q).rz(q, 1.1 - 0.02 * r).sx(q).rz(q, -0.7);
    }
    for (int q = 0; q + 1 < qubits; ++q) c.cx(q, q + 1);
  }
  return c;
}

cn::NoiseModel line_model(int qubits, bool coherent_only) {
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < qubits; ++q) edges.emplace_back(q, q + 1);
  cn::NoiseModel m = cn::generate_calibration(qubits, edges, /*seed=*/2022);
  if (coherent_only) {
    m.toggles().decoherence = false;
    m.toggles().depolarizing = false;
    m.toggles().prep = false;
    m.toggles().readout = false;
  }
  return m;
}

/// Best-of-\p reps wall-clock of \p fn in seconds.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    charter::util::Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

struct SweepRow {
  double exact_ms = 0.0;
  std::size_t tape_ops_exact = 0;
};

std::vector<double> sweep(const cn::NoiseProgram& tape, int qubits,
                          int trajectories, std::uint64_t seed) {
  return cs::run_trajectories(
      qubits, trajectories, seed,
      [&](cs::NoisyEngine& engine) { tape.execute(engine); });
}

SweepRow bench_config(const char* name, const cn::NoiseModel& model,
                      const cc::Circuit& circuit, int trajectories, int reps,
                      std::uint64_t seed) {
  SweepRow row;
  const int qubits = circuit.num_qubits();
  const cn::NoiseProgram exact = cn::lower(model, circuit);
  row.tape_ops_exact = exact.size();
  row.exact_ms = 1e3 * best_seconds(
                           reps, [&] { sweep(exact, qubits, trajectories, seed); });
  std::fprintf(stderr, "note: %s — exact %.1f ms (%zu ops)\n", name,
               row.exact_ms, row.tape_ops_exact);
  return row;
}

void append_row(std::string& json, const char* name, const SweepRow& row) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"exact_ms\": %.3f, \"tape_ops_exact\": %zu},\n",
                name, row.exact_ms, row.tape_ops_exact);
  json += buf;
}

/// Process CPU time (user + system) in seconds.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

struct FanoutRow {
  int jobs = 0;
  int threads = 0;
  double wall_ms = 0.0;
  double cpu_util = 0.0;
  bool bit_identical = true;
};

/// One BatchRunner batch of \p num_jobs drifted trajectory jobs (the
/// original circuit plus reversed-pair insertions at spread-out gates).
FanoutRow bench_fanout(const std::string& algo, int num_jobs,
                       int trajectories, int threads) {
  const cb::FakeBackend backend = cb::FakeBackend::guadalupe(16);
  const cb::CompiledProgram program =
      backend.compile(charter::algos::find_benchmark(algo).build());
  const std::vector<std::size_t> eligible =
      charter::core::reversible_ops(program.physical, true);
  std::vector<cb::CompiledProgram> programs(
      static_cast<std::size_t>(num_jobs), program);
  std::vector<charter::exec::AnalysisJob> jobs;
  for (int k = 0; k < num_jobs; ++k) {
    cb::CompiledProgram& p = programs[static_cast<std::size_t>(k)];
    if (k > 0 && !eligible.empty())
      p.physical = charter::core::insert_reversed_pairs(
          program.physical,
          eligible[static_cast<std::size_t>(k) * eligible.size() /
                   static_cast<std::size_t>(num_jobs)],
          5, true);
    charter::exec::AnalysisJob job;
    job.program = &p;
    job.run.shots = 0;
    job.run.seed = 2022 + static_cast<std::uint64_t>(k);
    job.run.drift = 0.06;
    job.run.engine = cb::EngineKind::kTrajectory;
    job.run.trajectories = trajectories;
    jobs.push_back(job);
  }

  charter::exec::BatchOptions options;
  options.caching = false;
  options.threads = threads;
  const charter::exec::BatchRunner runner(backend, options);
  const double cpu0 = process_cpu_seconds();
  charter::util::Timer timer;
  const std::vector<std::vector<double>> got = runner.run(jobs);
  const double wall = timer.seconds();
  const double cpu = process_cpu_seconds() - cpu0;

  FanoutRow row;
  row.jobs = num_jobs;
  row.threads = threads;
  row.wall_ms = 1e3 * wall;
  row.cpu_util = wall > 0.0 ? cpu / (wall * threads) : 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const cb::LoweredRun lowered = backend.lower(*jobs[k].program, jobs[k].run);
    const cn::NoiseProgram tape =
        cn::NoisyExecutor(lowered.model).lower(lowered.local);
    const std::vector<double> expected = backend.finalize(
        cs::run_trajectories(
            lowered.local.num_qubits(), trajectories,
            jobs[k].run.seed ^ cb::kTrajectorySeedSalt,
            [&](cs::NoisyEngine& engine) { tape.execute(engine); }),
        lowered, *jobs[k].program, jobs[k].run);
    row.bit_identical =
        row.bit_identical && got[k].size() == expected.size() &&
        std::memcmp(got[k].data(), expected.data(),
                    expected.size() * sizeof(double)) == 0;
  }
  std::fprintf(stderr,
               "note: fanout — %s, %d jobs x %d trajectories on %d threads: "
               "%.1f ms, cpu_util %.2f, %s\n",
               algo.c_str(), num_jobs, trajectories, threads, row.wall_ms,
               row.cpu_util,
               row.bit_identical ? "bit-identical" : "MISMATCH");
  return row;
}

/// Deep 5-qubit workload for the adaptive row: CX ladders, T phases, and
/// RX rotations.  Its impact spectrum has one clearly dominant CX (TVD
/// ~0.11, nearly 1.5x its neighbor) over well-spread mid ranks and a
/// zero-impact RZ floor — the separation the sequential test needs to
/// settle a gate early without perturbing the ranking.
cc::Circuit deep_logical(int rounds) {
  cc::Circuit c(5);
  for (int q = 0; q < 5; ++q) c.h(q, cc::kFlagInputPrep);
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < 4; ++q) c.cx(q, q + 1);
    for (int q = 0; q < 5; ++q) c.t(q);
    c.cx(4, 3);
    for (int q = 0; q < 5; ++q) c.rx(q, 0.3 + 0.1 * q);
  }
  return c;
}

bool topk_match(const co::CharterReport& a, const co::CharterReport& b,
                std::size_t k) {
  const auto ra = a.sorted_by_impact();
  const auto rb = b.sorted_by_impact();
  if (ra.size() != rb.size()) return false;
  k = std::min(k, ra.size());
  for (std::size_t i = 0; i < k; ++i)
    if (ra[i].op_index != rb[i].op_index) return false;
  return true;
}

struct AdaptiveRow {
  std::size_t budgeted = 0;
  std::size_t executed = 0;
  std::size_t settled = 0;
  double savings_pct = 0.0;
  bool topk_ok = false;
};

/// The adaptive row is pinned to one workload shape in both modes: the
/// sequential test only settles when the sampled ranks are genuinely
/// separated, and rank preservation additionally needs the settled gate far
/// enough ahead that its less-averaged folded estimate (an early stop folds
/// fewer groups, which biases TVD up) cannot cross its neighbor.
/// deep_logical's dominant CX satisfies both; denser subsamples tie at the
/// bottom (two exactly-zero RZs never separate) or pack the spectrum
/// tighter than the CI half-widths.
AdaptiveRow bench_adaptive(int groups) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram program = backend.compile(deep_logical(2));

  co::CharterOptions fixed;
  fixed.reversals = 5;
  fixed.max_gates = 6;
  // Keep the virtual RZ gates in the sweep: their near-zero impact sits
  // far below the noisy gates', giving the sequential test real rank gaps
  // to separate — the regime where an adaptive budget pays.
  fixed.skip_rz = false;
  fixed.common_random_numbers = true;
  fixed.run.shots = 0;
  fixed.run.engine = cb::EngineKind::kTrajectory;
  fixed.run.trajectories = groups * cs::kTrajectoryGroupSize;
  fixed.run.seed = 7;
  fixed.exec.threads = 2;
  fixed.exec.caching = false;
  const co::CharterReport full =
      co::CharterAnalyzer(backend, fixed).analyze(program);

  co::CharterOptions adaptive = fixed;
  adaptive.budget = charter::exec::BudgetMode::kAdaptive;
  const co::CharterReport early =
      co::CharterAnalyzer(backend, adaptive).analyze(program);

  AdaptiveRow row;
  row.budgeted = early.exec_stats.trajectories_budgeted;
  row.executed = early.exec_stats.trajectories_executed;
  row.settled = early.exec_stats.gates_settled_early;
  row.savings_pct =
      row.budgeted > 0
          ? 100.0 * static_cast<double>(row.budgeted - row.executed) /
                static_cast<double>(row.budgeted)
          : 0.0;
  row.topk_ok = topk_match(full, early, 3);
  std::fprintf(stderr,
               "note: adaptive deep_logical — %zu/%zu trajectories (%.1f%% "
               "saved), %zu gates settled early, top-3 %s\n",
               row.executed, row.budgeted, row.savings_pct, row.settled,
               row.topk_ok ? "unchanged" : "CHANGED");
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  charter::util::Cli cli(
      "bench_trajectory_pipeline: exact-tape trajectory sweeps at "
      "statevector widths, plus thread-count determinism rows");
  cli.add_flag("qubits", std::int64_t{20}, "statevector width");
  cli.add_flag("trajectories", std::int64_t{8}, "unravellings per sweep");
  cli.add_flag("rounds", std::int64_t{6}, "workload rounds (depth scale)");
  cli.add_flag("reps", std::int64_t{3}, "timed repetitions (best-of)");
  cli.add_flag("smoke", false, "tiny sizes for CI");
  cli.add_flag("out", std::string("bench_results/trajectory_pipeline.json"),
               "JSON output path ('' = stdout only)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  const int qubits = smoke ? 10 : static_cast<int>(cli.get_int("qubits"));
  const int trajectories =
      smoke ? 4 : static_cast<int>(cli.get_int("trajectories"));
  const int rounds = smoke ? 4 : static_cast<int>(cli.get_int("rounds"));
  const int reps = smoke ? 2 : static_cast<int>(cli.get_int("reps"));
  const std::uint64_t seed = 2022;

  const cc::Circuit circuit = workload(qubits, rounds);
  const cn::NoiseModel coherent = line_model(qubits, /*coherent_only=*/true);
  const cn::NoiseModel full = line_model(qubits, /*coherent_only=*/false);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"trajectory\",\n";
  json += "  \"qubits\": " + std::to_string(qubits) + ",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += "  \"trajectories\": " + std::to_string(trajectories) + ",\n";
  json += "  \"circuit_ops\": " + std::to_string(circuit.size()) + ",\n";
  json += std::string("  \"simd_active\": \"") +
          simd::path_name(simd::active_path()) + "\",\n";
  json += "  \"simd_available\": \"" + simd::available_paths() + "\",\n";
  json += "  \"amp_parallel_min_qubits\": " +
          std::to_string(cs::amp_parallel_min_qubits()) + ",\n";

  const SweepRow coh =
      bench_config("coherent", coherent, circuit, trajectories, reps, seed);
  const SweepRow fn =
      bench_config("full_noise", full, circuit, trajectories, reps, seed);
  append_row(json, "coherent", coh);
  append_row(json, "full_noise", fn);

  // Thread-count determinism: the coherent sweep folded at 1/2/4 OpenMP
  // threads must be bit-identical (index-ordered group folds;
  // chunk-invariant amplitude sums in the parallel regime).
  const cn::NoiseProgram tape = cn::lower(coherent, circuit);
  json += "  \"threads\": [\n";
  std::vector<double> one_thread;
  bool threads_ok = true;
#ifdef _OPENMP
  const int max_omp = omp_get_max_threads();
#else
  const int max_omp = 1;
#endif
  bool first = true;
  for (int t = 1; t <= 4; t *= 2) {
#ifdef _OPENMP
    omp_set_num_threads(std::min(t, max_omp));
#else
    if (t > 1) break;
#endif
    const double ms = 1e3 * best_seconds(1, [&] {
                        sweep(tape, qubits, trajectories, seed);
                      });
    const std::vector<double> p = sweep(tape, qubits, trajectories, seed);
    if (t == 1) one_thread = p;
    const bool identical =
        p.size() == one_thread.size() &&
        std::memcmp(p.data(), one_thread.data(),
                    p.size() * sizeof(double)) == 0;
    threads_ok = threads_ok && identical;
    if (!first) json += ",\n";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"ms\": %.3f, "
                  "\"bit_identical_to_1_thread\": %s}",
                  t, ms, identical ? "true" : "false");
    json += buf;
  }
#ifdef _OPENMP
  omp_set_num_threads(max_omp);
#endif
  json += "\n  ],\n";

  const FanoutRow fan = bench_fanout(smoke ? "hlf10" : "tfim16", /*jobs=*/6,
                                     /*trajectories=*/8, /*threads=*/4);
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"fanout\": {\"jobs\": %d, \"trajectories\": 8, "
                  "\"threads\": %d, \"wall_ms\": %.3f, \"cpu_util\": %.3f, "
                  "\"bit_identical\": %s},\n",
                  fan.jobs, fan.threads, fan.wall_ms, fan.cpu_util,
                  fan.bit_identical ? "true" : "false");
    json += buf;
  }
  const AdaptiveRow adaptive = bench_adaptive(smoke ? 24 : 48);
  {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "  \"adaptive\": {\"family\": \"deep_logical\", "
        "\"trajectories_budgeted\": %zu, \"trajectories_executed\": %zu, "
        "\"gates_settled_early\": %zu, \"savings_pct\": %.2f, "
        "\"topk\": 3, \"topk_match\": %s}\n",
        adaptive.budgeted, adaptive.executed, adaptive.settled,
        adaptive.savings_pct, adaptive.topk_ok ? "true" : "false");
    json += buf;
  }
  json += "}\n";
  std::fputs(json.c_str(), stdout);
  charter::bench::write_output_file(cli.get_string("out"), json);

  if (!threads_ok) {
    std::fprintf(stderr,
                 "FAIL: thread count changed the folded distribution\n");
    return 1;
  }
  if (!fan.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: a fanout job differs from its run_trajectories "
                 "average\n");
    return 1;
  }
  if (adaptive.executed >= adaptive.budgeted || adaptive.settled == 0) {
    std::fprintf(stderr, "FAIL: adaptive budget saved nothing\n");
    return 1;
  }
  if (!adaptive.topk_ok) {
    std::fprintf(stderr, "FAIL: adaptive budget changed the top-3 ranking\n");
    return 1;
  }
  return 0;
}
