// Benchmark of the hot simulation kernels and the NoiseProgram tape
// pipeline, now with per-ISA rows for the SIMD dispatch layer:
//
//  1. simd[]: for each of the dense kernels (1q unitary, fused 1q pair,
//     CX pair, diagonal run) the scalar path is timed against the
//     process-active path (best available by default; a CHARTER_SIMD pin
//     is honored so CI's per-path legs record honest rows) on the same
//     vec(rho)-sized state, the speedup is reported, and scalar/SIMD
//     agreement <= 1e-12 is *asserted* — every bench run doubles as an
//     equivalence check on real workload shapes.
//  2. The fused pair kernels vs. the sequential two-pass forms they
//     replaced, and one diag_run pass over a static-ZZ flush run vs. one
//     pass per tape op (on the active path; the two must be bit-identical).
//  3. Exact-tape end-to-end execution on the density-matrix engine.
//
// Emits JSON (like bench_exec_batching) so the perf trajectory can be
// tracked across commits; CI uploads the --smoke output as the
// BENCH_kernels.json artifact and tools/check_bench_trend.py validates the
// metric keys.
//
// Usage: bench_sim_kernels [--qubits N] [--rounds N] [--reps N] [--smoke]
//                          [--out PATH]

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "math/simd.hpp"
#include "math/simd_dispatch.hpp"
#include "noise/calibration.hpp"
#include "noise/program.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cc = charter::circ;
namespace cn = charter::noise;
namespace cs = charter::sim;
namespace simd = charter::math::simd;
using charter::math::cplx;
using charter::math::Mat2;

namespace {

/// Transpiled-shape workload: u3-style RZ-SX-RZ-SX-RZ runs interleaved with
/// CX ladders — the gate mix the analyzer's reversed circuits execute.
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

cn::NoiseModel line_model(int qubits) {
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < qubits; ++q) edges.emplace_back(q, q + 1);
  return cn::generate_calibration(qubits, edges, /*seed=*/2022);
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

double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

std::vector<cplx> random_state(std::uint64_t dim, std::uint64_t seed) {
  charter::util::Rng rng(seed);
  std::vector<cplx> a(dim);
  double norm = 0.0;
  for (cplx& v : a) {
    v = cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    norm += std::norm(v);
  }
  const double inv = 1.0 / std::sqrt(norm);
  for (cplx& v : a) v *= inv;
  return a;
}

/// One scalar-vs-best row: times `rounds` applications of \p kernel per rep
/// on each path, asserts <= 1e-12 single-application agreement, and appends
/// the JSON row.  Returns the speedup (or exits on divergence).
struct RowResult {
  double scalar_ms = 0.0;
  double best_ms = 0.0;
  double speedup = 0.0;
  double diff = 0.0;
};

template <typename Kernel>
RowResult bench_kernel_row(std::string& json, bool& first_row,
                           simd::SimdPath best, const char* name,
                           const std::vector<cplx>& input, int rounds,
                           int reps, Kernel&& kernel) {
  RowResult row;

  // Agreement: one application per path from the identical input.
  std::vector<cplx> scalar_out = input;
  simd::set_path(simd::SimdPath::kScalar);
  kernel(scalar_out.data());
  std::vector<cplx> best_out = input;
  simd::set_path(best);
  kernel(best_out.data());
  row.diff = max_abs_diff(scalar_out, best_out);

  // Timings: `rounds` applications per rep, best-of-`reps`.
  std::vector<cplx> state = input;
  simd::set_path(simd::SimdPath::kScalar);
  row.scalar_ms = 1e3 * best_seconds(reps, [&] {
                    for (int r = 0; r < rounds; ++r) kernel(state.data());
                  });
  state = input;
  simd::set_path(best);
  row.best_ms = 1e3 * best_seconds(reps, [&] {
                  for (int r = 0; r < rounds; ++r) kernel(state.data());
                });
  row.speedup = row.best_ms > 0.0 ? row.scalar_ms / row.best_ms : 0.0;

  if (!first_row) json += ",\n";
  first_row = false;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"kernel\": \"%s\", \"scalar_ms\": %.4f, "
                "\"best_ms\": %.4f, \"speedup\": %.3f, "
                "\"max_abs_diff\": %.3e}",
                name, row.scalar_ms, row.best_ms, row.speedup, row.diff);
  json += buf;

  if (!(row.diff <= 1e-12)) {
    std::fprintf(stderr, "FAIL: %s scalar/%s diverged (%.3e > 1e-12)\n",
                 name, simd::path_name(best), row.diff);
    std::exit(1);
  }
  return row;
}

/// The vec(rho) factors of a static-ZZ flush on an n-qubit density matrix:
/// ZZ phases on pairs (0,1), (1,2), (2,3) (wrapped to the width) and RZ on
/// qubit 0, each as a row factor followed by its conjugated column factor.
std::vector<simd::DiagFactor> flush_run(int n, cplx ph0, cplx ph1) {
  const cplx zz0 = std::exp(cplx(0.0, -0.02));
  const cplx zz1 = std::exp(cplx(0.0, 0.02));
  const std::array<cplx, 4> zz = {zz0, zz1, zz1, zz0};
  const std::array<cplx, 4> rz = {ph0, ph1, cplx(0.0), cplx(0.0)};
  std::vector<simd::DiagFactor> f;
  const auto add = [&](const std::array<cplx, 4>& d, int qa, int qb) {
    std::array<cplx, 4> dc;
    for (std::size_t k = 0; k < 4; ++k) dc[k] = std::conj(d[k]);
    const auto mask = [](int q) { return q < 0 ? 0 : 1ULL << q; };
    f.push_back({mask(qa), mask(qb), d});
    f.push_back({mask(qa + n), qb < 0 ? 0 : mask(qb + n), dc});
  };
  for (int e = 0; e < 3; ++e) add(zz, e % n, (e + 1) % n);
  add(rz, 0, -1);
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  charter::util::Cli cli(
      "bench_sim_kernels: per-ISA kernel rows, pair kernels, and "
      "exact tape execution");
  cli.add_flag("qubits", std::int64_t{8}, "density-matrix width");
  cli.add_flag("rounds", std::int64_t{12}, "workload rounds (depth scale)");
  cli.add_flag("reps", std::int64_t{5}, "timed repetitions (best-of)");
  cli.add_flag("smoke", false, "tiny sizes for CI; asserts agreement bound");
  cli.add_flag("out", std::string("bench_results/sim_kernels.json"),
               "JSON output path ('' = stdout only)");
  if (!cli.parse(argc, argv)) return 1;

  const bool smoke = cli.get_bool("smoke");
  const int qubits = smoke ? 5 : static_cast<int>(cli.get_int("qubits"));
  const int rounds = smoke ? 4 : static_cast<int>(cli.get_int("rounds"));
  const int reps = smoke ? 2 : static_cast<int>(cli.get_int("reps"));

  // Compare scalar against the *process-active* path, not the widest one:
  // a CHARTER_SIMD-pinned CI leg must benchmark (and record) the path it
  // was pinned to, so every dispatch path gets honest trend rows.
  const simd::SimdPath original_path = simd::active_path();
  const simd::SimdPath best = original_path;

  // ---- per-ISA kernel rows: scalar vs best-available ---------------------
  // All rows run on a vec(rho)-sized state (2*qubits pseudo-qubits) at the
  // qubit positions the density-matrix pair kernels actually use.
  const int pseudo_qubits = 2 * qubits;
  const std::uint64_t dim = 1ULL << pseudo_qubits;
  const std::vector<cplx> input = random_state(dim, /*seed=*/2022);
  const int qa = qubits / 2;
  const int qb = qubits / 2 + qubits;
  const Mat2 u = cc::gate_unitary_1q(cc::make_gate(cc::GateKind::SX, {0}));
  Mat2 v;
  for (std::size_t k = 0; k < 4; ++k) v.m[k] = std::conj(u.m[k]);
  const cplx ph0 = std::exp(cplx(0.0, -0.4));
  const cplx ph1 = std::exp(cplx(0.0, 0.4));
  const int kernel_rounds = smoke ? 4 : 16;

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"sim_kernels\",\n";
  json += "  \"qubits\": " + std::to_string(qubits) + ",\n";
  json += std::string("  \"simd_active\": \"") + simd::path_name(best) +
          "\",\n";
  json += "  \"simd_available\": \"" + simd::available_paths() + "\",\n";
  json += "  \"simd\": [\n";

  bool first_row = true;
  const RowResult r_1q = bench_kernel_row(
      json, first_row, best, "unitary_1q", input, kernel_rounds, reps,
      [&](cplx* a) { cs::kernels::apply_1q(a, dim, qa, u); });
  const RowResult r_pair = bench_kernel_row(
      json, first_row, best, "unitary_1q_pair", input, kernel_rounds, reps,
      [&](cplx* a) { cs::kernels::apply_1q_pair(a, dim, qa, u, qb, v); });
  const RowResult r_cx = bench_kernel_row(
      json, first_row, best, "cx_pair", input, kernel_rounds, reps, [&](cplx* a) {
        cs::kernels::apply_cx_pair(a, dim, qa, qa + 1, qb, qb + 1);
      });
  // A static-ZZ flush as the tape lowers it: three ZZ phases on adjacent
  // pairs and one RZ, each a row factor plus a conjugated column factor.
  const std::vector<simd::DiagFactor> flush = flush_run(qubits, ph0, ph1);
  const RowResult r_diag = bench_kernel_row(
      json, first_row, best, "diag_run", input, kernel_rounds, reps,
      [&](cplx* a) {
        cs::kernels::diag_run(a, dim, flush.data(), flush.size());
      });
  json += "\n  ],\n";
  (void)r_1q;

  // ---- raw kernel micro-benchmark: one fused pass vs. two passes --------
  // (on the best-available path, which stays active from here on)
  simd::set_path(best);
  std::vector<cplx> state(dim, cplx(0.0));
  state[0] = 1.0;
  const double two_pass_s = best_seconds(reps, [&] {
    cs::kernels::apply_1q(state.data(), dim, qa, u);
    cs::kernels::apply_1q(state.data(), dim, qb, v);
  });
  const double pair_s = best_seconds(reps, [&] {
    cs::kernels::apply_1q_pair(state.data(), dim, qa, u, qb, v);
  });

  // ---- the same flush run: one diag_run pass vs. one pass per tape op ---
  std::vector<cplx> per_op = input;
  const double diag_per_op_s = best_seconds(reps, [&] {
    for (std::size_t k = 0; k < flush.size(); k += 2)
      cs::kernels::diag_run(per_op.data(), dim, flush.data() + k, 2);
  });
  std::vector<cplx> one_pass = input;
  const double diag_run_s = best_seconds(reps, [&] {
    cs::kernels::diag_run(one_pass.data(), dim, flush.data(), flush.size());
  });
  if (per_op != one_pass) {
    std::fprintf(stderr, "FAIL: diag_run differs from per-op passes\n");
    return 1;
  }

  // ---- tape pipeline: exact tape end-to-end ------------------------------
  const cn::NoiseModel model = line_model(qubits);
  const cc::Circuit circuit = workload(qubits, rounds);
  const cn::NoiseProgram exact = cn::lower(model, circuit);

  cs::DensityMatrixEngine engine(qubits);
  const double exact_s = best_seconds(reps, [&] { exact.execute(engine); });

  const double pair_speedup = pair_s > 0.0 ? two_pass_s / pair_s : 0.0;
  const double diag_run_speedup =
      diag_run_s > 0.0 ? diag_per_op_s / diag_run_s : 0.0;

  char tail[1024];
  std::snprintf(tail, sizeof(tail),
                "  \"circuit_ops\": %zu,\n"
                "  \"tape_ops_exact\": %zu,\n"
                "  \"kernel_two_pass_ms\": %.4f,\n"
                "  \"kernel_pair_ms\": %.4f,\n"
                "  \"kernel_pair_speedup\": %.3f,\n"
                "  \"kernel_diag_per_op_ms\": %.4f,\n"
                "  \"kernel_diag_run_ms\": %.4f,\n"
                "  \"diag_run_speedup\": %.3f,\n"
                "  \"tape_exact_ms\": %.3f\n"
                "}\n",
                circuit.size(), exact.size(), two_pass_s * 1e3, pair_s * 1e3,
                pair_speedup, diag_per_op_s * 1e3, diag_run_s * 1e3,
                diag_run_speedup, exact_s * 1e3);
  json += tail;
  std::fputs(json.c_str(), stdout);

  charter::bench::write_output_file(cli.get_string("out"), json);
  simd::set_path(original_path);

  std::fprintf(stderr,
               "note: best-vs-scalar speedups — unitary_1q_pair %.2fx, "
               "cx_pair %.2fx, diag_run %.2fx (path %s); diag_run vs "
               "per-op passes %.2fx\n",
               r_pair.speedup, r_cx.speedup, r_diag.speedup,
               simd::path_name(best), diag_run_speedup);
  return 0;
}
