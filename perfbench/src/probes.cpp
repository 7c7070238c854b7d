#include "probes.hpp"

#include <algorithm>
#include <cmath>

#include "core/analyzer.hpp"
#include "core/reversal.hpp"
#include "exec/batch.hpp"
#include "noise/program.hpp"
#include "sim/density_matrix.hpp"
#include "sim/trajectory.hpp"
#include "stats/stats.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

namespace cb = charter::backend;
namespace cn = charter::noise;

namespace {

/// Times \p fn inside a span named \p name; returns milliseconds.
template <typename Fn>
double timed_ms(const char* name, Fn&& fn) {
  const Span span(name);
  const double t0 = now_s();
  fn();
  return (now_s() - t0) * 1e3;
}

}  // namespace

void run_layer_probes(const std::vector<ProbeCircuit>& circuits, int reversals,
                      Outcome& o) {
  double compile_ms = 0, reverse_ms = 0, tvd_ms = 0, lower_ms = 0,
         fuse_ms = 0, sim_ms = 0, batch_ms = 0;
  double tape_ops = 0, fused_ops = 0, amp_updates = 0;
  std::uint64_t request = 1u << 20;
  for (const ProbeCircuit& pc : circuits) {
    const Span circuit_span("probe.circuit", ++request);
    const cb::FakeBackend& be = *pc.backend;
    const charter::circ::Circuit logical = pc.build();
    const double c0 = now_s();
    const cb::CompiledProgram program = [&] {
      const Span s("transpile.compile");
      return be.compile(logical);
    }();
    compile_ms += (now_s() - c0) * 1e3;

    // core: the reversed circuits the analyzer would build.
    const std::vector<std::size_t> chosen = charter::core::subsample_evenly(
        charter::core::reversible_ops(program.physical, true), pc.cap);
    reverse_ms += timed_ms("core.reverse", [&] {
      for (const std::size_t op : chosen)
        charter::core::insert_reversed_pairs(program.physical, op, reversals,
                                             true);
    });

    // noise: lowering to the exact tape and wide fusion.
    const double l0 = now_s();
    auto lowered_tape = [&] {
      const Span s("noise.lower");
      cb::LoweredRun lr = be.lower(program, pc.run);
      cn::NoiseProgram t = cn::lower(lr.model, lr.local);
      return std::make_pair(std::move(lr), std::move(t));
    }();
    lower_ms += (now_s() - l0) * 1e3;
    const cb::LoweredRun& lowered = lowered_tape.first;
    const cn::NoiseProgram& tape = lowered_tape.second;
    const double f0 = now_s();
    const cn::NoiseProgram fused = [&] {
      const Span s("noise.fuse");
      return cn::fused_wide(tape);
    }();
    fuse_ms += (now_s() - f0) * 1e3;
    tape_ops += static_cast<double>(tape.size());
    fused_ops += static_cast<double>(fused.size());

    // sim: one execution of the engine the run resolves to — the exact
    // tape on a density matrix (every op touches all 4^n entries), or the
    // fused tape over the trajectory budget (2^n amplitudes per op).
    const int n = lowered.local.num_qubits();
    std::vector<double> probs;
    if (cb::resolve_engine(pc.run, n) == cb::EngineKind::kDensityMatrix) {
      sim_ms += timed_ms("sim.run", [&] {
        charter::sim::DensityMatrixEngine engine(n);
        tape.execute(engine);
        probs = engine.probabilities();
      });
      amp_updates += static_cast<double>(tape.size()) * std::ldexp(1.0, 2 * n);
    } else {
      sim_ms += timed_ms("sim.run", [&] {
        probs = charter::sim::run_trajectories(
            n, pc.run.trajectories, pc.run.seed,
            [&](charter::sim::NoisyEngine& e) { fused.execute(e); });
      });
      amp_updates += static_cast<double>(pc.run.trajectories) *
                     static_cast<double>(fused.size()) * std::ldexp(1.0, n);
    }

    // exec: one batch of the original plus the first reversed circuit.
    cb::CompiledProgram rev = program;
    if (!chosen.empty())
      rev.physical = charter::core::insert_reversed_pairs(
          program.physical, chosen.front(), reversals, true);
    std::vector<std::vector<double>> dists;
    batch_ms += timed_ms("exec.batch", [&] {
      charter::exec::BatchOptions bo;
      bo.caching = false;  // a probe must measure the run, not the cache
      const charter::exec::BatchRunner runner(be, bo);
      dists = runner.run({{&program, pc.run, program.physical.size()},
                          {&rev, pc.run, chosen.empty() ? 0 : chosen.front() + 1}},
                         &program);
    });

    // stats: one TVD per analyzed gate plus the ranking, as the analyzer
    // scores a sweep.
    tvd_ms += timed_ms("stats.tvd_rank", [&] {
      std::vector<double> scores;
      for (std::size_t k = 0; k < chosen.size(); ++k)
        scores.push_back(charter::stats::tvd(dists[0], dists[1]));
      if (charter::stats::rank_descending(scores).size() != chosen.size())
        o.fail("rank_descending lost entries for " + pc.key);
    });
  }
  const double n = circuits.empty() ? 1.0 : static_cast<double>(circuits.size());
  o.layer("transpile.compile_ms", compile_ms / n, "ms");
  o.layer("core.reverse_ms", reverse_ms / n, "ms");
  o.layer("stats.tvd_rank_ms", tvd_ms / n, "ms");
  o.layer("noise.lower_ms", lower_ms / n, "ms");
  o.layer("noise.tape_ops", tape_ops / n, "ops");
  o.layer("noise.fuse_ms", fuse_ms / n, "ms");
  o.layer("noise.fused_tape_ops", fused_ops / n, "ops");
  o.layer("sim.run_ms", sim_ms / n, "ms");
  o.layer("sim.amp_updates", amp_updates, "count");
  o.layer("sim.gamp_per_s", sim_ms > 0 ? amp_updates / (sim_ms * 1e-3) / 1e9 : 0,
          "Gamp/s");
  // Computed, not measured: one read and one write of a 16-byte complex
  // amplitude per update.
  o.layer("sim.bytes_moved_gb", amp_updates * 32.0 / 1e9, "GB_computed");
  o.layer("exec.batch_ms", batch_ms / n, "ms");
}

double characterize_timed(charter::Session& session,
                          const cb::CompiledProgram& program,
                          const charter::core::CharterReport& report,
                          int top_k, const std::string& key,
                          Reference& reference, Outcome& o) {
  charter::characterize::CharacterizationReport result;
  const double ms = timed_ms("characterize.run", [&] {
    result = session.characterize(program, report, top_k);
  });
  o.attempt();
  const std::string problem = check_characterization(
      result, std::min<std::size_t>(static_cast<std::size_t>(top_k),
                                    report.analyzed_gates));
  if (!problem.empty()) {
    o.fail("characterize " + key + ": " + problem);
  } else {
    const auto [ops, values] = characterization_signature(result);
    reference.check("characterize/" + key, ops, values, o);
  }
  return ms;
}

}  // namespace perfbench
