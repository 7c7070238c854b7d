#pragma once

/// \file probes.hpp
/// Isolated per-layer probes, run after a traced run's timed section on
/// the workload's own circuits.  Each probe times one public entry point
/// of a layer from outside (transpile, core reversal, noise lowering and
/// wide fusion, engine execution, one exec batch, TVD and ranking,
/// characterization) inside a span, and emits the per-layer metrics.

#include <functional>
#include <string>
#include <vector>

#include <charter/session.hpp>

#include "backend/backend.hpp"
#include "circuit/circuit.hpp"
#include "common.hpp"

namespace perfbench {

struct ProbeCircuit {
  std::string key;
  const charter::backend::FakeBackend* backend = nullptr;
  std::function<charter::circ::Circuit()> build;  ///< the logical circuit
  charter::backend::RunOptions run;  ///< shots, seed, drift, trajectories
  int cap = 0;                       ///< analyzed-gate cap (0 = all)
};

/// Emits transpile.compile_ms, core.reverse_ms, stats.tvd_rank_ms,
/// noise.lower_ms, noise.tape_ops, noise.fuse_ms, noise.fused_tape_ops,
/// sim.run_ms, sim.amp_updates, sim.gamp_per_s, sim.bytes_moved_gb and
/// exec.batch_ms.  Times are means per probed circuit.
void run_layer_probes(const std::vector<ProbeCircuit>& circuits, int reversals,
                      Outcome& outcome);

/// Times Session::characterize of the top \p top_k gates of \p report (a
/// finished analysis of \p program) inside a "characterize.run" span, and
/// checks the result structurally and against \p reference under \p key.
/// Returns milliseconds.
double characterize_timed(charter::Session& session,
                          const charter::backend::CompiledProgram& program,
                          const charter::core::CharterReport& report,
                          int top_k, const std::string& key,
                          Reference& reference, Outcome& outcome);

}  // namespace perfbench
