#pragma once

/// \file charter/exec.hpp
/// Public module header: the batched execution layer (namespace
/// charter::exec) — BatchRunner, run caching, the trajectory budget policy
/// (BudgetMode, the adaptive sweep), and the per-run stats carried by every
/// CharterReport.  Most callers never touch this directly; charter::Session
/// drives it and reports the outcome in CharterReport::exec_stats.  Every
/// sweep follows one execution rule: the density-matrix engine up to
/// sim::DensityMatrixEngine::kMaxQubits compacted qubits, trajectories
/// above, on the exact noise tape.

#include "exec/adaptive.hpp"
#include "exec/batch.hpp"
#include "exec/cache.hpp"

namespace charter::exec {

/// The execution diagnostics every CharterReport carries
/// (CharterReport::exec_stats): cache-tier hits, checkpoint vs full runs,
/// the jobs each execution path ran (ExecStats::strategy_jobs), and
/// adaptive early-termination savings (trajectories_executed vs
/// trajectories_budgeted).
using ExecStats = BatchRunner::Stats;

}  // namespace charter::exec
