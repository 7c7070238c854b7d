#pragma once

/// \file paper.hpp
/// The paper workloads: Table III quick sweeps at r=5 through Session,
/// over the density-matrix circuits (paper_dm) or tfim16 on the
/// trajectory engine (paper_traj).

#include "common.hpp"

namespace perfbench {

void run_paper(const Options& options, bool trajectory_workload,
               Outcome& outcome);

}  // namespace perfbench
