#include <algorithm>
#include <cmath>
#include <mutex>

#include "characterize/characterize.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace charter::characterize {

using backend::CompiledProgram;

namespace {

/// Same per-circuit seed derivation as the analyzer: mixes the base seed
/// with a circuit tag.  Tag 0 is the original run; germ sequences tag by
/// (gate, depth); fiducials use fixed tags outside the sequence range.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t tag) {
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * (tag + 1));
  return util::splitmix64(s);
}

constexpr std::uint64_t kPrepFiducialTag = 0x5A1D'0001ULL;
constexpr std::uint64_t kFlipFiducialTag = 0x5A1D'0002ULL;
constexpr std::uint64_t kBootstrapSalt = 0x6B00'75A9ULL;

/// Seed tag for the germ sequence of gate \p op_index at ladder position
/// \p depth_index — disjoint from the analyzer's op_index + 1 tags is not
/// required (different sweep), only uniqueness within one characterization.
std::uint64_t sequence_tag(std::size_t op_index, std::size_t depth_index) {
  return (static_cast<std::uint64_t>(op_index) + 1) * 64 + depth_index + 1;
}

/// Field-by-field stats accumulation (see analyzer.cpp: Stats has no
/// operator+= by design).
void accumulate_stats(exec::BatchRunner::Stats& total,
                      const exec::BatchRunner::Stats& s) {
  total.jobs += s.jobs;
  total.cache_hits += s.cache_hits;
  total.cache_memory_hits += s.cache_memory_hits;
  total.cache_disk_hits += s.cache_disk_hits;
  total.checkpointed += s.checkpointed;
  total.trajectory_checkpointed += s.trajectory_checkpointed;
  total.full_runs += s.full_runs;
  total.checkpoint_fallbacks += s.checkpoint_fallbacks;
  total.strategy_jobs.dm_exact += s.strategy_jobs.dm_exact;
  total.strategy_jobs.trajectory += s.strategy_jobs.trajectory;
  total.strategy_jobs.checkpoint_splice += s.strategy_jobs.checkpoint_splice;
  total.trajectories_budgeted += s.trajectories_budgeted;
  total.trajectories_executed += s.trajectories_executed;
  total.gates_settled_early += s.gates_settled_early;
}

/// Monotone progress bridge spanning every batch of one characterization
/// (same contract as the analyzer's relay).
class ProgressRelay {
 public:
  ProgressRelay(const core::AnalysisHooks* hooks, std::size_t total_runs)
      : hooks_(hooks), total_runs_(total_runs) {
    if (hooks_ == nullptr) return;
    if (hooks_->on_progress) {
      run_hooks_.on_job_complete = [this](std::size_t) {
        const std::lock_guard<std::mutex> lock(mu_);
        ++completed_;
        hooks_->on_progress(completed_, total_runs_);
      };
    }
    run_hooks_.cancel = hooks_->cancel;
  }

  const exec::RunHooks* run_hooks() const {
    return hooks_ != nullptr ? &run_hooks_ : nullptr;
  }

 private:
  const core::AnalysisHooks* hooks_;
  const std::size_t total_runs_;
  exec::RunHooks run_hooks_;
  std::mutex mu_;
  std::size_t completed_ = 0;
};

/// Marginal probability that logical qubit \p q reads 1.
double marginal_one(const std::vector<double>& dist, int q) {
  double acc = 0.0;
  for (std::size_t idx = 0; idx < dist.size(); ++idx)
    if (idx & (std::size_t{1} << q)) acc += dist[idx];
  return acc;
}

}  // namespace

std::vector<std::size_t> CharacterizationReport::severity_ranking() const {
  std::vector<double> severities;
  severities.reserve(gates.size());
  for (const GateCharacterization& g : gates) severities.push_back(g.severity);
  return stats::rank_descending(severities);
}

GateCharacterizer::GateCharacterizer(const backend::Backend& backend,
                                     CharacterizeOptions options)
    : backend_(backend), options_(std::move(options)) {
  require(options_.top_k >= 1, "top_k must be >= 1");
  require(options_.severity_reversals >= 1,
          "severity_reversals must be >= 1");
  require(options_.bootstrap_resamples >= 0,
          "bootstrap_resamples must be >= 0");
  require(options_.confidence > 0.0 && options_.confidence < 1.0,
          "confidence must be in (0,1)");
  // Depth validation happens in the GermScheduler; constructing one here
  // surfaces a bad ladder at configuration time rather than mid-sweep.
  GermScheduler(options_.depths, options_.isolate);
}

CharacterizationReport GateCharacterizer::characterize(
    const CompiledProgram& program, const core::CharterReport& report,
    const core::AnalysisHooks* hooks) const {
  const circ::Circuit& c = program.physical;
  require(!report.impacts.empty(),
          "characterization needs a Charter report with analyzed gates");

  const GermScheduler scheduler(options_.depths, options_.isolate);
  const std::vector<core::GateImpact> ranked = report.sorted_by_impact();
  const std::size_t k =
      std::min(static_cast<std::size_t>(options_.top_k), ranked.size());
  for (std::size_t g = 0; g < k; ++g) {
    require(ranked[g].op_index < c.size(),
            "Charter report does not match the program (op index out of "
            "range)");
    require(c.op(ranked[g].op_index).kind == ranked[g].kind,
            "Charter report does not match the program (gate kind "
            "mismatch)");
  }

  CharacterizationReport out;
  out.depths = scheduler.depths();
  out.severity_reversals = options_.severity_reversals;

  // One execution rule for the whole characterization, as in the
  // analyzer; every depth of a decay curve runs its full trajectory budget
  // or the fit would see a moving target.
  const backend::RunOptions family_run = backend::pin_engine(
      options_.run, static_cast<int>(backend::used_qubits(program).size()));

  backend::RunOptions orig_run = family_run;
  orig_run.seed = derive_seed(options_.run.seed, 0);
  const auto sequence_run = [&](std::uint64_t tag) {
    backend::RunOptions run = family_run;
    run.seed = options_.common_random_numbers
                   ? orig_run.seed
                   : derive_seed(options_.run.seed, tag);
    return run;
  };

  const exec::BatchRunner runner(backend_, options_.exec);
  exec::BatchRunner::Stats total_stats;
  ProgressRelay relay(hooks, 1 + 2 + k * scheduler.depths().size());

  // 1. The original program: the reference every decay point is measured
  // against.
  {
    const std::vector<std::vector<double>> dists = runner.run(
        {{&program, orig_run, c.size()}}, &program, relay.run_hooks());
    accumulate_stats(total_stats, runner.last_stats());
    out.original_distribution = dists[0];
  }

  // 2. SPAM fiducials: the empty circuit bounds p(read 1 | prepared 0),
  // the all-X circuit bounds p(read 0 | prepared 1).  They are reported
  // per gate as context; the decay fit is SPAM-robust by construction and
  // never consumes them.
  std::vector<double> spam_p01(static_cast<std::size_t>(program.num_logical),
                               0.0);
  std::vector<double> spam_p10(static_cast<std::size_t>(program.num_logical),
                               0.0);
  {
    CompiledProgram prep = program;
    prep.physical = circ::Circuit(c.num_qubits());
    CompiledProgram flip = program;
    flip.physical = circ::Circuit(c.num_qubits());
    for (const int phys : program.final_layout)
      flip.physical.x(phys);
    const std::vector<std::vector<double>> dists = runner.run(
        {{&prep, sequence_run(kPrepFiducialTag), 0},
         {&flip, sequence_run(kFlipFiducialTag), 0}},
        nullptr, relay.run_hooks());
    accumulate_stats(total_stats, runner.last_stats());
    for (int q = 0; q < program.num_logical; ++q) {
      spam_p01[static_cast<std::size_t>(q)] = marginal_one(dists[0], q);
      spam_p10[static_cast<std::size_t>(q)] =
          1.0 - marginal_one(dists[1], q);
    }
  }

  // 3. Germ ladders, one checkpoint-sharing batch per gate: the deepest
  // sequence is the base; every shallower depth resumes from its prefix
  // snapshots.
  std::vector<std::vector<DecayPoint>> curves(k);
  for (std::size_t g = 0; g < k; ++g) {
    const GermLadder ladder = scheduler.ladder(program, ranked[g].op_index);
    std::vector<exec::AnalysisJob> jobs;
    jobs.reserve(ladder.sequences.size());
    for (std::size_t d = 0; d < ladder.sequences.size(); ++d)
      jobs.push_back({&ladder.sequences[d].program,
                      sequence_run(sequence_tag(ladder.op_index, d)),
                      ladder.sequences[d].shared_prefix});
    const std::vector<std::vector<double>> dists = runner.run(
        jobs, &ladder.sequences.back().program, relay.run_hooks());
    accumulate_stats(total_stats, runner.last_stats());
    curves[g].reserve(dists.size());
    for (std::size_t d = 0; d < dists.size(); ++d)
      curves[g].push_back(
          {ladder.sequences[d].depth,
           stats::tvd(out.original_distribution, dists[d])});
    out.total_sequences += dists.size();
  }

  // 4. Estimation, serial in rank order — a pure function of the measured
  // curves, so thread/worker counts cannot touch it.
  for (std::size_t g = 0; g < k; ++g) {
    const core::GateImpact& impact = ranked[g];
    GateCharacterization gc;
    gc.op_index = impact.op_index;
    gc.kind = impact.kind;
    gc.qubits = impact.qubits;
    gc.num_qubits = impact.num_qubits;
    gc.charter_tvd = impact.tvd;
    gc.decay = curves[g];

    const ChannelEstimator estimator(
        options_.bootstrap_resamples, options_.confidence,
        derive_seed(options_.run.seed,
                    kBootstrapSalt ^ (impact.op_index + 1)));
    gc.fit = estimator.fit(gc.decay);
    gc.severity = ChannelEstimator::predict(
        gc.fit, static_cast<double>(options_.severity_reversals));
    gc.ci = estimator.bootstrap(gc.decay, gc.fit,
                                options_.severity_reversals);

    // SPAM context: average the fiducial marginals over the gate's
    // measured (logical) qubits; a qubit outside the layout contributes
    // nothing.
    double p01 = 0.0, p10 = 0.0;
    int measured = 0;
    for (int i = 0; i < gc.num_qubits; ++i) {
      const int phys = gc.qubits[static_cast<std::size_t>(i)];
      for (int q = 0; q < program.num_logical; ++q) {
        if (program.final_layout[static_cast<std::size_t>(q)] != phys)
          continue;
        p01 += spam_p01[static_cast<std::size_t>(q)];
        p10 += spam_p10[static_cast<std::size_t>(q)];
        ++measured;
        break;
      }
    }
    if (measured > 0) {
      gc.spam_p01 = p01 / measured;
      gc.spam_p10 = p10 / measured;
    }
    out.gates.push_back(std::move(gc));
  }

  // 5. Cross-validation: does the fitted severity ordering agree with the
  // Charter reversibility ranking on this set?
  {
    std::vector<double> severities, charter_scores;
    severities.reserve(out.gates.size());
    charter_scores.reserve(out.gates.size());
    for (const GateCharacterization& gc : out.gates) {
      severities.push_back(gc.severity);
      charter_scores.push_back(gc.charter_tvd);
    }
    out.rank_agreement = stats::spearman(severities, charter_scores).r;
  }

  out.exec_stats = total_stats;
  return out;
}

}  // namespace charter::characterize
