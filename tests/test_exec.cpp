// Tests for the batched execution subsystem: prefix-state checkpointing is
// bit-identical to naive per-gate runs, the run cache returns identical
// results on hits, non-exact configurations fall back to independent full
// runs, engine clone/save/load round-trips, the checkpoint memory budget
// degrades to replay instead of wrong answers, trajectory jobs resume from
// RNG-carrying engine clones, shards partition by checkpoint segment, the
// striped cache survives concurrent hammering, the adaptive trajectory sweep
// (full-budget bit-equality, early termination with rank preservation,
// pool-width determinism, job validation), and — the parallel driver's
// headline contract — full CharterReports are bit-identical at every worker
// pool width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "algos/algorithms.hpp"
#include "backend/backend.hpp"
#include "core/analyzer.hpp"
#include "core/reversal.hpp"
#include "exec/adaptive.hpp"
#include "exec/batch.hpp"
#include "exec/cache.hpp"
#include "exec/checkpoint.hpp"
#include "exec/sharding.hpp"
#include "exec/trajectory_plan.hpp"
#include "noise/executor.hpp"
#include "sim/density_matrix.hpp"
#include "sim/trajectory.hpp"
#include "stats/stats.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cb = charter::backend;
namespace cc = charter::circ;
namespace cn = charter::noise;
namespace co = charter::core;
namespace cs = charter::sim;
namespace cu = charter::util;
namespace ex = charter::exec;
using cc::GateKind;

namespace {

/// A 5-qubit logical program with an input-prep region and enough depth to
/// compile to a few dozen basis gates.
cc::Circuit deep_logical(int rounds = 3) {
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

cb::CompiledProgram compiled_program(const cb::FakeBackend& backend,
                                     int rounds = 3) {
  return backend.compile(deep_logical(rounds));
}

/// Per-gate jobs mirroring what the analyzer submits (without going through
/// it), so BatchRunner behavior can be asserted directly.
struct JobSet {
  std::vector<cb::CompiledProgram> reversed;
  std::vector<ex::AnalysisJob> jobs;
};

JobSet make_jobs(const cb::CompiledProgram& program,
                 const std::vector<std::size_t>& gates,
                 const cb::RunOptions& run, int reversals = 2,
                 bool common_seed = false) {
  JobSet set;
  set.reversed.reserve(gates.size());
  for (const std::size_t g : gates) {
    cb::CompiledProgram rev = program;
    rev.physical =
        co::insert_reversed_pairs(program.physical, g, reversals, true);
    set.reversed.push_back(std::move(rev));
    cb::RunOptions opts = run;
    if (!common_seed) opts.seed = run.seed + g;
    set.jobs.push_back({&set.reversed.back(), opts, g + 1});
  }
  return set;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine checkpoint primitives
// ---------------------------------------------------------------------------

TEST(EngineCheckpoint, DensityMatrixSaveLoadRoundTrips) {
  cs::DensityMatrixEngine engine(3);
  engine.apply_unitary_1q(cc::gate_unitary_1q(cc::make_gate(GateKind::H, {0})),
                          0);
  engine.apply_cx(0, 1);
  engine.apply_depolarizing_2q(0, 1, 0.05);
  std::vector<charter::math::cplx> snap;
  engine.save_state(snap);
  const std::vector<double> before = engine.probabilities();

  engine.apply_thermal_relaxation(2, 0.3, 0.1);
  engine.apply_cx(1, 2);
  engine.load_state(snap);
  const std::vector<double> after = engine.probabilities();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]);
}

TEST(EngineCheckpoint, CloneEvolvesBitIdentically) {
  cs::TrajectoryEngine original(4, 0xfeedULL);
  // Burn some stochastic branches so the RNG stream is mid-flight.
  original.apply_bitflip(0, 0.4);
  original.apply_unitary_1q(
      cc::gate_unitary_1q(cc::make_gate(GateKind::SX, {1})), 1);
  original.apply_depolarizing_1q(1, 0.3);

  const std::unique_ptr<cs::NoisyEngine> copy = original.clone();
  for (cs::NoisyEngine* e :
       {static_cast<cs::NoisyEngine*>(&original), copy.get()}) {
    e->apply_depolarizing_2q(1, 2, 0.5);
    e->apply_thermal_relaxation(2, 0.2, 0.3);
    e->apply_cx(2, 3);
  }
  const std::vector<double> a = original.probabilities();
  const std::vector<double> b = copy->probabilities();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ---------------------------------------------------------------------------
// Checkpoint plan exactness
// ---------------------------------------------------------------------------

TEST(CheckpointPlan, ResumedRunsMatchColdRunsBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);
  cb::RunOptions opts;
  opts.drift = 0.0;
  const cb::LoweredRun lowered = backend.lower(program, opts);
  const cn::NoisyExecutor executor(lowered.model);

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  ASSERT_GE(eligible.size(), 20u);

  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);
  const ex::CheckpointPlan plan(executor, lowered.local, lens,
                                512ull << 20);
  EXPECT_EQ(plan.num_checkpoints(), lens.size());

  cs::DensityMatrixEngine engine(lowered.local.num_qubits());
  for (const std::size_t g : {eligible.front(), eligible[eligible.size() / 2],
                              eligible.back()}) {
    const cc::Circuit derived =
        co::insert_reversed_pairs(lowered.local, g, 3, true);
    const std::vector<double> resumed = plan.run_shared(derived, g + 1, engine);

    cs::DensityMatrixEngine cold_engine(lowered.local.num_qubits());
    executor.run(derived, cold_engine);
    const std::vector<double> cold = cold_engine.probabilities();

    ASSERT_EQ(resumed.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
      EXPECT_EQ(resumed[i], cold[i]) << "outcome " << i << " gate " << g;
  }
  EXPECT_EQ(plan.stats().fallbacks, 0u);
  EXPECT_EQ(plan.stats().resumed, 3u);
}

TEST(CheckpointPlan, TinyMemoryBudgetReplaysGapsExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  const cn::NoisyExecutor executor(lowered.model);

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);

  // Budget for exactly two snapshots: everything else must replay.
  cs::DensityMatrixEngine probe(lowered.local.num_qubits());
  const ex::CheckpointPlan plan(executor, lowered.local, lens,
                                2 * probe.state_bytes());
  EXPECT_LE(plan.num_checkpoints(), 2u);
  EXPECT_GE(plan.num_checkpoints(), 1u);

  cs::DensityMatrixEngine engine(lowered.local.num_qubits());
  const std::size_t g = eligible[eligible.size() / 3];
  const cc::Circuit derived =
      co::insert_reversed_pairs(lowered.local, g, 2, true);
  const std::vector<double> resumed = plan.run_shared(derived, g + 1, engine);

  cs::DensityMatrixEngine cold_engine(lowered.local.num_qubits());
  executor.run(derived, cold_engine);
  const std::vector<double> cold = cold_engine.probabilities();
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(resumed[i], cold[i]);
}

// ---------------------------------------------------------------------------
// BatchRunner
// ---------------------------------------------------------------------------

TEST(BatchRunner, CheckpointedJobsMatchStandaloneRunsBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);
  cb::RunOptions run;
  run.shots = 4096;
  run.drift = 0.0;
  run.seed = 77;

  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  std::vector<std::size_t> gates(eligible.begin(),
                                 eligible.begin() + 8);
  JobSet set = make_jobs(program, gates, run);

  const ex::BatchRunner runner(backend, {true, false, 512ull << 20});
  const std::vector<std::vector<double>> dists = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().checkpointed, set.jobs.size());
  EXPECT_EQ(runner.last_stats().full_runs, 0u);

  for (std::size_t k = 0; k < set.jobs.size(); ++k) {
    const std::vector<double> standalone =
        backend.run(*set.jobs[k].program, set.jobs[k].run);
    ASSERT_EQ(dists[k].size(), standalone.size());
    for (std::size_t i = 0; i < standalone.size(); ++i)
      EXPECT_EQ(dists[k][i], standalone[i])
          << "job " << k << " outcome " << i;
  }
}

TEST(BatchRunner, TrajectoryAndDriftFallBackToFullRuns) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  const std::vector<std::size_t> gates(eligible.begin(), eligible.begin() + 3);

  for (const bool use_drift : {false, true}) {
    cb::RunOptions run;
    run.shots = 1024;
    run.seed = 5;
    if (use_drift) {
      run.drift = 0.05;  // drifted model is seed-specific: no sharing
    } else {
      run.engine = cb::EngineKind::kTrajectory;  // stochastic: no sharing
      run.trajectories = 8;
    }
    JobSet set = make_jobs(program, gates, run);
    const ex::BatchRunner runner(backend, {true, false, 512ull << 20});
    const std::vector<std::vector<double>> dists =
        runner.run(set.jobs, &program);
    EXPECT_EQ(runner.last_stats().checkpointed, 0u);
    EXPECT_EQ(runner.last_stats().full_runs, set.jobs.size());
    for (std::size_t k = 0; k < set.jobs.size(); ++k) {
      const std::vector<double> standalone =
          backend.run(*set.jobs[k].program, set.jobs[k].run);
      for (std::size_t i = 0; i < standalone.size(); ++i)
        EXPECT_EQ(dists[k][i], standalone[i]);
    }
  }
}

TEST(BatchRunner, CacheHitsReturnIdenticalResults) {
  ex::RunCache::global().clear();
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  const std::vector<std::size_t> gates(eligible.begin(), eligible.begin() + 4);
  cb::RunOptions run;
  run.shots = 2048;
  run.seed = 13;
  JobSet set = make_jobs(program, gates, run);

  const ex::BatchRunner runner(backend, {true, true, 512ull << 20});
  const std::vector<std::vector<double>> cold = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().cache_hits, 0u);

  const std::vector<std::vector<double>> warm = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().cache_hits, set.jobs.size());
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t k = 0; k < cold.size(); ++k) {
    ASSERT_EQ(cold[k].size(), warm[k].size());
    for (std::size_t i = 0; i < cold[k].size(); ++i)
      EXPECT_EQ(cold[k][i], warm[k][i]);
  }

  // A different seed is a different key: no stale hit.
  set.jobs[0].run.seed ^= 0xabcdULL;
  const std::vector<std::vector<double>> reseeded =
      runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().cache_hits, set.jobs.size() - 1);
  ex::RunCache::global().clear();
}

// ---------------------------------------------------------------------------
// Analyzer-level equivalence (the tentpole guarantee)
// ---------------------------------------------------------------------------

TEST(AnalyzerEquivalence, CheckpointedAnalysisMatchesNaiveBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend);

  co::CharterOptions options;
  options.reversals = 3;
  options.run.shots = 4096;
  options.run.seed = 2022;
  options.run.drift = 0.0;  // exact-sharing regime
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const co::CharterReport fast =
      co::CharterAnalyzer(backend, options).analyze(program);

  options.exec.checkpointing = false;
  const co::CharterReport naive =
      co::CharterAnalyzer(backend, options).analyze(program);

  ASSERT_GE(fast.analyzed_gates, 30u);
  ASSERT_EQ(fast.impacts.size(), naive.impacts.size());
  ASSERT_EQ(fast.original_distribution.size(),
            naive.original_distribution.size());
  for (std::size_t i = 0; i < fast.original_distribution.size(); ++i)
    EXPECT_EQ(fast.original_distribution[i], naive.original_distribution[i]);
  for (std::size_t k = 0; k < fast.impacts.size(); ++k) {
    EXPECT_EQ(fast.impacts[k].op_index, naive.impacts[k].op_index);
    EXPECT_EQ(fast.impacts[k].tvd, naive.impacts[k].tvd) << "gate " << k;
  }
}

TEST(AnalyzerEquivalence, InputImpactMatchesNaive) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  co::CharterOptions options;
  options.reversals = 2;
  options.run.shots = 2048;
  options.run.seed = 99;
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const double fast =
      co::CharterAnalyzer(backend, options).input_impact(program);
  options.exec.checkpointing = false;
  const double naive =
      co::CharterAnalyzer(backend, options).input_impact(program);
  EXPECT_EQ(fast, naive);
}

TEST(AnalyzerEquivalence, TrajectoryAnalysisUnchangedByBatching) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 1);

  co::CharterOptions options;
  options.reversals = 2;
  options.max_gates = 4;
  options.run.shots = 512;
  options.run.engine = cb::EngineKind::kTrajectory;
  options.run.trajectories = 6;
  options.run.seed = 3;
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const co::CharterReport a =
      co::CharterAnalyzer(backend, options).analyze(program);
  options.exec.checkpointing = false;
  const co::CharterReport b =
      co::CharterAnalyzer(backend, options).analyze(program);
  ASSERT_EQ(a.impacts.size(), b.impacts.size());
  for (std::size_t k = 0; k < a.impacts.size(); ++k)
    EXPECT_EQ(a.impacts[k].tvd, b.impacts[k].tvd);
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprints, DistinguishProgramsOptionsAndDevices) {
  const cb::FakeBackend lagos_a = cb::FakeBackend::lagos(7);
  const cb::FakeBackend lagos_b = cb::FakeBackend::lagos(8);  // same name!
  const cb::CompiledProgram p1 = compiled_program(lagos_a, 1);
  cb::CompiledProgram p2 = p1;
  p2.physical.mutable_op(0).params[0] += 1e-9;

  EXPECT_FALSE(ex::fingerprint(p1) == ex::fingerprint(p2));
  EXPECT_FALSE(ex::fingerprint(lagos_a) == ex::fingerprint(lagos_b));

  cb::RunOptions r1, r2;
  r2.seed = r1.seed + 1;
  EXPECT_FALSE(ex::fingerprint(r1) == ex::fingerprint(r2));
  EXPECT_TRUE(ex::fingerprint(r1) == ex::fingerprint(cb::RunOptions{}));
}

// ---------------------------------------------------------------------------
// Shard construction
// ---------------------------------------------------------------------------

TEST(Sharding, GroupsBySegmentPreservingSubmissionOrder) {
  const std::vector<std::size_t> jobs = {10, 11, 12, 13, 14, 15};
  const std::vector<std::size_t> segments = {2, 0, 2, 2, 1, 0};
  const std::vector<ex::Shard> shards = ex::make_shards(jobs, segments, 100);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].segment, 0u);
  EXPECT_EQ(shards[0].jobs, (std::vector<std::size_t>{11, 15}));
  EXPECT_EQ(shards[1].segment, 1u);
  EXPECT_EQ(shards[1].jobs, (std::vector<std::size_t>{14}));
  EXPECT_EQ(shards[2].segment, 2u);
  EXPECT_EQ(shards[2].jobs, (std::vector<std::size_t>{10, 12, 13}));
}

TEST(Sharding, SplitsOversizedSegments) {
  const std::vector<std::size_t> jobs = {0, 1, 2, 3, 4};
  const std::vector<std::size_t> segments = {7, 7, 7, 7, 7};
  const std::vector<ex::Shard> shards = ex::make_shards(jobs, segments, 2);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].jobs, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(shards[1].jobs, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(shards[2].jobs, (std::vector<std::size_t>{4}));
  for (const ex::Shard& s : shards) EXPECT_EQ(s.segment, 7u);
}

TEST(Sharding, DefaultMaxShardJobsKeepsPoolBalanced) {
  // ~4 claims per worker, never below one job per shard.
  EXPECT_EQ(ex::default_max_shard_jobs(0, 4), 1u);
  EXPECT_EQ(ex::default_max_shard_jobs(15, 4), 1u);
  EXPECT_EQ(ex::default_max_shard_jobs(160, 4), 10u);
  EXPECT_EQ(ex::default_max_shard_jobs(160, 1), 40u);
}

TEST(CheckpointPlan, SegmentOfIsMonotoneAndCoversAllSnapshots) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  const cn::NoisyExecutor executor(lowered.model);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);
  const ex::CheckpointPlan plan(executor, lowered.local, lens, 512ull << 20);

  EXPECT_EQ(plan.segment_of(0), 0u);
  EXPECT_EQ(plan.num_segments(), plan.num_checkpoints() + 1);
  std::size_t last = 0;
  std::set<std::size_t> seen;
  for (std::size_t len = 0; len <= lowered.local.size(); ++len) {
    const std::size_t seg = plan.segment_of(len);
    EXPECT_GE(seg, last);  // deeper prefixes never map to earlier segments
    last = seg;
    seen.insert(seg);
  }
  EXPECT_EQ(seen.size(), plan.num_segments());
  EXPECT_EQ(plan.segment_of(lowered.local.size()), plan.num_checkpoints());
}

// ---------------------------------------------------------------------------
// Striped run cache
// ---------------------------------------------------------------------------

TEST(RunCacheStriping, KeysSpreadAcrossShards) {
  std::set<std::size_t> used;
  for (int i = 0; i < 256; ++i) {
    ex::FingerprintBuilder b;
    b.mix(static_cast<std::uint64_t>(i));
    used.insert(ex::RunCache::shard_index(b.result()));
  }
  // 256 well-mixed keys over 16 stripes should touch every stripe.
  EXPECT_EQ(used.size(), ex::RunCache::kNumShards);
}

TEST(RunCacheStriping, ConcurrentStoresAndLookupsStayConsistent) {
  ex::RunCache cache(64ull << 20);
  constexpr int kKeys = 512;
  const auto key_of = [](int i) {
    ex::FingerprintBuilder b;
    b.mix(static_cast<std::uint64_t>(i) * 0x9e37ULL + 11);
    return b.result();
  };
  cu::ThreadPool pool(8);
  // Hammer every stripe from all workers: store, then immediately read back.
  pool.run(kKeys, [&](std::int64_t i, int) {
    const ex::Fingerprint key = key_of(static_cast<int>(i));
    cache.store(key, {static_cast<double>(i), 1.0});
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ((*hit)[0], static_cast<double>(i));
  });
  EXPECT_EQ(cache.stats().entries, static_cast<std::size_t>(kKeys));
  EXPECT_GE(cache.stats().hits, static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const auto hit = cache.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ((*hit)[0], static_cast<double>(i));
  }
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(RunCacheStriping, EntryLargerThanShardShareIsStillAdmitted) {
  // Admission is against the total budget: an entry bigger than one
  // stripe's even split (but within the budget) drains its stripe and is
  // cached alone, instead of being silently uncacheable.
  ex::RunCache cache(ex::RunCache::kNumShards * 4 * sizeof(double));
  ex::FingerprintBuilder b;
  b.mix(42);
  const std::vector<double> big(8, 1.5);  // 2x the per-shard share
  cache.store(b.result(), big);
  const auto hit = cache.lookup(b.result());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), big.size());
  // Beyond the total budget is still rejected.
  ex::FingerprintBuilder b2;
  b2.mix(43);
  cache.store(b2.result(), std::vector<double>(1000, 0.0));
  EXPECT_FALSE(cache.lookup(b2.result()).has_value());
}

TEST(RunCacheStriping, PerShardBudgetEvictsOldestWithinStripe) {
  // Budget for ~2 entries per stripe; flooding one stripe must evict its own
  // oldest entries and leave other stripes untouched.
  ex::RunCache cache(ex::RunCache::kNumShards * 4 * sizeof(double));
  std::vector<ex::Fingerprint> same_stripe;
  for (int i = 0; same_stripe.size() < 5; ++i) {
    ex::FingerprintBuilder b;
    b.mix(static_cast<std::uint64_t>(i) + 1000);
    if (ex::RunCache::shard_index(b.result()) == 0)
      same_stripe.push_back(b.result());
  }
  for (std::size_t k = 0; k < same_stripe.size(); ++k)
    cache.store(same_stripe[k], {static_cast<double>(k), 0.0});
  EXPECT_GT(cache.stats().evictions, 0u);
  // The newest entry survived; the oldest was evicted.
  EXPECT_TRUE(cache.lookup(same_stripe.back()).has_value());
  EXPECT_FALSE(cache.lookup(same_stripe.front()).has_value());
}

// ---------------------------------------------------------------------------
// Trajectory checkpoint plan
// ---------------------------------------------------------------------------

TEST(TrajectoryCheckpointPlan, ResumedUnravellingsMatchColdRunsBitExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  cb::RunOptions opts;
  opts.drift = 0.0;
  const cb::LoweredRun lowered = backend.lower(program, opts);
  const cn::NoisyExecutor executor(lowered.model);
  const int width = lowered.local.num_qubits();
  constexpr int kTrajectories = 6;
  constexpr std::uint64_t kSeed = 123;

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  ASSERT_GE(eligible.size(), 10u);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);

  cu::ThreadPool pool(2);
  const ex::TrajectoryCheckpointPlan plan(executor, lowered.local, lens,
                                          kTrajectories, kSeed,
                                          512ull << 20, pool);
  EXPECT_EQ(plan.num_checkpoints(), lens.size());

  // The base sweep reproduces a standalone trajectory run of the base.
  {
    const cn::NoiseProgram tape = executor.lower(lowered.local);
    const std::vector<double> cold = cs::run_trajectories(
        width, kTrajectories, kSeed ^ cb::kTrajectorySeedSalt,
        [&](cs::NoisyEngine& e) { tape.execute(e); });
    ASSERT_EQ(plan.base_probabilities().size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
      EXPECT_EQ(plan.base_probabilities()[i], cold[i]) << "outcome " << i;
  }

  for (const std::size_t g : {eligible.front(), eligible[eligible.size() / 2],
                              eligible.back()}) {
    const cc::Circuit derived =
        co::insert_reversed_pairs(lowered.local, g, 2, true);
    const std::vector<double> resumed = plan.run_shared(derived, g + 1);

    const cn::NoiseProgram tape = executor.lower(derived);
    const std::vector<double> cold = cs::run_trajectories(
        width, kTrajectories, kSeed ^ cb::kTrajectorySeedSalt,
        [&](cs::NoisyEngine& e) { tape.execute(e); });

    ASSERT_EQ(resumed.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
      EXPECT_EQ(resumed[i], cold[i]) << "outcome " << i << " gate " << g;
  }
  EXPECT_EQ(plan.stats().fallbacks, 0u);
  EXPECT_EQ(plan.stats().resumed, 3u);
}

TEST(TrajectoryCheckpointPlan, TinyBudgetReplaysGapsExactly) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const cb::LoweredRun lowered = backend.lower(program, cb::RunOptions{});
  const cn::NoisyExecutor executor(lowered.model);
  const int width = lowered.local.num_qubits();
  constexpr int kTrajectories = 5;
  constexpr std::uint64_t kSeed = 9;

  const std::vector<std::size_t> eligible =
      co::reversible_ops(lowered.local, true);
  std::vector<std::size_t> lens;
  for (const std::size_t g : eligible) lens.push_back(g + 1);

  // Budget for roughly two clone sets: everything else must replay.
  const std::size_t per_snapshot =
      ((std::size_t{16} << width) + 64) * kTrajectories;
  cu::ThreadPool pool(1);
  const ex::TrajectoryCheckpointPlan plan(executor, lowered.local, lens,
                                          kTrajectories, kSeed,
                                          2 * per_snapshot, pool);
  EXPECT_LE(plan.num_checkpoints(), 2u);
  EXPECT_GE(plan.num_checkpoints(), 1u);

  const std::size_t g = eligible[eligible.size() / 3];
  const cc::Circuit derived =
      co::insert_reversed_pairs(lowered.local, g, 2, true);
  const std::vector<double> resumed = plan.run_shared(derived, g + 1);

  const cn::NoiseProgram tape = executor.lower(derived);
  const std::vector<double> cold = cs::run_trajectories(
      width, kTrajectories, kSeed ^ cb::kTrajectorySeedSalt,
      [&](cs::NoisyEngine& e) { tape.execute(e); });
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(resumed[i], cold[i]);
}

TEST(BatchRunner, SeedAlignedTrajectoryJobsShareCheckpoints) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  const std::vector<std::size_t> gates(eligible.begin(), eligible.begin() + 4);

  cb::RunOptions run;
  run.shots = 1024;
  run.seed = 5;
  run.engine = cb::EngineKind::kTrajectory;
  run.trajectories = 8;
  // All jobs share the seed, so the prefix draws are identical per
  // unravelling and clone resumption is exact.
  JobSet set = make_jobs(program, gates, run, 2, /*common_seed=*/true);

  const ex::BatchRunner runner(backend, {true, false, 512ull << 20});
  const std::vector<std::vector<double>> dists = runner.run(set.jobs, &program);
  EXPECT_EQ(runner.last_stats().trajectory_checkpointed, set.jobs.size());
  EXPECT_EQ(runner.last_stats().full_runs, 0u);
  EXPECT_EQ(runner.last_stats().checkpointed, 0u);

  for (std::size_t k = 0; k < set.jobs.size(); ++k) {
    const std::vector<double> standalone =
        backend.run(*set.jobs[k].program, set.jobs[k].run);
    ASSERT_EQ(dists[k].size(), standalone.size());
    for (std::size_t i = 0; i < standalone.size(); ++i)
      EXPECT_EQ(dists[k][i], standalone[i]) << "job " << k << " outcome " << i;
  }
}

TEST(AnalyzerEquivalence, CommonRandomNumbersTrajectorySharingMatchesNaive) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 1);

  co::CharterOptions options;
  options.reversals = 2;
  options.max_gates = 5;
  options.run.shots = 512;
  options.run.engine = cb::EngineKind::kTrajectory;
  options.run.trajectories = 6;
  options.run.seed = 3;
  options.common_random_numbers = true;
  options.exec.caching = false;

  options.exec.checkpointing = true;
  const co::CharterAnalyzer fast_analyzer(backend, options);
  const co::CharterReport fast = fast_analyzer.analyze(program);
  EXPECT_GT(fast.exec_stats.trajectory_checkpointed, 0u);

  options.exec.checkpointing = false;
  const co::CharterReport naive =
      co::CharterAnalyzer(backend, options).analyze(program);

  ASSERT_EQ(fast.impacts.size(), naive.impacts.size());
  for (std::size_t k = 0; k < fast.impacts.size(); ++k)
    EXPECT_EQ(fast.impacts[k].tvd, naive.impacts[k].tvd) << "gate " << k;
}

// ---------------------------------------------------------------------------
// Determinism matrix: the parallel driver's headline contract.  The full
// CharterReport — every score, the output distribution, and the exec layer's
// cache/checkpoint counters — is bit-identical at every worker-pool width,
// for the density-matrix engine and the trajectory engine (independent seeds
// and common random numbers).
// ---------------------------------------------------------------------------

namespace {

struct MatrixRun {
  co::CharterReport cold_report;
  co::CharterReport warm_report;
  ex::BatchRunner::Stats cold_stats;
  ex::BatchRunner::Stats warm_stats;
};

MatrixRun analyze_at_width(const cb::FakeBackend& backend,
                           const cb::CompiledProgram& program,
                           co::CharterOptions options, int threads) {
  options.exec.threads = threads;
  options.exec.caching = true;
  ex::RunCache::global().clear();
  const co::CharterAnalyzer analyzer(backend, options);
  MatrixRun out;
  out.cold_report = analyzer.analyze(program);
  out.cold_stats = out.cold_report.exec_stats;
  out.warm_report = analyzer.analyze(program);  // all jobs served from cache
  out.warm_stats = out.warm_report.exec_stats;
  ex::RunCache::global().clear();
  return out;
}

void expect_reports_identical(const co::CharterReport& a,
                              const co::CharterReport& b,
                              const std::string& label) {
  ASSERT_EQ(a.impacts.size(), b.impacts.size()) << label;
  ASSERT_EQ(a.original_distribution.size(), b.original_distribution.size())
      << label;
  for (std::size_t i = 0; i < a.original_distribution.size(); ++i)
    EXPECT_EQ(a.original_distribution[i], b.original_distribution[i])
        << label << " outcome " << i;
  for (std::size_t k = 0; k < a.impacts.size(); ++k) {
    EXPECT_EQ(a.impacts[k].op_index, b.impacts[k].op_index) << label;
    EXPECT_EQ(a.impacts[k].tvd, b.impacts[k].tvd)
        << label << " gate " << k;
  }
}

void expect_stats_identical(const ex::BatchRunner::Stats& a,
                            const ex::BatchRunner::Stats& b,
                            const std::string& label) {
  EXPECT_EQ(a.jobs, b.jobs) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.checkpointed, b.checkpointed) << label;
  EXPECT_EQ(a.trajectory_checkpointed, b.trajectory_checkpointed) << label;
  EXPECT_EQ(a.full_runs, b.full_runs) << label;
  EXPECT_EQ(a.checkpoint_fallbacks, b.checkpoint_fallbacks) << label;
}

}  // namespace

TEST(DeterminismMatrix, ReportsBitIdenticalAcrossThreadCounts) {
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  struct Config {
    const char* name;
    co::CharterOptions options;
  };
  std::vector<Config> configs;
  {
    co::CharterOptions dm;
    dm.reversals = 2;
    dm.run.shots = 4096;
    dm.run.seed = 2022;
    configs.push_back({"dm_exact", dm});

    co::CharterOptions traj;
    traj.reversals = 2;
    traj.max_gates = 4;
    traj.run.shots = 512;
    traj.run.engine = cb::EngineKind::kTrajectory;
    traj.run.trajectories = 6;
    traj.run.seed = 3;
    configs.push_back({"trajectory_independent_seeds", traj});
    traj.common_random_numbers = true;
    configs.push_back({"trajectory_common_random_numbers", traj});
  }

  for (const Config& config : configs) {
    const MatrixRun base =
        analyze_at_width(backend, program, config.options, 1);
    EXPECT_EQ(base.cold_stats.cache_hits, 0u) << config.name;
    EXPECT_EQ(base.warm_stats.cache_hits, base.warm_stats.jobs)
        << config.name;
    for (const int threads : {2, 8}) {
      const MatrixRun wide =
          analyze_at_width(backend, program, config.options, threads);
      const std::string label =
          std::string(config.name) + " @" + std::to_string(threads);
      expect_reports_identical(base.cold_report, wide.cold_report,
                               label + " cold");
      expect_reports_identical(base.warm_report, wide.warm_report,
                               label + " warm");
      expect_stats_identical(base.cold_stats, wide.cold_stats,
                             label + " cold stats");
      expect_stats_identical(base.warm_stats, wide.warm_stats,
                             label + " warm stats");
    }
  }
}

namespace {

/// The engine-level trajectory average a standalone run computes for \p job
/// (run_trajectories over the job's own tape), finalized like the backend.
std::vector<double> standalone_trajectories(const cb::FakeBackend& backend,
                                            const ex::AnalysisJob& job) {
  const cb::LoweredRun lowered = backend.lower(*job.program, job.run);
  const cn::NoisyExecutor executor(lowered.model);
  const cn::NoiseProgram tape = executor.lower(lowered.local);
  return backend.finalize(
      cs::run_trajectories(lowered.local.num_qubits(), job.run.trajectories,
                           job.run.seed ^ cb::kTrajectorySeedSalt,
                           [&](cs::NoisyEngine& e) { tape.execute(e); }),
      lowered, *job.program, job.run);
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(BatchRunner, PlainTrajectoryFanOutMatchesRunTrajectoriesPerJob) {
  // The plain route runs one pool task per unravelling and folds in index
  // order, so every job must carry the bits of its own standalone
  // run_trajectories average — for job counts below, at and above the pool
  // width, trajectory counts inside, at and across a fold-group boundary,
  // and every thread count.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 1);
  const std::vector<std::size_t> eligible =
      co::reversible_ops(program.physical, true);
  ASSERT_GE(eligible.size(), 6u);
  std::vector<cb::CompiledProgram> programs(6, program);
  for (std::size_t k = 1; k < programs.size(); ++k)
    programs[k].physical =
        co::insert_reversed_pairs(program.physical, eligible[k], 2, true);

  for (const int trajectories : {1, 7, 8, 9, 24}) {
    std::vector<ex::AnalysisJob> all;
    std::vector<std::vector<double>> expected;
    for (std::size_t k = 0; k < programs.size(); ++k) {
      ex::AnalysisJob job;
      job.program = &programs[k];
      job.run.shots = 0;
      job.run.seed = 40 + k;
      job.run.drift = 0.06;  // drifted: never checkpoint-shared
      job.run.engine = cb::EngineKind::kTrajectory;
      job.run.trajectories = trajectories;
      all.push_back(job);
      expected.push_back(standalone_trajectories(backend, job));
    }
    for (std::size_t num_jobs = 1; num_jobs <= all.size(); ++num_jobs) {
      const std::vector<ex::AnalysisJob> jobs(all.begin(),
                                              all.begin() + num_jobs);
      for (const int threads : {1, 2, 4}) {
        ex::BatchOptions options;
        options.caching = false;
        options.threads = threads;
        const ex::BatchRunner runner(backend, options);
        const std::vector<std::vector<double>> got = runner.run(jobs);
        EXPECT_EQ(runner.last_stats().full_runs, num_jobs);
        ASSERT_EQ(got.size(), num_jobs);
        for (std::size_t k = 0; k < num_jobs; ++k)
          EXPECT_TRUE(bits_equal(got[k], expected[k]))
              << "job " << k << " of " << num_jobs << ", " << trajectories
              << " trajectories, threads " << threads;
      }
    }
  }
}

TEST(BatchRunner, BackendRunMatchesBatchAtEveryOpenMpWidth) {
  // A standalone FakeBackend::run sums its renormalizations in a fixed
  // order off the pool too, so its trajectory average equals the pooled
  // BatchRunner result at OpenMP 1 and 4 alike.  12 qubits put the state
  // past the size at which an OpenMP reduction would kick in; one
  // trajectory keeps the run on the calling thread.
  const cb::FakeBackend backend = cb::FakeBackend::guadalupe(16);
  cc::Circuit logical(12);
  for (int q = 0; q < 12; ++q) logical.h(q);
  for (int q = 0; q + 1 < 12; ++q) logical.cx(q, q + 1);
  for (int q = 0; q < 12; ++q) logical.rx(q, 0.2 + 0.05 * q);
  const cb::CompiledProgram program = backend.compile(logical);
  ASSERT_GE(cb::used_qubits(program).size(), 12u);

  for (const int trajectories : {1, 8}) {
    ex::AnalysisJob job;
    job.program = &program;
    job.run.shots = 0;
    job.run.seed = 7;
    job.run.drift = 0.06;
    job.run.engine = cb::EngineKind::kTrajectory;
    job.run.trajectories = trajectories;
    ex::BatchOptions options;
    options.caching = false;
    options.threads = 2;
    const std::vector<double> batched =
        ex::BatchRunner(backend, options).run({job}).front();
#ifdef _OPENMP
    // libgomp is not instrumented for ThreadSanitizer, whose leg runs the
    // suite at one OpenMP thread: a forced 4-thread team there would only
    // report the team's own barriers as races.
#ifdef __SANITIZE_THREAD__
    const std::vector<int> widths = {1};
#else
    const std::vector<int> widths = {1, 4};
#endif
    const int saved = omp_get_max_threads();
    for (const int omp : widths) {
      omp_set_num_threads(omp);
      EXPECT_TRUE(bits_equal(backend.run(program, job.run), batched))
          << trajectories << " trajectories at OpenMP " << omp;
    }
    omp_set_num_threads(saved);
#else
    EXPECT_TRUE(bits_equal(backend.run(program, job.run), batched));
#endif
  }
}

// ---------------------------------------------------------------------------
// Adaptive trajectory sweep
// ---------------------------------------------------------------------------

namespace {

struct AdaptiveFixture {
  cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  cb::CompiledProgram program;
  std::vector<cb::CompiledProgram> reversed;
  std::vector<ex::AdaptiveJob> jobs;
  std::vector<double> original;

  explicit AdaptiveFixture(int trajectories, std::size_t gates = 4)
      : program(compiled_program(backend, 2)) {
    const std::vector<std::size_t> eligible =
        co::reversible_ops(program.physical, true);
    EXPECT_GE(eligible.size(), gates);
    cb::RunOptions base_run;
    base_run.shots = 0;  // engine-level distributions
    base_run.engine = cb::EngineKind::kTrajectory;
    base_run.trajectories = trajectories;
    base_run.seed = 5;
    original = backend.run(program, base_run);
    // Spread the insertion points so the impact estimates separate.
    const std::size_t stride = eligible.size() / gates;
    reversed.reserve(gates);
    for (std::size_t k = 0; k < gates; ++k) {
      const std::size_t g = eligible[k * stride];
      cb::CompiledProgram rev = program;
      rev.physical = co::insert_reversed_pairs(program.physical, g, 2, true);
      reversed.push_back(std::move(rev));
      cb::RunOptions run = base_run;
      run.seed = base_run.seed + g;
      jobs.push_back({&reversed.back(), run});
    }
  }
};

}  // namespace

TEST(AdaptiveSweep, FullBudgetMatchesBackendRunBitExactly) {
  // Two groups total with min_groups = 2: the sequential test can never fire
  // before the budget is exhausted, so every distribution must be
  // bit-identical to a standalone full-budget run.
  AdaptiveFixture fx(2 * cs::kTrajectoryGroupSize);
  ex::AdaptiveOptions options;
  options.threads = 2;
  const ex::AdaptiveResult result = ex::run_adaptive_trajectory_sweep(
      fx.backend, fx.jobs, fx.original, options);

  EXPECT_EQ(result.trajectories_executed, result.trajectories_budgeted);
  EXPECT_EQ(result.gates_settled_early, 0u);
  ASSERT_EQ(result.distributions.size(), fx.jobs.size());
  for (std::size_t k = 0; k < fx.jobs.size(); ++k) {
    const std::vector<double> standalone =
        fx.backend.run(fx.reversed[k], fx.jobs[k].run);
    ASSERT_EQ(result.distributions[k].size(), standalone.size());
    for (std::size_t i = 0; i < standalone.size(); ++i)
      EXPECT_EQ(result.distributions[k][i], standalone[i])
          << "job " << k << " outcome " << i;
  }
}

TEST(AdaptiveSweep, EarlyTerminationSavesTrajectoriesAndKeepsTheRanking) {
  const int trajectories = 10 * cs::kTrajectoryGroupSize;
  AdaptiveFixture fx(trajectories);

  // Full-budget reference ranking (what kFixedBudget would report).
  std::vector<double> full_tvds;
  for (std::size_t k = 0; k < fx.jobs.size(); ++k)
    full_tvds.push_back(charter::stats::tvd(
        fx.backend.run(fx.reversed[k], fx.jobs[k].run), fx.original));
  std::vector<std::size_t> full_rank(fx.jobs.size());
  std::iota(full_rank.begin(), full_rank.end(), std::size_t{0});
  std::stable_sort(full_rank.begin(), full_rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return full_tvds[a] > full_tvds[b];
                   });

  ex::AdaptiveOptions options;
  options.threads = 2;
  options.z = 2.0;
  const ex::AdaptiveResult result = ex::run_adaptive_trajectory_sweep(
      fx.backend, fx.jobs, fx.original, options);

  EXPECT_EQ(result.trajectories_budgeted,
            fx.jobs.size() * static_cast<std::size_t>(trajectories));
  EXPECT_LT(result.trajectories_executed, result.trajectories_budgeted);
  EXPECT_GE(result.gates_settled_early, 1u);

  std::vector<double> adaptive_tvds;
  for (const std::vector<double>& dist : result.distributions)
    adaptive_tvds.push_back(charter::stats::tvd(dist, fx.original));
  std::vector<std::size_t> adaptive_rank(fx.jobs.size());
  std::iota(adaptive_rank.begin(), adaptive_rank.end(), std::size_t{0});
  std::stable_sort(adaptive_rank.begin(), adaptive_rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return adaptive_tvds[a] > adaptive_tvds[b];
                   });
  EXPECT_EQ(adaptive_rank, full_rank);
}

TEST(AdaptiveSweep, ResultsAreIdenticalAtEveryPoolWidth) {
  // Stopping decisions happen on the coordinating thread from index-ordered
  // folds, so the outcome — distributions and savings — cannot depend on
  // how many workers executed the groups.
  const int trajectories = 6 * cs::kTrajectoryGroupSize;
  AdaptiveFixture narrow_fx(trajectories);
  AdaptiveFixture wide_fx(trajectories);

  ex::AdaptiveOptions narrow;
  narrow.threads = 1;
  const ex::AdaptiveResult a = ex::run_adaptive_trajectory_sweep(
      narrow_fx.backend, narrow_fx.jobs, narrow_fx.original, narrow);
  ex::AdaptiveOptions wide;
  wide.threads = 4;
  const ex::AdaptiveResult b = ex::run_adaptive_trajectory_sweep(
      wide_fx.backend, wide_fx.jobs, wide_fx.original, wide);

  EXPECT_EQ(a.trajectories_executed, b.trajectories_executed);
  EXPECT_EQ(a.gates_settled_early, b.gates_settled_early);
  ASSERT_EQ(a.distributions.size(), b.distributions.size());
  for (std::size_t k = 0; k < a.distributions.size(); ++k) {
    ASSERT_EQ(a.distributions[k].size(), b.distributions[k].size());
    for (std::size_t i = 0; i < a.distributions[k].size(); ++i)
      EXPECT_EQ(a.distributions[k][i], b.distributions[k][i])
          << "job " << k << " outcome " << i;
  }
}

TEST(AdaptiveSweep, AnalyzerAdaptiveBudgetPreservesTheTopGate) {
  // End to end through the analyzer: kAdaptive must reduce executed
  // trajectories, account for the savings in exec_stats, and leave the
  // top-ranked gate unchanged vs the fixed-budget analysis.
  const cb::FakeBackend backend = cb::FakeBackend::lagos(7);
  const cb::CompiledProgram program = compiled_program(backend, 2);

  co::CharterOptions fixed;
  fixed.reversals = 5;
  // Keep the virtual RZ gates in the sweep: their near-zero impact sits far
  // below the noisy gates', so the sequential test has real rank gaps to
  // separate — mirroring the production shape where adaptive budgets pay.
  fixed.skip_rz = false;
  fixed.max_gates = 6;
  fixed.common_random_numbers = true;
  fixed.run.shots = 0;
  fixed.run.engine = cb::EngineKind::kTrajectory;
  fixed.run.trajectories = 24 * cs::kTrajectoryGroupSize;
  fixed.run.seed = 7;
  fixed.exec.threads = 2;
  fixed.exec.caching = false;

  co::CharterOptions adaptive = fixed;
  adaptive.budget = ex::BudgetMode::kAdaptive;

  ex::RunCache::global().clear();
  const co::CharterReport fixed_report =
      co::CharterAnalyzer(backend, fixed).analyze(program);
  const co::CharterReport adaptive_report =
      co::CharterAnalyzer(backend, adaptive).analyze(program);
  ex::RunCache::global().clear();

  // Fixed budgets never report adaptive accounting.
  EXPECT_EQ(fixed_report.exec_stats.trajectories_budgeted, 0u);
  EXPECT_EQ(fixed_report.exec_stats.trajectories_executed, 0u);
  EXPECT_EQ(fixed_report.exec_stats.gates_settled_early, 0u);

  const std::size_t budget =
      adaptive_report.impacts.size() *
      static_cast<std::size_t>(adaptive.run.trajectories);
  EXPECT_EQ(adaptive_report.exec_stats.trajectories_budgeted, budget);
  EXPECT_LT(adaptive_report.exec_stats.trajectories_executed, budget);
  EXPECT_GE(adaptive_report.exec_stats.gates_settled_early, 1u);

  ASSERT_EQ(adaptive_report.impacts.size(), fixed_report.impacts.size());
  // The original run is untouched by the budget mode.
  ASSERT_EQ(adaptive_report.original_distribution.size(),
            fixed_report.original_distribution.size());
  for (std::size_t i = 0; i < fixed_report.original_distribution.size(); ++i)
    EXPECT_EQ(adaptive_report.original_distribution[i],
              fixed_report.original_distribution[i]);
  const auto fixed_sorted = fixed_report.sorted_by_impact();
  const auto adaptive_sorted = adaptive_report.sorted_by_impact();
  EXPECT_EQ(adaptive_sorted.front().op_index, fixed_sorted.front().op_index);
}

TEST(AdaptiveSweep, RejectsJobsWithoutTrajectoriesBeforeLowering) {
  // A job with trajectories == 0 has no fold group; the sweep used to index
  // its empty partial vector.  It must be rejected up front, like a job
  // without a program.
  const cb::FakeBackend backend = cb::FakeBackend::lagos();
  const cb::CompiledProgram program =
      backend.compile(charter::algos::qft(3, 0));
  cb::RunOptions run;
  run.engine = cb::EngineKind::kTrajectory;
  run.trajectories = 0;
  const std::vector<double> original =
      std::vector<double>(std::size_t{1} << program.num_logical, 0.0);
  ex::AdaptiveOptions options;
  options.threads = 1;
  EXPECT_THROW(ex::run_adaptive_trajectory_sweep(
                   backend, {{&program, run}}, original, options),
               charter::InvalidArgument);

  run.trajectories = cs::kTrajectoryGroupSize;
  EXPECT_THROW(ex::run_adaptive_trajectory_sweep(
                   backend, {{&program, run}, {nullptr, run}}, original,
                   options),
               charter::InvalidArgument);
}
