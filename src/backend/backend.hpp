#pragma once

/// \file backend.hpp
/// Fake noisy backends: the stand-in for the paper's IBM Q devices.
///
/// A FakeBackend couples a Topology with seeded calibration data (a
/// NoiseModel) and executes *compiled programs* — transpiled physical
/// circuits plus the layout metadata needed to read program qubits out of
/// device qubits.  Before execution the physical circuit is compacted to the
/// qubits it actually touches so the density-matrix engine stays feasible on
/// the 16-qubit device; wider programs fall back to trajectory averaging.
///
/// Runs are deterministic in RunOptions::seed: drift, trajectories, and shot
/// sampling all derive from it.

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/calibration.hpp"
#include "noise/noise_model.hpp"
#include "transpile/topology.hpp"
#include "transpile/transpiler.hpp"

namespace charter::backend {

/// Simulation engine choice.
enum class EngineKind {
  kAuto,           ///< density matrix when it fits, else trajectories
  kDensityMatrix,  ///< exact channels; <= DensityMatrixEngine::kMaxQubits
  kTrajectory,     ///< Monte-Carlo Kraus unravelling, any width
};

/// Per-run execution options.
///
/// The SIMD kernel path is deliberately *not* a per-run option: it is
/// process-wide runtime dispatch (CHARTER_SIMD / math::simd::set_path) and
/// is reported alongside run results via run_environment_summary().
struct RunOptions {
  /// Shots to sample; 0 returns the exact (engine-level) distribution.
  std::int64_t shots = 4096;
  EngineKind engine = EngineKind::kAuto;
  /// Trajectory count when the trajectory engine is used.
  int trajectories = 48;
  /// Seed for drift, trajectory branching, and shot sampling.
  std::uint64_t seed = 1;
  /// Calibration drift magnitude for this run (0 disables; the paper-scale
  /// experiments use ~0.05 to model run-to-run device drift).
  double drift = 0.0;
};

/// A transpiled program plus everything needed to interpret its output.
struct CompiledProgram {
  circ::Circuit physical;         ///< basis gates, width = device width
  transpile::Layout final_layout; ///< logical qubit -> physical qubit
  int num_logical = 0;
};

/// Simulator-level view of one compiled program on this device: the circuit
/// compacted to the qubits it touches, the matching restricted (and, when
/// requested, drifted) noise model, and the kept physical qubits needed to
/// fold engine output back onto the logical register.  Produced by
/// FakeBackend::lower(); consumed by the exec layer, which drives simulation
/// engines directly for prefix-state checkpointing.
struct LoweredRun {
  circ::Circuit local;
  noise::NoiseModel model;
  std::vector<int> kept;
};

/// The engine kind a run with \p options actually uses for a program whose
/// compacted width is \p local_width (resolves kAuto).  Shared by
/// FakeBackend::run and the exec layer so the two can never diverge.
EngineKind resolve_engine(const RunOptions& options, int local_width);

/// \p options with the engine pinned to resolve_engine(options,
/// local_width).  The run takes the same path either way; the analysis
/// pipeline pins every job of a sweep so that its run-cache key names the
/// path that produced the result.
RunOptions pin_engine(RunOptions options, int local_width);

/// One-line description of the execution environment every RunOptions is
/// interpreted under: the active SIMD kernel path and the paths available
/// in this build/CPU (math/simd_dispatch.hpp), the parallel worker width,
/// and the density-matrix cutoff.  Surfaced by `charter version` and the
/// bench JSON emitters so recorded results carry the dispatch they ran on.
std::string run_environment_summary();

/// Seed salts separating the independent random streams one RunOptions::seed
/// drives.  Shared with the exec layer, whose pooled trajectory fan-out and
/// trajectory checkpoint plan must reproduce FakeBackend::run bit for bit.
inline constexpr std::uint64_t kTrajectorySeedSalt = 0x7ca3bULL;
inline constexpr std::uint64_t kShotSeedSalt = 0x51a9eULL;
inline constexpr std::uint64_t kDriftSeedSalt = 0xd21f7ULL;

/// Sink a Backend mixes its cache-identity data into (name, calibration,
/// anything else that changes run() output).  Implemented by the exec
/// layer's FingerprintBuilder; declared here so backends stay independent
/// of the cache machinery.
class FingerprintSink {
 public:
  virtual ~FingerprintSink() = default;
  virtual void mix(std::uint64_t v) = 0;
  virtual void mix_double(double v) = 0;
  virtual void mix_string(const std::string& s) = 0;
};

/// Abstract device interface the analysis pipeline runs against.
///
/// CHARTER is backend-agnostic: the technique needs only "compile a logical
/// circuit" and "run a compiled program to a distribution".  Everything
/// else is an optional capability:
///
///  - lower()/finalize() expose the simulator-level run decomposition the
///    exec layer needs for prefix-state checkpointing; backends that cannot
///    (or need not) split runs report supports_lowering() == false and
///    every job executes as an independent run() — slower, never wrong.
///  - cache_identity() feeds the process-wide RunCache; a backend without a
///    stable deterministic identity returns false and its runs are simply
///    never memoized.
///
/// Implementations must be safe for concurrent const access: the exec
/// layer calls run/lower/finalize from many worker threads at once.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Device name (also part of the cache identity for lookups/logs).
  virtual const std::string& name() const = 0;

  /// Compiles a logical circuit into this device's basis/topology.
  virtual CompiledProgram compile(
      const circ::Circuit& logical,
      const transpile::TranspileOptions& options = {}) const = 0;

  /// Runs a compiled program and returns the distribution over the
  /// *logical* qubits.  Deterministic in (program, options) unless the
  /// backend says otherwise via cache_identity().
  virtual std::vector<double> run(const CompiledProgram& program,
                                  const RunOptions& options = {}) const = 0;

  /// Noiseless execution of the same compiled program (validation oracle).
  virtual std::vector<double> ideal(const CompiledProgram& program) const = 0;

  /// Wall-clock duration (ns) of the compiled program on this device.
  virtual double duration_ns(const CompiledProgram& program) const = 0;

  /// Whether lower()/finalize() are implemented.  The exec layer consults
  /// this before planning checkpoint sharing; false routes every job
  /// through run().
  virtual bool supports_lowering() const { return false; }

  /// Lowers a program to its simulator-level form.  run() must equal
  /// lower + engine execution + finalize.  Default throws; only called
  /// when supports_lowering() is true.
  virtual LoweredRun lower(const CompiledProgram& program,
                           const RunOptions& options) const;

  /// Applies readout/shot/fold post-processing to raw engine probabilities.
  /// Default throws; only called when supports_lowering() is true.
  virtual std::vector<double> finalize(std::vector<double> engine_probs,
                                       const LoweredRun& lowered,
                                       const CompiledProgram& program,
                                       const RunOptions& options) const;

  /// Mixes everything (besides program + options) that determines run()
  /// output into \p sink and returns true, or returns false when this
  /// backend has no stable deterministic identity — which disables run
  /// caching for it.  Default: not cacheable.
  virtual bool cache_identity(FingerprintSink& sink) const;
};

/// Noisy device simulator: the reference Backend implementation standing in
/// for the paper's IBM Q devices.
class FakeBackend : public Backend {
 public:
  FakeBackend(transpile::Topology topology, noise::NoiseModel model);

  /// The paper's devices, with calibration generated from \p cal_seed.
  static FakeBackend lagos(std::uint64_t cal_seed = 7);
  static FakeBackend guadalupe(std::uint64_t cal_seed = 16);
  /// Any topology with generated calibration.
  static FakeBackend from_topology(const transpile::Topology& topology,
                                   std::uint64_t cal_seed,
                                   const noise::CalibrationConfig& cfg = {});

  const transpile::Topology& topology() const { return topology_; }
  const noise::NoiseModel& model() const { return model_; }
  noise::NoiseModel& model() { return model_; }
  const std::string& name() const override { return topology_.name(); }

  /// Measurement-error confusion-matrix knob: sets qubit \p q's readout
  /// confusion to the 2x2 row-stochastic matrix
  ///   [ 1-p_meas1_given0   p_meas1_given0 ]
  ///   [ p_meas0_given1     1-p_meas0_given1 ]
  /// and turns the readout toggle on (a knob that silently does nothing
  /// would be a trap).  Applied engine-independently in finalize(), so the
  /// density-matrix and trajectory engines honor it identically (<= 1e-12,
  /// asserted in tests) — which is what makes it usable as an injected
  /// ground truth for the characterization estimator.  Probabilities must
  /// be in [0, 1).
  void set_readout_confusion(int q, double p_meas1_given0,
                             double p_meas0_given1);
  /// Same confusion matrix on every qubit.
  void set_readout_confusion(double p_meas1_given0, double p_meas0_given1);

  /// Compiles a logical circuit for this device (noise-aware by default).
  CompiledProgram compile(
      const circ::Circuit& logical,
      const transpile::TranspileOptions& options = {}) const override;

  /// Runs a compiled program and returns the distribution over the
  /// *logical* qubits (readout error and optional shot noise included).
  std::vector<double> run(const CompiledProgram& program,
                          const RunOptions& options = {}) const override;

  /// Fully deterministic and decomposable: the exec layer may checkpoint.
  bool supports_lowering() const override { return true; }

  /// Lowers a program to its simulator-level form (compaction + model
  /// restriction + drift).  run() is exactly lower + engine execution +
  /// finalize.
  LoweredRun lower(const CompiledProgram& program,
                   const RunOptions& options) const override;

  /// Applies readout error, optional shot sampling (seeded by \p options),
  /// and the fold back onto logical qubits to raw engine probabilities
  /// produced under \p lowered.
  std::vector<double> finalize(std::vector<double> engine_probs,
                               const LoweredRun& lowered,
                               const CompiledProgram& program,
                               const RunOptions& options) const override;

  /// Noiseless execution of the same compiled program (validation oracle).
  std::vector<double> ideal(const CompiledProgram& program) const override;

  /// Wall-clock duration (ns) of the compiled program on this device.
  double duration_ns(const CompiledProgram& program) const override;

  /// Name, coupling graph, and the full calibration table: two devices that
  /// merely share a name never collide in the run cache.
  bool cache_identity(FingerprintSink& sink) const override;

 private:
  transpile::Topology topology_;
  noise::NoiseModel model_;
};

/// Restricts \p model to \p kept physical qubits (relabelled 0..k-1); edges
/// to dropped qubits are omitted.  Exposed for tests.
noise::NoiseModel restrict_model(const noise::NoiseModel& model,
                                 const std::vector<int>& kept);

/// Physical qubits a program touches (gates or measured logical qubits),
/// sorted ascending.  Exposed so the exec layer can prove two programs
/// compact identically before sharing a lowered model between them.
std::vector<int> used_qubits(const CompiledProgram& program);

/// Relabels \p physical onto local indices 0..k-1 per \p kept (every op is
/// preserved, so op indices survive compaction unchanged).
circ::Circuit compact_to(const circ::Circuit& physical,
                         const std::vector<int>& kept);

}  // namespace charter::backend
