#pragma once

/// \file program.hpp
/// The NoiseProgram tape: noisy execution lowered to a flat op sequence.
///
/// CHARTER's hot path is G+1 noisy density-matrix simulations per analysis.
/// Instead of re-walking the scheduled circuit gate-by-gate — re-deriving the
/// lazy decoherence windows and ZZ flushes and making one virtual engine call
/// per op — each (circuit, noise model) pair is lowered *once* into a
/// NoiseProgram: a flat tape of typed ops (unitary-1q, diag-1q, cx, diag-2q,
/// thermal-relaxation, depolarizing, bit-flip, kraus) with every schedule-
/// and calibration-derived parameter resolved at lowering time.  Execution is
/// then a tight interpreter loop; on the density-matrix engine it dispatches
/// devirtualized single-pass pair kernels (sim/kernels.hpp), and on both the
/// density-matrix and the trajectory engine it executes each run of
/// consecutive diagonal ops as one diag_run pass.  The kernels run on
/// the SIMD path selected at process start (math/simd_dispatch.hpp) —
/// AVX-512, AVX2+FMA, SSE2/NEON, or scalar — so tape interpretation inherits
/// the vectorized kernels at no per-op cost beyond one table load.
///
/// The pipeline is lower -> execute, on one exact tape:
///
///  - lower() ports the NoisyExecutor walk (state-prep flips, lazy per-qubit
///    T1/T2 windows, lazy static-ZZ flushes, gates with coherent
///    miscalibration, per-gate depolarizing, drive-crosstalk phases) into
///    tape ops, emitting *exactly* the engine calls the interpretive walk
///    made — tape runs are bit-identical to it, for every engine, including
///    the stochastic branch order of trajectories.
///  - run()/execute() interpret a tape region against an engine.
///
/// fused_wide() (two-qubit gate consolidation) is kept only for the
/// repository benchmark's layer probe; no execution path runs its output.
///
/// Tape positions.  The tape records where each circuit op's segment begins
/// and ends, so the exec layer's streaming and prefix-checkpoint machinery
/// is expressed as positions: a snapshot taken after circuit op i resumes at
/// op_end(i).  lower_spliced() builds a derived circuit's tape by copying
/// the byte-identical shared prefix from an already-lowered base tape and
/// resuming the clock walk from the recorded per-op clock state — so the
/// analyzer's G reversed circuits never re-lower their shared prefixes, and
/// prefix exactness is established structurally during the splice.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/schedule.hpp"
#include "math/matrix.hpp"
#include "noise/noise_model.hpp"
#include "sim/density_matrix.hpp"
#include "sim/engine.hpp"
#include "sim/trajectory.hpp"

namespace charter::noise {

/// Typed tape operation kinds.
enum class TapeOpKind : std::uint8_t {
  kUnitary1q,  ///< general 2x2 on q0 (payload -> Mat2)
  kDiag1q,     ///< diag(d0, d1) on q0 (payload -> diag slot, entries 0..1)
  kCx,         ///< CX with control q0, target q1
  kDiag2q,     ///< diagonal phase on (q0, q1) (payload -> diag slot)
  kThermal,    ///< T1/T2 channel on q0: gamma = a, pz = b
  kDepol1q,    ///< one-qubit depolarizing on q0 with p = a
  kDepol2q,    ///< two-qubit depolarizing on (q0, q1) with p = a
  kBitflip,    ///< X with probability a on q0 (state-prep error)
  kKraus1q,    ///< generic one-qubit Kraus set on q0 (payload -> set)
  kUnitary2q,  ///< dense 4x4 on (q0, q1), index bit(q0) + 2*bit(q1)
               ///< (payload -> Mat4); emitted only by fused_wide()
};

/// One tape op: fixed footprint, parameters inline, matrices via payload
/// index into the owning program's side arrays.
struct TapeOp {
  TapeOpKind kind = TapeOpKind::kDiag1q;
  std::int16_t q0 = -1;
  std::int16_t q1 = -1;
  std::uint32_t payload = 0;
  double a = 0.0;
  double b = 0.0;
};

/// A lowered noisy program over a fixed-width register.
class NoiseProgram {
 public:
  explicit NoiseProgram(int num_qubits) : num_qubits_(num_qubits) {}

  int num_qubits() const { return num_qubits_; }
  std::size_t size() const { return ops_.size(); }
  const TapeOp& op(std::size_t i) const { return ops_[i]; }

  // ---- region boundaries (fused_wide() output carries none) ----

  /// Number of circuit ops this tape was lowered from.
  std::size_t num_circuit_ops() const { return op_end_.size(); }
  /// Tape position after the state-preparation prologue.
  std::size_t prologue_end() const { return prologue_end_; }
  /// Tape position where circuit op \p i's segment begins.
  std::size_t op_begin(std::size_t i) const {
    return i == 0 ? prologue_end_ : op_end_[i - 1];
  }
  /// Tape position just past circuit op \p i's segment.
  std::size_t op_end(std::size_t i) const { return op_end_[i]; }
  /// Tape position of the final flush/decohere-to-makespan epilogue.
  std::size_t epilogue_begin() const {
    return op_end_.empty() ? prologue_end_ : op_end_.back();
  }

  // ---- execution ----

  /// Interprets ops [begin, end) against any engine (virtual dispatch).
  void run(sim::NoisyEngine& engine, std::size_t begin, std::size_t end) const;

  /// Fast paths for the final engines: the same interpretation through the
  /// concrete (devirtualized) engine.  Each maximal run of consecutive
  /// kDiag1q/kDiag2q ops in the region is one diag_run pass — two factors
  /// per op over vec(rho) (row, then conjugated column), one per op over
  /// the trajectory statevector; every other op is one kernel pass.
  /// Bit-identical to op-by-op execution, wherever the region boundaries
  /// fall.
  void run(sim::DensityMatrixEngine& engine, std::size_t begin,
           std::size_t end) const;
  void run(sim::TrajectoryEngine& engine, std::size_t begin,
           std::size_t end) const;

  /// Full execution from |0...0>: resets the engine and runs the whole tape,
  /// routing density-matrix and trajectory engines through the fast paths.  The engine width
  /// must match the program width.
  void execute(sim::NoisyEngine& engine) const;

  // ---- append API (used by lower()/fused_wide(); exposed for tests) ----

  void append_unitary_1q(const math::Mat2& u, int q);
  void append_diag_1q(math::cplx d0, math::cplx d1, int q);
  void append_cx(int c, int t);
  void append_diag_2q(const std::array<math::cplx, 4>& d, int qa, int qb);
  void append_thermal(int q, double gamma, double pz);
  void append_depol_1q(int q, double p);
  void append_depol_2q(int qa, int qb, double p);
  void append_bitflip(int q, double p);
  void append_kraus_1q(std::span<const math::Mat2> kraus, int q);
  void append_unitary_2q(const math::Mat4& u, int qa, int qb);

  // ---- payload access ----

  const math::Mat2& mat(std::uint32_t slot) const { return mats_[slot]; }
  const std::array<math::cplx, 4>& diag(std::uint32_t slot) const {
    return diags_[slot];
  }
  std::span<const math::Mat2> kraus(std::uint32_t slot) const {
    const KrausSet& set = kraus_sets_[slot];
    return {mats_.data() + set.offset, set.count};
  }
  const math::Mat4& mat4(std::uint32_t slot) const { return mats4_[slot]; }

  /// Structural 128-bit fingerprint over width, every op, and every
  /// payload.  Two tapes with equal fingerprints apply the same operations.
  std::array<std::uint64_t, 2> fingerprint() const;

  /// True when ops [begin, end) of this tape and \p other are identical
  /// (kinds, operands, parameters, and payload *contents*).
  bool region_equal(const NoiseProgram& other, std::size_t begin,
                    std::size_t end) const;

 private:
  struct KrausSet {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  /// Clock state the lowering walk carries; recorded per circuit op so a
  /// derived circuit's tape can be spliced from a shared prefix.
  struct ClockState {
    std::vector<double> qubit_clock;
    std::vector<double> zz_clock;  ///< parallel to ResumeInfo::edges
  };

  /// Present on tapes lowered with record_resume_info (the checkpoint
  /// plan's base tapes): everything lower_spliced() needs to verify a
  /// shared prefix and resume the walk mid-circuit.
  struct ResumeInfo {
    circ::Schedule sched;
    /// drive_terms[i] lists {qubit_u, qubit_v, angle} RZZ contributions
    /// applied when op i completes (temporal-overlap crosstalk).
    std::vector<std::vector<std::array<double, 3>>> drive_terms;
    std::vector<std::pair<int, int>> edges;  ///< fixed flush order (a < b)
    std::vector<ClockState> after_op;        ///< clock state after each op
  };

  friend class Lowerer;
  friend NoiseProgram fused_wide(const NoiseProgram& program);

  int num_qubits_;
  std::vector<TapeOp> ops_;
  std::vector<math::Mat2> mats_;
  std::vector<std::array<math::cplx, 4>> diags_;
  std::vector<KrausSet> kraus_sets_;
  std::vector<math::Mat4> mats4_;
  std::size_t prologue_end_ = 0;
  std::vector<std::size_t> op_end_;
  std::optional<ResumeInfo> resume_;

 public:
  bool has_resume_info() const { return resume_.has_value(); }
};

/// Lowers a basis-gate circuit under \p model into an exact tape.  Validates
/// like the executor: throws InvalidArgument for non-basis gates, circuits
/// wider than the model, or CX on uncoupled pairs.  \p record_resume_info
/// additionally stores the schedule, drive terms, and per-op clock states so
/// the tape can serve as a splice base.
NoiseProgram lower(const NoiseModel& model, const circ::Circuit& c,
                   bool record_resume_info = false);

/// Builds the exact tape of \p c — which shares ops [0, shared_ops) with
/// \p base_circuit — by copying the base tape's prefix verbatim and resuming
/// the clock walk from the recorded state, lowering only the suffix.
/// Returns nullopt when the prefix is not provably exact (differing gates,
/// schedule times, or drive-crosstalk terms — e.g. an un-isolated insertion
/// that overlaps a late-starting prefix op); callers fall back to lower().
/// Requires \p base lowered with record_resume_info.
std::optional<NoiseProgram> lower_spliced(const NoiseModel& model,
                                          const circ::Circuit& base_circuit,
                                          const NoiseProgram& base,
                                          const circ::Circuit& c,
                                          std::size_t shared_ops);

/// Two-qubit gate consolidation: accumulates runs of adjacent *coherent*
/// ops (unitaries, diagonals, CX) into per-qubit-pair clusters and emits
/// each cluster as one dense kUnitary2q (or kUnitary1q/kDiag1q/kDiag2q when
/// narrower or still diagonal) tape op.  Stochastic channels are hard
/// barriers, copied through in tape order, so a trajectory engine consumes
/// random draws in the exact tape's order and per-unravelling agreement
/// with the exact tape stays ~1e-12.  The result carries no region
/// boundaries.  No execution path uses it: it stays only because the
/// repository benchmark's layer probe (perfbench) times and executes it.
NoiseProgram fused_wide(const NoiseProgram& program);

/// Fingerprint of the tape schema itself: mixed into exec::RunCache keys so
/// cached results can never survive a change to the lowering pipeline's
/// semantics, and distinct from every per-tape fingerprint.  Bump the value
/// in program.cpp when tape semantics change.
std::array<std::uint64_t, 2> tape_schema_fingerprint();

}  // namespace charter::noise
