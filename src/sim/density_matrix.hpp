#pragma once

/// \file density_matrix.hpp
/// Exact density-matrix engine.
///
/// Stores vec(rho) column-major as a 2n-qubit pseudo-state: index
/// r + 2^n * c holds rho_{rc}.  A unitary U on qubit q becomes
/// U on pseudo-qubit q and conj(U) on pseudo-qubit q+n; the row and column
/// updates are fused into a single pass by the pair kernels
/// (kernels::apply_*_pair) and, for diagonal gates, by a 2-factor
/// kernels::diag_run — bit-identical to the sequential two-pass forms but
/// with half the memory traffic.  apply_diag_run() takes longer runs of
/// diagonal factors in the same single pass.  Noise channels use fused
/// single-pass closed forms (see DESIGN.md):
///  - thermal relaxation mixes the 2x2 qubit blocks directly,
///  - depolarizing mixes diagonal entries toward the block average and
///    scales coherences.
///
/// The class is final so that the NoiseProgram tape interpreter's concrete
/// overload (noise/program.hpp) dispatches every op without a virtual call.
///
/// Memory is 16 bytes * 4^n: n=10 -> 16 MiB, n=11 -> 64 MiB; the backend
/// switches to the trajectory engine above kMaxQubits.

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace charter::math::simd {
struct DiagFactor;
}  // namespace charter::math::simd

namespace charter::sim {

/// Exact open-system simulator implementing NoisyEngine.
class DensityMatrixEngine final : public NoisyEngine {
 public:
  /// Largest width the backend will pick this engine for by default.
  static constexpr int kMaxQubits = 11;

  explicit DensityMatrixEngine(int num_qubits);

  int num_qubits() const override { return num_qubits_; }
  void reset() override;

  void apply_unitary_1q(const math::Mat2& u, int q) override;
  void apply_diag_1q(math::cplx d0, math::cplx d1, int q) override;
  void apply_cx(int c, int t) override;
  void apply_diag_2q(const std::array<math::cplx, 4>& d, int qa,
                     int qb) override;
  void apply_unitary_2q(const math::Mat4& u, int qa, int qb) override;
  void apply_unitary_3q(const std::array<math::cplx, 64>& u, int qa, int qb,
                        int qc) override;

  void apply_thermal_relaxation(int q, double gamma, double pz) override;
  void apply_depolarizing_1q(int q, double p) override;
  void apply_depolarizing_2q(int qa, int qb, double p) override;
  void apply_bitflip(int q, double p) override;
  void apply_kraus_1q(std::span<const math::Mat2> kraus, int q) override;

  std::vector<double> probabilities() const override;

  std::unique_ptr<NoisyEngine> clone() const override;

  /// Diagonal factors one diagonal op contributes to a run: two on vec(rho)
  /// (the trajectory engine takes one).
  static constexpr std::size_t kDiagFactorsPerOp = 2;

  /// Writes the two vec(rho) factors of the diagonal \p d on (qa, qb) to
  /// out[0..1]: d on the row pseudo-qubits, then conj(d) on the column
  /// pseudo-qubits.  qb < 0 marks a one-qubit diagonal diag(d[0], d[1]) on
  /// qa.  apply_diag_1q/apply_diag_2q are exactly these 2-factor runs.
  void diag_factors(const std::array<math::cplx, 4>& d, int qa, int qb,
                    math::simd::DiagFactor* out) const;

  /// Applies \p count diagonal factors in order in one pass over vec(rho);
  /// bit-identical to applying their ops one at a time.
  void apply_diag_run(const math::simd::DiagFactor* f, std::size_t count);

  /// Copies vec(rho) into \p out (cheap snapshot for checkpointing; the
  /// scratch buffers are transient and excluded).
  void save_state(std::vector<math::cplx>& out) const { out = rho_; }

  /// Restores a state saved by save_state(); width must match.
  void load_state(const std::vector<math::cplx>& in);

  /// Bytes one saved snapshot occupies (16 bytes * 4^n).
  std::size_t state_bytes() const {
    return dim2() * sizeof(math::cplx);
  }

  /// Trace of rho (should remain 1 under CPTP evolution).
  double trace() const;

  /// Purity Tr(rho^2); 1 for pure states, 1/2^n for maximally mixed.
  double purity() const;

  /// Raw vec(rho) access for tests.
  const std::vector<math::cplx>& raw() const { return rho_; }

 private:
  std::uint64_t dim() const { return std::uint64_t{1} << num_qubits_; }
  std::uint64_t dim2() const { return std::uint64_t{1} << (2 * num_qubits_); }

  int num_qubits_;
  std::vector<math::cplx> rho_;
  // Scratch buffers for the generic Kraus path.
  std::vector<math::cplx> scratch_;
  std::vector<math::cplx> accum_;
};

}  // namespace charter::sim
