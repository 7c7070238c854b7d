#include "sim/statevector.hpp"

#include <cmath>

#include "sim/kernels.hpp"
#include "util/error.hpp"

namespace charter::sim {

using circ::Gate;
using circ::GateKind;
using math::cplx;

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  require(num_qubits >= 1 && num_qubits <= 28,
          "statevector supports 1..28 qubits");
  amps_.assign(dim(), cplx(0.0));
  amps_[0] = 1.0;
}

void Statevector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx(0.0));
  amps_[0] = 1.0;
}

void Statevector::set_basis_state(std::uint64_t bits) {
  require(bits < dim(), "basis state out of range");
  std::fill(amps_.begin(), amps_.end(), cplx(0.0));
  amps_[bits] = 1.0;
}

void Statevector::apply(const Gate& g) {
  cplx* a = amps_.data();
  const std::uint64_t d = dim();
  switch (g.kind) {
    case GateKind::BARRIER:
    case GateKind::ID:
      return;
    case GateKind::X:
      kernels::apply_x(a, d, g.qubits[0]);
      return;
    case GateKind::RZ: {
      const cplx i(0.0, 1.0);
      kernels::apply_diag_1q(a, d, g.qubits[0],
                             std::exp(-i * (g.params[0] / 2.0)),
                             std::exp(i * (g.params[0] / 2.0)));
      return;
    }
    case GateKind::S:
      kernels::apply_diag_1q(a, d, g.qubits[0], 1.0, cplx(0.0, 1.0));
      return;
    case GateKind::SDG:
      kernels::apply_diag_1q(a, d, g.qubits[0], 1.0, cplx(0.0, -1.0));
      return;
    case GateKind::T:
      kernels::apply_diag_1q(a, d, g.qubits[0], 1.0,
                             std::exp(cplx(0.0, M_PI / 4.0)));
      return;
    case GateKind::TDG:
      kernels::apply_diag_1q(a, d, g.qubits[0], 1.0,
                             std::exp(cplx(0.0, -M_PI / 4.0)));
      return;
    case GateKind::CX:
      kernels::apply_cx(a, d, g.qubits[0], g.qubits[1]);
      return;
    case GateKind::SWAP:
      kernels::apply_swap(a, d, g.qubits[0], g.qubits[1]);
      return;
    case GateKind::CCX:
      kernels::apply_ccx(a, d, g.qubits[0], g.qubits[1], g.qubits[2]);
      return;
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::CRZ:
    case GateKind::RZZ: {
      const math::Mat4 u = circ::gate_unitary_2q(g);
      kernels::apply_diag_2q(a, d, g.qubits[0], g.qubits[1],
                             {u(0, 0), u(1, 1), u(2, 2), u(3, 3)});
      return;
    }
    case GateKind::RXX:
    case GateKind::RYY:
      kernels::apply_2q(a, d, g.qubits[0], g.qubits[1],
                        circ::gate_unitary_2q(g));
      return;
    default:
      // Remaining kinds are generic one-qubit unitaries.
      kernels::apply_1q(a, d, g.qubits[0], circ::gate_unitary_1q(g));
      return;
  }
}

void Statevector::apply(const circ::Circuit& c) {
  require(c.num_qubits() == num_qubits_,
          "circuit width does not match statevector");
  for (const Gate& g : c.ops()) apply(g);
}

void Statevector::apply_unitary_1q(const math::Mat2& u, int q) {
  require(q >= 0 && q < num_qubits_, "qubit out of range");
  kernels::apply_1q(amps_.data(), dim(), q, u);
}

void Statevector::apply_unitary_2q(const math::Mat4& u, int qa, int qb) {
  require(qa >= 0 && qa < num_qubits_ && qb >= 0 && qb < num_qubits_ &&
              qa != qb,
          "qubits out of range");
  kernels::apply_2q(amps_.data(), dim(), qa, qb, u);
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> p(dim());
  const cplx* a = amps_.data();
  util::parallel_for(static_cast<std::int64_t>(dim()),
                     [&](std::int64_t i) { p[i] = std::norm(a[i]); });
  return p;
}

namespace {

/// Sums terms [0, n) with \p range_sum in a fixed association: serial index
/// order below the amplitude-parallelism threshold (the order a pool worker
/// or a one-thread run produces), the thread-count-invariant chunked sum
/// above it.  Either way the result never depends on the thread count, on or
/// off a pool, so a trajectory's renormalizations are the same bits
/// wherever it runs.
template <typename RangeSum>
double fixed_order_sum(int num_qubits, std::uint64_t n, RangeSum range_sum) {
  const auto len = static_cast<std::int64_t>(n);
  if (num_qubits >= kAmpParallelMinQubits)
    return util::parallel_sum_chunked(len, range_sum);
  return range_sum(std::int64_t{0}, len);
}

}  // namespace

double Statevector::probability_one(int q) const {
  const std::uint64_t mask = 1ULL << q;
  const cplx* a = amps_.data();
  // Only the bit-q = 1 half contributes: the full loop's other terms are
  // exact +0.0, so visiting just the set-bit indices in index order (within
  // the same chunks) gives the full loop's sum bit for bit at half the reads.
  // Chunk starts are multiples of a power of two, so b | mask is the first
  // set-bit index at or past b, and (i + 1) | mask steps to the next one.
  return fixed_order_sum(num_qubits_, dim(), [=](std::int64_t b,
                                                 std::int64_t e) {
    double s = 0.0;
    const auto end = static_cast<std::uint64_t>(e);
    for (std::uint64_t i = static_cast<std::uint64_t>(b) | mask; i < end;
         i = (i + 1) | mask)
      s += std::norm(a[i]);
    return s;
  });
}

double Statevector::norm_sq() const {
  const cplx* a = amps_.data();
  return fixed_order_sum(num_qubits_, dim(), [=](std::int64_t b,
                                                 std::int64_t e) {
    double s = 0.0;
    for (std::int64_t i = b; i < e; ++i) s += std::norm(a[i]);
    return s;
  });
}

void Statevector::normalize() {
  const double n = std::sqrt(norm_sq());
  CHARTER_ASSERT(n > 0.0, "cannot normalize zero state");
  kernels::scale(amps_.data(), dim(), 1.0 / n);
}

cplx Statevector::inner_product(const Statevector& other) const {
  require(other.num_qubits_ == num_qubits_, "width mismatch");
  cplx acc = 0.0;
  for (std::uint64_t i = 0; i < dim(); ++i)
    acc += std::conj(amps_[i]) * other.amps_[i];
  return acc;
}

std::vector<double> ideal_probabilities(const circ::Circuit& c) {
  Statevector sv(c.num_qubits());
  sv.apply(c);
  return sv.probabilities();
}

}  // namespace charter::sim
