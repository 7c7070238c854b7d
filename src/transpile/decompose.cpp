#include "transpile/decompose.hpp"

#include <cmath>

#include "util/error.hpp"

namespace charter::transpile {

using circ::Circuit;
using circ::Gate;
using circ::GateKind;
using circ::make_gate;
using math::cplx;
using math::Mat2;

namespace {

constexpr double kTol = 1e-12;

/// Wraps an angle to (-pi, pi].
double wrap_angle(double a) {
  a = std::fmod(a, 2.0 * M_PI);
  if (a <= -M_PI) a += 2.0 * M_PI;
  if (a > M_PI) a -= 2.0 * M_PI;
  return a;
}

bool near_zero_angle(double a) { return std::fabs(wrap_angle(a)) < 1e-10; }

Gate rz_g(int q, double t, std::uint8_t f) {
  return make_gate(GateKind::RZ, {q}, {t}, f);
}
Gate sx_g(int q, std::uint8_t f) { return make_gate(GateKind::SX, {q}, {}, f); }
Gate cx_g(int c, int t, std::uint8_t f) {
  return make_gate(GateKind::CX, {c, t}, {}, f);
}

}  // namespace

EulerAngles zyz_decompose(const Mat2& u) {
  require(math::is_unitary(u, 1e-8), "zyz_decompose requires a unitary");
  EulerAngles e;
  // Remove the global phase via the determinant: det(U) = e^{2 i phase'}.
  const cplx det = u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0);
  const double det_phase = 0.5 * std::arg(det);
  // V = e^{-i det_phase} U is in SU(2):
  //   V = [[cos(t/2) e^{-i(p+l)/2}, -sin(t/2) e^{-i(p-l)/2}],
  //        [sin(t/2) e^{ i(p-l)/2},  cos(t/2) e^{ i(p+l)/2}]]
  const cplx v00 = u(0, 0) * std::exp(cplx(0.0, -det_phase));
  const cplx v10 = u(1, 0) * std::exp(cplx(0.0, -det_phase));
  const double c = std::abs(v00);
  const double s = std::abs(v10);
  e.theta = 2.0 * std::atan2(s, c);
  if (s < kTol) {
    // Diagonal: only phi+lambda matters; put it all in lambda.
    e.phi = 0.0;
    e.lambda = 2.0 * std::arg(u(1, 1) * std::exp(cplx(0.0, -det_phase)));
    // (arg(v11) = (p+l)/2)
  } else if (c < kTol) {
    // Anti-diagonal: only phi-lambda matters.
    e.phi = 2.0 * std::arg(v10);
    e.lambda = 0.0;
  } else {
    const double sum = 2.0 * std::arg(u(1, 1) * std::exp(cplx(0.0, -det_phase)));
    const double diff = 2.0 * std::arg(v10);
    e.phi = 0.5 * (sum + diff);
    e.lambda = 0.5 * (sum - diff);
  }
  e.theta = wrap_angle(e.theta);
  if (e.theta < 0.0) {
    // Keep theta in [0, pi] by absorbing the sign into phi/lambda.
    e.theta = -e.theta;
    e.phi += M_PI;
    e.lambda += M_PI;
  }
  e.phi = wrap_angle(e.phi);
  e.lambda = wrap_angle(e.lambda);
  e.phase = det_phase;
  return e;
}

std::vector<Gate> synthesize_1q(const Mat2& u, int qubit, std::uint8_t flags) {
  const EulerAngles e = zyz_decompose(u);
  std::vector<Gate> out;
  if (near_zero_angle(e.theta)) {
    // Pure Z rotation.
    const double angle = wrap_angle(e.phi + e.lambda);
    if (!near_zero_angle(angle)) out.push_back(rz_g(qubit, angle, flags));
    return out;
  }
  // General case: U3(t,p,l) ~ RZ(p+pi) SX RZ(t+pi) SX RZ(l), applied
  // rightmost first.
  const double a1 = wrap_angle(e.lambda);
  const double a2 = wrap_angle(e.theta + M_PI);
  const double a3 = wrap_angle(e.phi + M_PI);
  if (!near_zero_angle(a1)) out.push_back(rz_g(qubit, a1, flags));
  out.push_back(sx_g(qubit, flags));
  if (!near_zero_angle(a2)) out.push_back(rz_g(qubit, a2, flags));
  out.push_back(sx_g(qubit, flags));
  if (!near_zero_angle(a3)) out.push_back(rz_g(qubit, a3, flags));
  return out;
}

std::vector<Gate> expand_gate(const Gate& g) {
  const std::uint8_t f = g.flags;
  const int q0 = g.qubits[0];
  const int q1 = g.num_qubits > 1 ? g.qubits[1] : -1;
  const int q2 = g.num_qubits > 2 ? g.qubits[2] : -1;
  switch (g.kind) {
    case GateKind::ID:
      return {};
    case GateKind::H:
      // H ~ RZ(pi/2) SX RZ(pi/2).
      return {rz_g(q0, M_PI_2, f), sx_g(q0, f), rz_g(q0, M_PI_2, f)};
    case GateKind::S:
      return {rz_g(q0, M_PI_2, f)};
    case GateKind::SDG:
      return {rz_g(q0, -M_PI_2, f)};
    case GateKind::T:
      return {rz_g(q0, M_PI_4, f)};
    case GateKind::TDG:
      return {rz_g(q0, -M_PI_4, f)};
    case GateKind::RX:
      // RX(t) = U3(t, -pi/2, pi/2).
      return {make_gate(GateKind::U3, {q0}, {g.params[0], -M_PI_2, M_PI_2},
                        f)};
    case GateKind::RY:
      return {make_gate(GateKind::U3, {q0}, {g.params[0], 0.0, 0.0}, f)};
    case GateKind::U3: {
      Gate tmp = g;
      return synthesize_1q(circ::gate_unitary_1q(tmp), q0, f);
    }
    case GateKind::CZ:
      // CZ = (I (x) H) CX (I (x) H).
      return {make_gate(GateKind::H, {q1}, {}, f), cx_g(q0, q1, f),
              make_gate(GateKind::H, {q1}, {}, f)};
    case GateKind::CP: {
      const double l = g.params[0];
      return {rz_g(q0, l / 2.0, f),  cx_g(q0, q1, f),
              rz_g(q1, -l / 2.0, f), cx_g(q0, q1, f),
              rz_g(q1, l / 2.0, f)};
    }
    case GateKind::CRZ: {
      const double t = g.params[0];
      return {rz_g(q1, t / 2.0, f), cx_g(q0, q1, f), rz_g(q1, -t / 2.0, f),
              cx_g(q0, q1, f)};
    }
    case GateKind::SWAP:
      return {cx_g(q0, q1, f), cx_g(q1, q0, f), cx_g(q0, q1, f)};
    case GateKind::RZZ:
      return {cx_g(q0, q1, f), rz_g(q1, g.params[0], f), cx_g(q0, q1, f)};
    case GateKind::RXX:
      return {make_gate(GateKind::H, {q0}, {}, f),
              make_gate(GateKind::H, {q1}, {}, f),
              cx_g(q0, q1, f),
              rz_g(q1, g.params[0], f),
              cx_g(q0, q1, f),
              make_gate(GateKind::H, {q0}, {}, f),
              make_gate(GateKind::H, {q1}, {}, f)};
    case GateKind::RYY:
      // Conjugate RZZ by RX(pi/2) on both qubits.
      return {make_gate(GateKind::RX, {q0}, {-M_PI_2}, f),
              make_gate(GateKind::RX, {q1}, {-M_PI_2}, f),
              cx_g(q0, q1, f),
              rz_g(q1, g.params[0], f),
              cx_g(q0, q1, f),
              make_gate(GateKind::RX, {q0}, {M_PI_2}, f),
              make_gate(GateKind::RX, {q1}, {M_PI_2}, f)};
    case GateKind::CCX:
      // Standard 6-CX Toffoli.
      return {make_gate(GateKind::H, {q2}, {}, f),
              cx_g(q1, q2, f),
              make_gate(GateKind::TDG, {q2}, {}, f),
              cx_g(q0, q2, f),
              make_gate(GateKind::T, {q2}, {}, f),
              cx_g(q1, q2, f),
              make_gate(GateKind::TDG, {q2}, {}, f),
              cx_g(q0, q2, f),
              make_gate(GateKind::T, {q1}, {}, f),
              make_gate(GateKind::T, {q2}, {}, f),
              make_gate(GateKind::H, {q2}, {}, f),
              cx_g(q0, q1, f),
              make_gate(GateKind::T, {q0}, {}, f),
              make_gate(GateKind::TDG, {q1}, {}, f),
              cx_g(q0, q1, f)};
    default:
      throw charter::InvalidArgument("expand_gate cannot expand " +
                                     circ::gate_name(g.kind));
  }
}

Circuit decompose_to_basis(const Circuit& c) {
  Circuit out(c.num_qubits());
  // Worklist rewriting: expand until only basis gates remain.
  std::vector<Gate> work(c.ops().begin(), c.ops().end());
  std::vector<Gate> next;
  int rounds = 0;
  bool changed = true;
  while (changed) {
    require(++rounds <= 8, "decomposition did not converge");
    changed = false;
    next.clear();
    for (const Gate& g : work) {
      if (circ::is_basis_gate(g.kind) || g.kind == GateKind::BARRIER ||
          g.kind == GateKind::RESET) {
        next.push_back(g);
        continue;
      }
      const std::vector<Gate> expansion = expand_gate(g);
      next.insert(next.end(), expansion.begin(), expansion.end());
      changed = true;
    }
    work.swap(next);
  }
  for (const Gate& g : work) out.append(g);
  return out;
}

}  // namespace charter::transpile
