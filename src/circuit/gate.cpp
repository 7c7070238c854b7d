#include "circuit/gate.hpp"

#include <cmath>

#include "util/error.hpp"

namespace charter::circ {

using math::cplx;
using math::Mat2;
using math::Mat4;

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::RZ: return "rz";
    case GateKind::SX: return "sx";
    case GateKind::SXDG: return "sxdg";
    case GateKind::X: return "x";
    case GateKind::CX: return "cx";
    case GateKind::ID: return "id";
    case GateKind::H: return "h";
    case GateKind::S: return "s";
    case GateKind::SDG: return "sdg";
    case GateKind::T: return "t";
    case GateKind::TDG: return "tdg";
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::U3: return "u3";
    case GateKind::CZ: return "cz";
    case GateKind::CP: return "cp";
    case GateKind::CRZ: return "crz";
    case GateKind::SWAP: return "swap";
    case GateKind::RZZ: return "rzz";
    case GateKind::RXX: return "rxx";
    case GateKind::RYY: return "ryy";
    case GateKind::CCX: return "ccx";
    case GateKind::RESET: return "reset";
    case GateKind::BARRIER: return "barrier";
  }
  return "?";
}

GateKind gate_kind_from_name(const std::string& name) {
  static constexpr GateKind kAll[] = {
      GateKind::RZ,   GateKind::SX,  GateKind::SXDG, GateKind::X,
      GateKind::CX,   GateKind::ID,  GateKind::H,    GateKind::S,
      GateKind::SDG,  GateKind::T,   GateKind::TDG,  GateKind::RX,
      GateKind::RY,   GateKind::U3,  GateKind::CZ,   GateKind::CP,
      GateKind::CRZ,  GateKind::SWAP, GateKind::RZZ, GateKind::RXX,
      GateKind::RYY,  GateKind::CCX, GateKind::RESET, GateKind::BARRIER};
  for (const GateKind k : kAll)
    if (gate_name(k) == name) return k;
  throw NotFound("unknown gate name: " + name);
}

int gate_arity(GateKind kind) {
  switch (kind) {
    case GateKind::BARRIER:
      return 0;
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::CP:
    case GateKind::CRZ:
    case GateKind::SWAP:
    case GateKind::RZZ:
    case GateKind::RXX:
    case GateKind::RYY:
      return 2;
    case GateKind::CCX:
      return 3;
    default:
      return 1;
  }
}

int gate_param_count(GateKind kind) {
  switch (kind) {
    case GateKind::RZ:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::CP:
    case GateKind::CRZ:
    case GateKind::RZZ:
    case GateKind::RXX:
    case GateKind::RYY:
      return 1;
    case GateKind::U3:
      return 3;
    default:
      return 0;
  }
}

bool is_basis_gate(GateKind kind) {
  switch (kind) {
    case GateKind::RZ:
    case GateKind::SX:
    case GateKind::SXDG:
    case GateKind::X:
    case GateKind::CX:
      return true;
    default:
      return false;
  }
}

bool is_virtual(GateKind kind) {
  return kind == GateKind::RZ || kind == GateKind::ID ||
         kind == GateKind::BARRIER;
}

bool is_one_qubit_physical(GateKind kind) {
  return gate_arity(kind) == 1 && !is_virtual(kind);
}

Gate make_gate(GateKind kind, std::initializer_list<int> qubits,
               std::initializer_list<double> params, std::uint8_t flags) {
  require(static_cast<int>(qubits.size()) == gate_arity(kind),
          "gate " + gate_name(kind) + " expects " +
              std::to_string(gate_arity(kind)) + " qubits, got " +
              std::to_string(qubits.size()));
  require(static_cast<int>(params.size()) == gate_param_count(kind),
          "gate " + gate_name(kind) + " expects " +
              std::to_string(gate_param_count(kind)) + " params, got " +
              std::to_string(params.size()));
  Gate g;
  g.kind = kind;
  g.flags = flags;
  g.num_qubits = static_cast<std::uint8_t>(qubits.size());
  g.num_params = static_cast<std::uint8_t>(params.size());
  int i = 0;
  for (int q : qubits) {
    require(q >= 0, "negative qubit index");
    g.qubits[i++] = static_cast<std::int16_t>(q);
  }
  // Distinct operands.
  for (int a = 0; a < g.num_qubits; ++a)
    for (int b = a + 1; b < g.num_qubits; ++b)
      require(g.qubits[a] != g.qubits[b], "repeated qubit operand");
  i = 0;
  for (double p : params) g.params[i++] = p;
  return g;
}

Gate make_barrier(std::uint8_t flags) {
  Gate g;
  g.kind = GateKind::BARRIER;
  g.flags = flags;
  g.num_qubits = 0;
  g.num_params = 0;
  return g;
}

Gate inverse_gate(const Gate& g) {
  require(g.kind != GateKind::RESET,
          "reset is non-unitary and has no inverse");
  Gate inv = g;
  switch (g.kind) {
    // Self-inverse kinds.
    case GateKind::X:
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::SWAP:
    case GateKind::CCX:
    case GateKind::H:
    case GateKind::ID:
    case GateKind::BARRIER:
      break;
    case GateKind::SX:
      inv.kind = GateKind::SXDG;
      break;
    case GateKind::SXDG:
      inv.kind = GateKind::SX;
      break;
    case GateKind::S:
      inv.kind = GateKind::SDG;
      break;
    case GateKind::SDG:
      inv.kind = GateKind::S;
      break;
    case GateKind::T:
      inv.kind = GateKind::TDG;
      break;
    case GateKind::TDG:
      inv.kind = GateKind::T;
      break;
    // Rotations invert by negating the angle.
    case GateKind::RZ:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::CP:
    case GateKind::CRZ:
    case GateKind::RZZ:
    case GateKind::RXX:
    case GateKind::RYY:
      inv.params[0] = -g.params[0];
      break;
    case GateKind::U3:
      // U3(t,p,l)^dag = U3(-t,-l,-p).
      inv.params[0] = -g.params[0];
      inv.params[1] = -g.params[2];
      inv.params[2] = -g.params[1];
      break;
    case GateKind::RESET:
      break;  // rejected by the require above
  }
  return inv;
}

Mat2 gate_unitary_1q(const Gate& g) {
  require(gate_arity(g.kind) == 1, "gate_unitary_1q needs a one-qubit gate");
  const cplx i(0.0, 1.0);
  Mat2 u;
  switch (g.kind) {
    case GateKind::ID:
      return Mat2::identity();
    case GateKind::X:
      u(0, 1) = 1.0;
      u(1, 0) = 1.0;
      return u;
    case GateKind::SX:
      u(0, 0) = 0.5 * (1.0 + i);
      u(0, 1) = 0.5 * (1.0 - i);
      u(1, 0) = 0.5 * (1.0 - i);
      u(1, 1) = 0.5 * (1.0 + i);
      return u;
    case GateKind::SXDG:
      u(0, 0) = 0.5 * (1.0 - i);
      u(0, 1) = 0.5 * (1.0 + i);
      u(1, 0) = 0.5 * (1.0 + i);
      u(1, 1) = 0.5 * (1.0 - i);
      return u;
    case GateKind::H:
      u(0, 0) = u(0, 1) = u(1, 0) = M_SQRT1_2;
      u(1, 1) = -M_SQRT1_2;
      return u;
    case GateKind::S:
      u(0, 0) = 1.0;
      u(1, 1) = i;
      return u;
    case GateKind::SDG:
      u(0, 0) = 1.0;
      u(1, 1) = -i;
      return u;
    case GateKind::T:
      u(0, 0) = 1.0;
      u(1, 1) = std::exp(i * (M_PI / 4.0));
      return u;
    case GateKind::TDG:
      u(0, 0) = 1.0;
      u(1, 1) = std::exp(-i * (M_PI / 4.0));
      return u;
    case GateKind::RZ: {
      const double t = g.params[0];
      u(0, 0) = std::exp(-i * (t / 2.0));
      u(1, 1) = std::exp(i * (t / 2.0));
      return u;
    }
    case GateKind::RX: {
      const double t = g.params[0];
      u(0, 0) = std::cos(t / 2.0);
      u(0, 1) = -i * std::sin(t / 2.0);
      u(1, 0) = -i * std::sin(t / 2.0);
      u(1, 1) = std::cos(t / 2.0);
      return u;
    }
    case GateKind::RY: {
      const double t = g.params[0];
      u(0, 0) = std::cos(t / 2.0);
      u(0, 1) = -std::sin(t / 2.0);
      u(1, 0) = std::sin(t / 2.0);
      u(1, 1) = std::cos(t / 2.0);
      return u;
    }
    case GateKind::U3: {
      const double t = g.params[0], p = g.params[1], l = g.params[2];
      u(0, 0) = std::cos(t / 2.0);
      u(0, 1) = -std::exp(i * l) * std::sin(t / 2.0);
      u(1, 0) = std::exp(i * p) * std::sin(t / 2.0);
      u(1, 1) = std::exp(i * (p + l)) * std::cos(t / 2.0);
      return u;
    }
    default:
      break;
  }
  throw InvalidArgument("no 1q unitary for gate " + gate_name(g.kind));
}

Mat4 gate_unitary_2q(const Gate& g) {
  require(gate_arity(g.kind) == 2, "gate_unitary_2q needs a two-qubit gate");
  const cplx i(0.0, 1.0);
  Mat4 u;
  // Index convention: idx = bit(qubits[0]) + 2*bit(qubits[1]).
  switch (g.kind) {
    case GateKind::CX:
      // Control = qubits[0] (low index bit): flips bit(qubits[1]) when set.
      u(0, 0) = 1.0;
      u(2, 2) = 1.0;
      u(3, 1) = 1.0;
      u(1, 3) = 1.0;
      return u;
    case GateKind::CZ:
      u = Mat4::identity();
      u(3, 3) = -1.0;
      return u;
    case GateKind::CP:
      u = Mat4::identity();
      u(3, 3) = std::exp(i * g.params[0]);
      return u;
    case GateKind::CRZ: {
      // RZ on qubits[1] when control qubits[0] (low bit) is 1.
      const double t = g.params[0];
      u = Mat4::identity();
      u(1, 1) = std::exp(-i * (t / 2.0));  // control=1, target=0
      u(3, 3) = std::exp(i * (t / 2.0));   // control=1, target=1
      return u;
    }
    case GateKind::SWAP:
      u(0, 0) = 1.0;
      u(1, 2) = 1.0;
      u(2, 1) = 1.0;
      u(3, 3) = 1.0;
      return u;
    case GateKind::RZZ: {
      const double t = g.params[0];
      const cplx em = std::exp(-i * (t / 2.0)), ep = std::exp(i * (t / 2.0));
      u(0, 0) = em;
      u(1, 1) = ep;
      u(2, 2) = ep;
      u(3, 3) = em;
      return u;
    }
    case GateKind::RXX: {
      const double c = std::cos(g.params[0] / 2.0);
      const cplx s = -i * std::sin(g.params[0] / 2.0);
      u(0, 0) = c;
      u(1, 1) = c;
      u(2, 2) = c;
      u(3, 3) = c;
      u(0, 3) = s;
      u(3, 0) = s;
      u(1, 2) = s;
      u(2, 1) = s;
      return u;
    }
    case GateKind::RYY: {
      const double c = std::cos(g.params[0] / 2.0);
      const cplx s = -i * std::sin(g.params[0] / 2.0);
      u(0, 0) = c;
      u(1, 1) = c;
      u(2, 2) = c;
      u(3, 3) = c;
      u(0, 3) = -s;
      u(3, 0) = -s;
      u(1, 2) = s;
      u(2, 1) = s;
      return u;
    }
    default:
      break;
  }
  throw InvalidArgument("no 2q unitary for gate " + gate_name(g.kind));
}

}  // namespace charter::circ
