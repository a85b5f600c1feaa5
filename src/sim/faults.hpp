#pragma once

#include <array>
#include <cassert>
#include <cstdint>

#include "circuit/circuit.hpp"
#include "sim/pauli_frame.hpp"

namespace ftsp::sim {

/// Coarse classification of fault locations for biased noise models.
enum class LocationKind : std::size_t {
  OneQubit = 0,     ///< H (single-qubit unitaries).
  TwoQubit = 1,     ///< CNOT.
  Measurement = 2,  ///< MeasZ / MeasX outcome flips.
  Init = 3,         ///< PrepZ / PrepX.
};

constexpr std::size_t kNumLocationKinds = 4;

LocationKind location_kind(circuit::GateKind kind);

/// Number of fault operators at a location of `kind`: the location
/// right after each gate fails with the kind's probability and draws
/// uniformly from this many operators (see `fault_op`).
inline constexpr std::array<std::size_t, kNumLocationKinds> kNumFaultOps = {
    3, 15, 1, 1};
constexpr std::size_t num_fault_ops(LocationKind kind) {
  return kNumFaultOps[static_cast<std::size_t>(kind)];
}

/// One fault operator at a circuit location, stored sparsely (a fault
/// touches at most the two qubits of the faulty operation).
struct FaultOp {
  struct Term {
    std::size_t qubit = 0;
    bool x = false;
    bool z = false;
  };
  std::array<Term, 2> terms{};
  int num_terms = 0;
  bool flip_outcome = false;  ///< Measurement faults flip the classical bit.
};

/// Fault operator `i` (< `num_fault_ops` of the gate's kind) of the
/// E1_1 location right after `gate`. The numbering is part of every
/// sampling function, which draws the op index, so it is a contract:
///   CNOT    -> the 15 non-identity two-qubit Paulis: with k = i + 1,
///              Pauli k >> 2 on q0 and k & 3 on q1 (bit 0 = X,
///              bit 1 = Z);
///   H       -> X, Y, Z on q0;
///   PrepZ   -> X (prepared |1>); PrepX -> Z (prepared |->);
///   MeasZ/X -> the outcome flipped.
inline FaultOp fault_op(const circuit::Gate& gate, std::size_t i) {
  assert(i < num_fault_ops(location_kind(gate.kind)));
  FaultOp op;
  // Single-qubit Paulis have bit 0 = X and bit 1 = Z; 0 adds no term.
  static constexpr std::size_t kHadamardPaulis[] = {1, 3, 2};  // X, Y, Z.
  const auto add = [&op](std::size_t qubit, std::size_t pauli) {
    if (pauli != 0) {
      op.terms[static_cast<std::size_t>(op.num_terms++)] = {
          qubit, (pauli & 1) != 0, (pauli & 2) != 0};
    }
  };
  switch (gate.kind) {
    case circuit::GateKind::Cnot:
      add(gate.q0, (i + 1) >> 2);  // k = i + 1 skips the identity.
      add(gate.q1, (i + 1) & 3);
      break;
    case circuit::GateKind::H:
      add(gate.q0, kHadamardPaulis[i]);
      break;
    case circuit::GateKind::PrepZ:
      add(gate.q0, 1);  // Prepared |1>.
      break;
    case circuit::GateKind::PrepX:
      add(gate.q0, 2);  // Prepared |->.
      break;
    case circuit::GateKind::MeasZ:
    case circuit::GateKind::MeasX:
      op.flip_outcome = true;
      break;
  }
  return op;
}

/// Injects `op` into the frame. For measurement faults the gate's
/// classical bit is flipped, so the owning gate must be passed in.
void apply_fault(PauliFrame& frame, const FaultOp& op,
                 const circuit::Gate& gate);

/// The one scalar fault walk: runs `c` on a fresh frame whose data
/// qubits (the first `data.num_qubits()`) start out carrying `data`.
/// After gate g it injects `fault_op(gate, choose(g))` when
/// `choose(g) >= 0`. Writes the data qubits' error back into `data` and
/// returns the outcome flips.
template <typename Chooser>
f2::BitVec run_circuit(const circuit::Circuit& c, qec::Pauli& data,
                       Chooser&& choose) {
  PauliFrame frame(c);
  const std::size_t n = data.num_qubits();
  for (std::size_t q = 0; q < n; ++q) {
    frame.error.x.set(q, data.x.get(q));
    frame.error.z.set(q, data.z.get(q));
  }
  const auto& gates = c.gates();
  for (std::size_t g = 0; g < gates.size(); ++g) {
    apply_gate(frame, gates[g]);
    if (const int op = choose(g); op >= 0) {
      apply_fault(frame, fault_op(gates[g], static_cast<std::size_t>(op)),
                  gates[g]);
    }
  }
  for (std::size_t q = 0; q < n; ++q) {
    data.x.set(q, frame.error.x.get(q));
    data.z.set(q, frame.error.z.get(q));
  }
  f2::BitVec flips(c.num_cbits());
  for (std::size_t i = 0; i < c.num_cbits(); ++i) {
    flips.set(i, frame.outcomes[i]);
  }
  return flips;
}

/// Per-kind fault probabilities. `e1_1(p)` reproduces the paper's uniform
/// model; other settings express measurement- or gate-biased hardware.
struct NoiseParams {
  std::array<double, kNumLocationKinds> rates{};

  static NoiseParams e1_1(double p) {
    NoiseParams params;
    params.rates = {p, p, p, p};
    return params;
  }
  static NoiseParams biased(double p1, double p2, double p_meas,
                            double p_init) {
    NoiseParams params;
    params.rates = {p1, p2, p_meas, p_init};
    return params;
  }

  double rate(LocationKind kind) const {
    return rates[static_cast<std::size_t>(kind)];
  }
};

/// Throws `std::invalid_argument("<who>: rates must be in [0,1)")`
/// unless every rate lies in [0,1); a NaN rate is rejected.
void validate_rates(const NoiseParams& params, const char* who);

/// Throws `std::invalid_argument("<who>: <name> must be in (0,1)")`
/// unless 0 < p < 1; NaN is rejected.
void validate_uniform_rate(double p, const char* who, const char* name);

}  // namespace ftsp::sim
