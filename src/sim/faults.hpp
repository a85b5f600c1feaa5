#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/pauli_frame.hpp"

namespace ftsp::sim {

/// One possible fault operator at a circuit location, stored sparsely
/// (a fault touches at most the two qubits of the faulty operation).
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

/// A fault location: the set of possible fault operators occurring right
/// after gate `gate_index` of a circuit. Under the E1_1 depolarizing model
/// every location fails independently with probability p, drawing
/// uniformly from `ops`:
///   CNOT      -> 15 two-qubit Paulis,
///   H         -> 3 single-qubit Paulis,
///   PrepZ (X) -> 1 op: preparation flipped (X resp. Z error),
///   MeasZ/X   -> 1 op: outcome flipped.
struct FaultSite {
  std::size_t gate_index = 0;
  std::vector<FaultOp> ops;
};

/// All fault locations of a circuit, in gate order.
std::vector<FaultSite> enumerate_fault_sites(const circuit::Circuit& c);

/// Injects `op` into the frame. For measurement faults the gate's
/// classical bit is flipped, so the owning gate must be passed in.
void apply_fault(PauliFrame& frame, const FaultOp& op,
                 const circuit::Gate& gate);

/// Coarse classification of fault locations for biased noise models.
enum class LocationKind : std::size_t {
  OneQubit = 0,     ///< H (single-qubit unitaries).
  TwoQubit = 1,     ///< CNOT.
  Measurement = 2,  ///< MeasZ / MeasX outcome flips.
  Init = 3,         ///< PrepZ / PrepX.
};

constexpr std::size_t kNumLocationKinds = 4;

LocationKind location_kind(circuit::GateKind kind);

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

}  // namespace ftsp::sim
