#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "f2/bit_vec.hpp"
#include "qec/pauli.hpp"
#include "util/mt64.hpp"

namespace ftsp::sim {

/// Aaronson-Gottesman stabilizer tableau simulator (CHP style).
///
/// Tracks n destabilizer and n stabilizer generators with sign bits,
/// supporting H, S, CNOT, Pauli gates, Z/X-basis preparation and
/// measurement. Used as the ground-truth simulator: the tests verify
/// synthesized preparation circuits produce the encoded state (every
/// state stabilizer has eigenvalue +1) and cross-validate the much faster
/// Pauli-frame fault propagation.
class Tableau {
 public:
  /// Initializes n qubits in |0...0>.
  explicit Tableau(std::size_t n);

  std::size_t num_qubits() const { return n_; }

  void apply_h(std::size_t q);
  void apply_s(std::size_t q);
  void apply_cnot(std::size_t control, std::size_t target);
  void apply_x(std::size_t q);
  void apply_z(std::size_t q);

  /// Measures qubit q in the Z basis; random outcomes use `rng`.
  bool measure_z(std::size_t q, util::Mt64& rng);
  bool measure_x(std::size_t q, util::Mt64& rng);

  /// True iff the outcome of a Z measurement on q would be deterministic.
  bool z_is_deterministic(std::size_t q) const;

  /// Resets qubit q to |0> (respectively |+>).
  void prep_z(std::size_t q, util::Mt64& rng);
  void prep_x(std::size_t q, util::Mt64& rng);

  /// Applies one circuit gate; measurement outcomes are appended to
  /// `outcomes` indexed by the gate's classical bit.
  void apply_gate(const circuit::Gate& gate, util::Mt64& rng,
                  std::vector<bool>& outcomes);

  /// Runs a circuit from the current state; returns measured bits.
  std::vector<bool> run(const circuit::Circuit& c, util::Mt64& rng);

  /// True iff the current state is a +1 eigenstate of the Pauli operator
  /// `p` (i.e. p is in the stabilizer group with positive sign).
  bool stabilizes(const qec::Pauli& p) const;

 private:
  std::size_t n_;
  // Rows 0..n-1: destabilizers; rows n..2n-1: stabilizers.
  std::vector<f2::BitVec> x_;
  std::vector<f2::BitVec> z_;
  std::vector<bool> sign_;  // true = -1 phase.

  /// row[h] *= row[i] with exact phase tracking (AG "rowsum").
  void rowsum(std::size_t h, std::size_t i);

  /// Phase contribution of multiplying scratch registers; shared by
  /// rowsum and `stabilizes`.
  static int phase_exponent(bool x1, bool z1, bool x2, bool z2);
};

}  // namespace ftsp::sim
