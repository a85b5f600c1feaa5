#include "core/measure_prep.hpp"

#include <random>
#include <stdexcept>

#include "f2/gauss.hpp"
#include "sim/faults.hpp"

namespace ftsp::core {

using f2::BitVec;
using qec::PauliType;

MeasurementBasedPrep synthesize_measure_prep(
    const qec::StateContext& state) {
  const std::size_t n = state.num_qubits();
  const bool zero_basis = state.basis() == qec::LogicalBasis::Zero;
  // For |0>_L: |0>^n is already a +1 eigenstate of every Z-side state
  // stabilizer; measuring the X generators projects into the code space.
  const PauliType measured = zero_basis ? PauliType::X : PauliType::Z;
  const auto& generators = state.code().check_matrix(measured);

  MeasurementBasedPrep prep;
  prep.circuit = circuit::Circuit(n);
  for (std::size_t q = 0; q < n; ++q) {
    if (zero_basis) {
      prep.circuit.prep_z(q);
    } else {
      prep.circuit.prep_x(q);
    }
  }
  for (std::size_t i = 0; i < generators.rows(); ++i) {
    prep.gadgets.push_back(circuit::append_stabilizer_measurement(
        prep.circuit, generators.row(i), measured, /*flagged=*/false));
  }

  // Outcome fix i: an opposite-type Pauli anticommuting with generator i
  // only (a destabilizer): generators * fix = e_i.
  for (std::size_t i = 0; i < generators.rows(); ++i) {
    BitVec unit(generators.rows());
    unit.set(i);
    const auto fix = f2::solve(generators, unit);
    if (!fix.has_value()) {
      throw std::logic_error(
          "synthesize_measure_prep: no destabilizer found");
    }
    prep.outcome_fixes.append_row(*fix);
  }
  return prep;
}

MeasurePrepStats sample_measure_prep(const MeasurementBasedPrep& prep,
                                     const qec::StateContext& state,
                                     const decoder::PerfectDecoder& decoder,
                                     double p, std::size_t shots,
                                     std::uint64_t seed) {
  const std::size_t n = state.num_qubits();
  const bool zero_basis = state.basis() == qec::LogicalBasis::Zero;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  MeasurePrepStats stats;
  stats.shots = shots;
  stats.ancillas = prep.gadgets.size();
  for (const auto& gadget : prep.gadgets) {
    stats.cnots += gadget.support.popcount();
  }

  const auto& gates = prep.circuit.gates();
  std::size_t failures = 0;
  for (std::size_t s = 0; s < shots; ++s) {
    qec::Pauli error(n);
    const f2::BitVec outcomes =
        sim::run_circuit(prep.circuit, error, [&](std::size_t g) {
          const std::size_t num_ops =
              sim::num_fault_ops(sim::location_kind(gates[g].kind));
          return unit(rng) < p ? static_cast<int>(rng() % num_ops) : -1;
        });
    // Apply the linearized outcome fixes: a flipped outcome i applies
    // fix_i relative to the noiseless reference run.
    for (std::size_t i = 0; i < prep.gadgets.size(); ++i) {
      const auto bit =
          static_cast<std::size_t>(prep.gadgets[i].outcome_bit);
      if (outcomes.get(bit)) {
        error.part(zero_basis ? PauliType::Z : PauliType::X) ^=
            prep.outcome_fixes.row(i);
      }
    }
    if (decoder.decode(error).fails(state.basis())) {
      ++failures;
    }
  }
  if (shots > 0) {
    stats.logical_error_rate =
        static_cast<double>(failures) / static_cast<double>(shots);
  }
  return stats;
}

}  // namespace ftsp::core
