#include "sim/faults.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace ftsp::sim {

using circuit::Gate;
using circuit::GateKind;

LocationKind location_kind(circuit::GateKind kind) {
  switch (kind) {
    case GateKind::Cnot:
      return LocationKind::TwoQubit;
    case GateKind::H:
      return LocationKind::OneQubit;
    case GateKind::PrepZ:
    case GateKind::PrepX:
      return LocationKind::Init;
    case GateKind::MeasZ:
    case GateKind::MeasX:
      return LocationKind::Measurement;
  }
  return LocationKind::OneQubit;  // Unreachable; placates the compiler.
}

void apply_fault(PauliFrame& frame, const FaultOp& op, const Gate& gate) {
  for (int t = 0; t < op.num_terms; ++t) {
    const auto& term = op.terms[static_cast<std::size_t>(t)];
    if (term.x) {
      frame.error.x.flip(term.qubit);
    }
    if (term.z) {
      frame.error.z.flip(term.qubit);
    }
  }
  if (op.flip_outcome) {
    assert(gate.is_measurement() && gate.cbit >= 0);
    const auto bit = static_cast<std::size_t>(gate.cbit);
    frame.outcomes[bit] = !frame.outcomes[bit];
  }
}

void validate_rates(const NoiseParams& params, const char* who) {
  for (double rate : params.rates) {
    // Negated comparison so NaN (for which both p < x and p > x are
    // false) fails validation instead of flowing through the math.
    if (!(rate >= 0.0) || rate >= 1.0) {
      throw std::invalid_argument(std::string(who) +
                                  ": rates must be in [0,1)");
    }
  }
}

void validate_uniform_rate(double p, const char* who, const char* name) {
  if (!(p > 0.0) || p >= 1.0) {  // Negated so NaN is rejected too.
    throw std::invalid_argument(std::string(who) + ": " + name +
                                " must be in (0,1)");
  }
}

}  // namespace ftsp::sim
