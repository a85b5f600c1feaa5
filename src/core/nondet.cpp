#include "core/nondet.hpp"

#include <random>

#include "sim/faults.hpp"

namespace ftsp::core {

NonDetAttempt run_nondet_attempt(const Protocol& protocol, double p,
                                 util::Mt64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t n = protocol.num_data_qubits();

  NonDetAttempt attempt;
  attempt.data_error = qec::Pauli(n);
  attempt.accepted = true;

  std::vector<const circuit::Circuit*> segments = {&protocol.prep};
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (layer->has_value()) {
      segments.push_back(&(*layer)->verif);
    }
  }

  for (const circuit::Circuit* segment : segments) {
    const auto& gates = segment->gates();
    const f2::BitVec outcomes =
        sim::run_circuit(*segment, attempt.data_error, [&](std::size_t g) {
          const std::size_t num_ops =
              sim::num_fault_ops(sim::location_kind(gates[g].kind));
          return unit(rng) < p ? static_cast<int>(rng() % num_ops) : -1;
        });
    if (outcomes.any()) {
      attempt.accepted = false;  // Post-selection: discard the state.
    }
  }
  return attempt;
}

NonDetStats sample_nondet(const Protocol& protocol,
                          const decoder::PerfectDecoder& decoder, double p,
                          std::size_t shots, std::uint64_t seed) {
  util::Mt64 rng(seed);
  NonDetStats stats;
  stats.shots = shots;
  std::size_t failures = 0;
  for (std::size_t s = 0; s < shots; ++s) {
    const auto attempt = run_nondet_attempt(protocol, p, rng);
    if (!attempt.accepted) {
      continue;
    }
    ++stats.accepted;
    if (decoder.decode(attempt.data_error).fails(protocol.basis)) {
      ++failures;
    }
  }
  if (shots > 0) {
    stats.acceptance_rate =
        static_cast<double>(stats.accepted) / static_cast<double>(shots);
  }
  if (stats.accepted > 0) {
    stats.expected_attempts = 1.0 / stats.acceptance_rate;
    stats.logical_error_rate =
        static_cast<double>(failures) / static_cast<double>(stats.accepted);
  }
  return stats;
}

}  // namespace ftsp::core
