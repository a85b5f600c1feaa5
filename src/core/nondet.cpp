#include "core/nondet.hpp"

#include "sim/faults.hpp"
#include "sim/pauli_frame.hpp"

namespace ftsp::core {

NonDetAttempt run_nondet_attempt(const Protocol& protocol, double p,
                                 std::mt19937_64& rng) {
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
    sim::PauliFrame frame(*segment);
    for (std::size_t q = 0; q < n; ++q) {
      frame.error.x.set(q, attempt.data_error.x.get(q));
      frame.error.z.set(q, attempt.data_error.z.get(q));
    }
    const auto sites = sim::enumerate_fault_sites(*segment);
    for (std::size_t g = 0; g < segment->gates().size(); ++g) {
      sim::apply_gate(frame, segment->gates()[g]);
      if (unit(rng) < p) {
        const auto& ops = sites[g].ops;
        const std::size_t pick = rng() % ops.size();
        sim::apply_fault(frame, ops[pick], segment->gates()[g]);
      }
    }
    for (bool outcome : frame.outcomes) {
      if (outcome) {
        attempt.accepted = false;  // Post-selection: discard the state.
      }
    }
    for (std::size_t q = 0; q < n; ++q) {
      attempt.data_error.x.set(q, frame.error.x.get(q));
      attempt.data_error.z.set(q, frame.error.z.get(q));
    }
  }
  return attempt;
}

NonDetStats sample_nondet(const Protocol& protocol,
                          const decoder::PerfectDecoder& decoder, double p,
                          std::size_t shots, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
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
