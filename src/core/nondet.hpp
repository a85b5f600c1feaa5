#pragma once

#include <cstdint>

#include "core/protocol.hpp"
#include "decoder/lookup_decoder.hpp"
#include "util/mt64.hpp"

namespace ftsp::core {

/// The non-deterministic (repeat-until-success) baseline the paper's
/// deterministic scheme replaces: run the preparation and all verification
/// measurements, accept only if every outcome (including flags) is +1,
/// otherwise discard and restart.
struct NonDetAttempt {
  bool accepted = false;
  qec::Pauli data_error;  ///< Residual on acceptance.
};

/// One post-selected attempt under E1_1 noise of strength p.
NonDetAttempt run_nondet_attempt(const Protocol& protocol, double p,
                                 util::Mt64& rng);

/// Monte-Carlo statistics of the repeat-until-success scheme.
struct NonDetStats {
  double acceptance_rate = 0.0;
  double expected_attempts = 0.0;   ///< 1 / acceptance rate.
  /// Rate of the protocol basis's logical failure (X flips on |0>_L, Z
  /// flips on |+>_L) among accepted states.
  double logical_error_rate = 0.0;
  std::size_t shots = 0;
  std::size_t accepted = 0;
};

NonDetStats sample_nondet(const Protocol& protocol,
                          const decoder::PerfectDecoder& decoder, double p,
                          std::size_t shots, std::uint64_t seed);

}  // namespace ftsp::core
