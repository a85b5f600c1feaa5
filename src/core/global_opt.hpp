#pragma once

#include <cstddef>

#include "core/metrics.hpp"
#include "core/protocol.hpp"

namespace ftsp::core {

/// Options for the paper's "Global" optimization procedure: enumerate all
/// (u, v)-optimal verification sets for each layer and every flag policy,
/// synthesize the corrections for each combination, and keep the protocol
/// with the best metrics.
struct GlobalOptOptions {
  SynthesisOptions synthesis;
  std::size_t max_layer1_sets = 24;
  bool explore_flag_policies = true;
  /// Run the exhaustive FT check on every candidate (a safety net against
  /// synthesis regressions; synthesis is correct by construction, so this
  /// can be disabled for speed in large sweeps).
  bool validate_candidates = true;
};

struct GlobalOptResult {
  Protocol best;
  ProtocolMetrics best_metrics;
  std::size_t candidates_explored = 0;
};

/// Runs the global optimization. Candidates are scored lexicographically
/// by (total verification ancillas, total verification CNOTs, average
/// correction ancillas, average correction CNOTs), matching the cost
/// notion of Table I.
GlobalOptResult globally_optimize(const qec::CssCode& code,
                                  qec::LogicalBasis basis,
                                  const GlobalOptOptions& options = {});

}  // namespace ftsp::core
