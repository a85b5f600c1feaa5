#pragma once

#include <cstdint>

#include "core/executor.hpp"
#include "core/protocol.hpp"
#include "decoder/lookup_decoder.hpp"

namespace ftsp::core {

/// Result of a sampled two-fault survey.
struct TwoFaultSurvey {
  std::size_t pairs_checked = 0;
  /// Pairs whose residual exceeded reduced weight t on either side.
  std::size_t weight_violations = 0;
  /// Pairs whose residual is a logical operator class (an actual logical
  /// error after perfect EC would be possible).
  std::size_t logical_class_residuals = 0;

  double violation_rate() const {
    return pairs_checked == 0
               ? 0.0
               : static_cast<double>(weight_violations) /
                     static_cast<double>(pairs_checked);
  }
};

/// Samples random pairs of faults (two distinct locations of the
/// always-executed segments, random fault operators) and reports how
/// often the protocol's residual exceeds reduced weight `t` — a
/// diagnostic for the paper's future-work question of extending the
/// scheme beyond single faults (t = 2 would be needed for d >= 5).
///
/// For the d < 5 protocols synthesized here, violations at t = 2 are
/// expected (the scheme only guarantees t = 1); the survey quantifies how
/// benign typical double faults are anyway.
TwoFaultSurvey survey_two_faults(const Executor& executor, std::size_t t,
                                 std::size_t samples, std::uint64_t seed);

/// The exact O(p^2) expansion of the logical error rate.
///
/// A fault-tolerant protocol fails only when >= 2 locations fault, so for
/// small p:  p_L(p) = c2 * p^2 + O(p^3), with
///   c2 = sum over unordered pairs of distinct always-executed locations
///        of the mean failure indicator over their fault operators.
/// This enumeration is *exact* for pairs within the always-executed
/// segments (the analogue of the k = 2 subset sum in Dynamic Subset
/// Sampling); pairs with the second fault inside a conditional branch
/// are excluded and add a small positive correction (branch circuits are
/// short and rarely executed).
struct LeadingOrder {
  /// Coefficient for the failure of the protocol's basis state: X flips
  /// on |0>_L (the paper's criterion), Z flips on |+>_L.
  double c2 = 0.0;
  double c2_any = 0.0;  ///< Either logical flip.
  std::size_t pairs_enumerated = 0;
  /// Exact single-fault failure count: must be 0 for an FT protocol.
  std::size_t single_fault_failures = 0;
};

LeadingOrder exact_leading_order(const Executor& executor,
                                 const decoder::PerfectDecoder& decoder);

}  // namespace ftsp::core
