#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/proof_capture.hpp"
#include "f2/bit_vec.hpp"
#include "qec/coupling.hpp"
#include "qec/state_context.hpp"
#include "sat/engine.hpp"

namespace ftsp::core {

/// Result of CORRECTION CIRCUIT SYNTHESIS for one syndrome class E_b: a
/// set of additional stabilizer measurements plus a Pauli recovery per
/// extended-syndrome pattern such that every error in the class ends with
/// state-reduced weight <= 1 after its recovery.
struct CorrectionPlan {
  /// Supports of the additional measurements (stabilizers of the type
  /// opposite to the corrected error type); may be empty when one common
  /// recovery suffices for the whole class (w_m = 0 entries of Table I).
  std::vector<f2::BitVec> measurements;

  /// Recovery per observed extended-syndrome pattern (one bit per
  /// measurement, in order). Patterns not realizable by any class error
  /// are absent.
  std::map<f2::BitVec, f2::BitVec, f2::BitVecLexLess> recoveries;

  std::size_t total_weight() const;
};

struct CorrectionSynthOptions {
  std::size_t max_measurements = 4;
  /// SAT engine selection (incremental weight sweeps, cache).
  sat::EngineOptions engine;
  /// Optional per-bound solver-statistics sink.
  sat::SweepTelemetry* telemetry = nullptr;
  /// Device coupling map; same contract as
  /// `VerificationSynthOptions::coupling` (connected-support selection).
  std::shared_ptr<const qec::CouplingMap> coupling;
  /// Optional proof sink; same contract as
  /// `VerificationSynthOptions::proof_sink` (checked DRAT refutations of
  /// the optimality-anchoring UNSAT legs, honest absents elsewhere).
  ProofSink* proof_sink = nullptr;
  /// Stage tag of recorded proofs (e.g. "corr.L1.0100").
  std::string proof_label = "corr";
};

/// Solves CORRECTION CIRCUIT SYNTHESIS (Section IV): given the errors of
/// one syndrome class (all single-fault data errors of type `error_type`
/// consistent with the observed verification/flag pattern, including
/// benign ones), finds u stabilizers from the span of the state's
/// detector generators, minimizing lexicographically the number of
/// measurements u and their summed weight v, such that all errors sharing
/// an extended syndrome admit a common recovery c with wt_S(e + c) <= 1.
///
/// The recovery search space is restricted, without loss of generality, to
/// {e_j + w : e_j in class, wt(w) <= 1} + {w : wt(w) <= 1}: if any valid
/// recovery c exists for a class then c differs from each member e_j by a
/// stabilizer s and a weight<=1 Pauli w, and c' = e_j + w is equally valid
/// because recoveries are only ever compared modulo stabilizers.
std::optional<CorrectionPlan> synthesize_correction(
    const qec::StateContext& state, qec::PauliType error_type,
    const std::vector<f2::BitVec>& class_errors,
    const CorrectionSynthOptions& options = {});

}  // namespace ftsp::core
