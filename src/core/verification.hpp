#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/proof_capture.hpp"
#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "qec/coupling.hpp"
#include "sat/engine.hpp"

namespace ftsp::core {

/// A synthesized set of verification measurements: supports of stabilizers
/// drawn from the span of the candidate generators (the opposite-type
/// state stabilizers). Every dangerous error anticommutes with at least
/// one of them.
struct VerificationSet {
  std::vector<f2::BitVec> stabilizers;

  std::size_t count() const { return stabilizers.size(); }
  std::size_t total_weight() const;
};

struct VerificationSynthOptions {
  std::size_t max_measurements = 5;
  std::uint64_t conflict_budget = 0;   ///< Per SAT query; 0 = unlimited.
  std::size_t enumerate_limit = 128;   ///< Cap for all-optimal enumeration.
  /// SAT engine selection: incremental bound sweeps, cache use.
  sat::EngineOptions engine;
  /// Optional sink recording one entry per bound query with the solver
  /// statistics delta attributable to it.
  sat::SweepTelemetry* telemetry = nullptr;
  /// Device coupling map over the data qubits; null / all-to-all leaves
  /// the selection unconstrained. Constrained maps restrict every
  /// selected measurement to supports inducing a *connected* subgraph —
  /// the realizability condition for an ancilla that walks along
  /// coupled data sites (see `qec::CouplingMap`).
  std::shared_ptr<const qec::CouplingMap> coupling;
  /// Optional proof sink: when set, the solvers run with DRAT logging on
  /// and every optimality-anchoring UNSAT leg of the (u, v) sweep lands
  /// in the sink as a checked `CapturedProof` (stages that produce no
  /// refutation record an honest absent entry). Does not change models,
  /// solver statistics, or cache keys.
  ProofSink* proof_sink = nullptr;
  /// Stage tag of recorded proofs (e.g. "verif.L1").
  std::string proof_label = "verif";
};

/// Synthesizes a verification measurement set that detects every error in
/// `dangerous_errors` (each must anticommute with >= 1 selected
/// stabilizer), minimizing first the number of measurements (ancillas),
/// then the summed support weight (CNOTs) — the lexicographic (u, v)
/// optimality of the paper. Returns nullopt only if no set within
/// `max_measurements` exists (cannot happen for genuinely dangerous errors
/// of a valid CSS state, see DESIGN.md).
std::optional<VerificationSet> synthesize_verification(
    const f2::BitMatrix& candidate_generators,
    const std::vector<f2::BitVec>& dangerous_errors,
    const VerificationSynthOptions& options = {});

/// Enumerates *all* verification sets attaining the optimal (u, v) — the
/// candidate pool explored by the paper's global optimization procedure.
/// Sets are deduplicated as unordered collections of supports.
std::vector<VerificationSet> enumerate_optimal_verifications(
    const f2::BitMatrix& candidate_generators,
    const std::vector<f2::BitVec>& dangerous_errors,
    const VerificationSynthOptions& options = {});

}  // namespace ftsp::core
