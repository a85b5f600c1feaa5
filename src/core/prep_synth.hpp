#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "circuit/circuit.hpp"
#include "core/proof_capture.hpp"
#include "qec/coupling.hpp"
#include "qec/state_context.hpp"
#include "sat/engine.hpp"

namespace ftsp::core {

/// What actually happened inside `synthesize_prep` — the provenance of
/// the returned circuit. Attach via `PrepSynthOptions::report` (like the
/// SAT telemetry sinks); fields are only ever set, never cleared, so one
/// report can aggregate several calls.
struct PrepSynthReport {
  /// The SAT-optimal search was requested but gave up (max_cnots
  /// exhausted or conflict budget interrupted) without a witness.
  bool sat_search_exhausted = false;
  /// The returned circuit came from the heuristic although Method::
  /// Optimal was requested — the silent-fallback case made loud.
  bool heuristic_fallback = false;
};

/// Options for logical basis-state preparation synthesis.
struct PrepSynthOptions {
  enum class Method {
    Heuristic,  ///< Gauss-elimination construction with column-order search.
    Optimal,    ///< SAT-based CNOT-count-minimal synthesis.
  };
  Method method = Method::Heuristic;

  /// Heuristic: number of seeded random column orders tried in addition to
  /// the deterministic ones.
  std::size_t shuffle_tries = 64;
  std::uint64_t seed = 0xf7e9u;

  /// Optimal: conflict budget per gate-count query (0 = unlimited;
  /// re-armed for each queried gate count) and the CNOT count
  /// at which the search gives up and falls back to the heuristic
  /// result.
  std::uint64_t sat_conflict_budget = 400000;
  std::size_t max_cnots = 24;

  /// Optimal: allow the exact subspace-BFS shortcut for small state
  /// spaces. Disable to force the SAT path (mainly for tests/benches).
  bool allow_bfs = true;

  /// SAT engine selection (cache use) for the Optimal method. The
  /// gate-count sweep re-encodes per gate count and ignores
  /// `incremental`; its false default only keeps the cache key stable.
  sat::EngineOptions engine{.incremental = false};

  /// Device coupling map over the data qubits; null (or a structurally
  /// all-to-all map) leaves synthesis unconstrained and bit-identical to
  /// historical behavior. Constrained maps restrict every CNOT to
  /// coupled pairs: the SAT/BFS searches only encode legal gate slots,
  /// the heuristic filters its candidates and *throws* (instead of
  /// silently emitting illegal gates) when no legal circuit is found,
  /// and an exhausted SAT search refuses the heuristic fallback.
  std::shared_ptr<const qec::CouplingMap> coupling;

  /// Optional provenance sink (see `PrepSynthReport`).
  PrepSynthReport* report = nullptr;

  /// Optional proof sink; same contract as
  /// `VerificationSynthOptions::proof_sink`. The SAT-optimal gate-count
  /// sweep records a checked DRAT refutation of its final UNSAT leg;
  /// the heuristic, BFS, cache-hit and trivial-lower-bound paths record
  /// honest absent entries.
  ProofSink* proof_sink = nullptr;
  /// Stage tag of recorded proofs.
  std::string proof_label = "prep";
};

/// Synthesizes a unitary (generally non-fault-tolerant) preparation circuit
/// for the logical basis state described by `state`: each qubit is
/// initialized in |0> or |+> and a CNOT network creates the encoded state.
///
/// The circuit realizes the X-side state stabilizer span: CNOTs map
/// X_c -> X_c X_t, so the initial single-qubit X stabilizers of the |+>
/// qubits must be driven to a generating set of the span; the Z side then
/// follows automatically (it is the orthogonal complement for CSS-type
/// stabilizer states). Correctness is verified in the tests with the full
/// tableau simulator.
circuit::Circuit synthesize_prep(const qec::StateContext& state,
                                 const PrepSynthOptions& options = {});

/// SAT-optimal preparation: returns nullopt if no circuit with at most
/// `options.max_cnots` CNOTs was found within budget.
std::optional<circuit::Circuit> synthesize_prep_optimal(
    const qec::StateContext& state, const PrepSynthOptions& options = {});

}  // namespace ftsp::core
