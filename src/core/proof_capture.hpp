#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sat/solver.hpp"

namespace ftsp::core {

/// One optimality-anchoring SAT verdict captured during synthesis: either
/// a checked DRAT refutation of "a better solution exists" (present), or
/// an honest statement of why no machine-checkable proof exists for this
/// stage (absent — heuristic paths, cache hits, structural lower bounds,
/// backends that keep no proof log).
///
/// The premise ships as self-contained DIMACS with the query assumptions
/// baked in as unit clauses, so re-checking needs no solver state: parse
/// the premise, replay the DRAT lines through `sat::check_drat`, done.
/// The byte payloads (`premise_dimacs`, `drat`) are stored out-of-band
/// (the store's `.proof` side file); the artifact container carries only
/// the metadata below, including fingerprints the audit verifies against
/// the rehydrated bytes.
struct CapturedProof {
  std::string stage;  ///< Synthesis sub-stage, e.g. "verif.L1".
  std::string claim;  ///< The refuted statement, human-readable.
  /// The refuted bound: the weight/gate count shown infeasible (present
  /// proofs), 0 otherwise.
  std::uint32_t bound = 0;
  bool present = false;          ///< A refutation was captured.
  std::string absent_reason;     ///< Why not, when `present` is false.
  bool checked = false;          ///< `sat::check_drat` verdict at capture.
  std::string premise_dimacs;    ///< DIMACS CNF, assumptions as units.
  std::string drat;              ///< DRAT refutation of the premise.
  std::uint64_t premise_size = 0;
  std::uint32_t premise_crc = 0;
  std::uint64_t drat_size = 0;
  std::uint32_t drat_crc = 0;
};

/// Collects the captured proofs of one protocol compile. Attach via
/// `SynthesisOptions::proof_sink` (threaded into the per-stage synthesis
/// options) or directly via `VerificationSynthOptions::proof_sink` & co.
struct ProofSink {
  std::vector<CapturedProof> proofs;

  void record(CapturedProof proof) { proofs.push_back(std::move(proof)); }
  /// Records an honest "no proof exists for this stage" entry.
  void record_absent(std::string stage, std::string claim,
                     std::string reason);
};

/// Renders a solver refutation into a checked `CapturedProof`: premise as
/// DIMACS (assumptions baked in as unit clauses), verbatim DRAT log,
/// `sat::check_drat` verdict, and CRC32 fingerprints of both payloads.
CapturedProof make_checked_proof(std::string stage, std::string claim,
                                 std::size_t bound,
                                 const sat::UnsatProof& proof);

/// Records the outcome of one (u, v) weight sweep at measurement count
/// `u` — the shared epilogue of the verification and correction
/// synthesis loops. The binary search's invariant makes the
/// chronologically last UNSAT leg the minimality anchor: `lo` only ever
/// advances to `mid + 1` on UNSAT, so the final `lo == v*` pins the last
/// refuted bound at exactly `v* - 1`. An infeasible `u` contributes its
/// (assumption-free) unbounded leg instead; a sweep with no UNSAT leg at
/// all means the optimum sits on the structural lower bound and is
/// recorded as honestly proof-free.
void record_sweep_outcome(ProofSink& sink, const std::string& stage,
                          const std::string& what, std::size_t u,
                          bool feasible, bool saw_unsat,
                          const std::optional<sat::UnsatProof>& last_unsat,
                          std::size_t last_unsat_bound);

}  // namespace ftsp::core
