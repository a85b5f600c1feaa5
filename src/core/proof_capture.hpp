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
/// stage (absent — heuristic paths, cache hits, structural lower bounds).
///
/// Only the refutation's core is stored. The premise ships as
/// self-contained DIMACS: the premise clauses the refutation cites,
/// verbatim and in solver order, then the query assumptions as unit
/// clauses, so re-checking needs no solver state. The DRAT holds the cited
/// lemmas, the deletions of kept ones and the empty clause: parse the
/// premise, replay the DRAT lines through `sat::check_drat`, done.
/// `checked` is the compile-time verdict of `sat::check_hinted` on exactly
/// these clauses and lines, replaying the solver's in-memory antecedents
/// renumbered to them; the hints are never stored, and `audit` re-checks
/// with the forward `sat::check_drat`.
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
  bool checked = false;          ///< `sat::check_hinted` verdict at capture.
  std::string premise_dimacs;    ///< Cited clauses, assumptions as units.
  std::string drat;              ///< Cited lemmas, then the empty clause.
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

/// The refutation `proof` reduced to its core (`sat::refutation_core`):
/// the cited premise clauses in their original order, every assumption,
/// every root step, the cited lemmas with their addition lines, the
/// deletions of kept lemmas and the empty clause. Kept clauses are
/// renumbered by rank, so the result checks like any solver proof.
sat::UnsatProof trim_proof(const sat::UnsatProof& proof);

/// Renders a solver refutation into a checked `CapturedProof`: the
/// refutation is trimmed to its core (see `trim_proof`), the kept premise
/// clauses are rendered as DIMACS under the full formula's variable count
/// with the assumptions appended as unit clauses, and the kept lines are
/// rendered once by `sat::to_drat` and stored with the `sat::check_hinted`
/// verdict on exactly those bytes and CRC32 fingerprints of both payloads.
CapturedProof make_checked_proof(std::string stage, std::string claim,
                                 std::size_t bound,
                                 const sat::UnsatProof& proof);

/// The latest UNSAT leg of a bound sweep: the solver's refutation and
/// the bound it refuted. With proof logging on, the solver snapshots a
/// refutation on every UNSAT answer, so under a sink "the sweep refuted
/// a bound" and "a proof of it exists" are one fact.
struct SweepRefutation {
  sat::UnsatProof proof;
  std::size_t bound = 0;
};

/// Records the outcome of one (u, v) weight sweep at measurement count
/// `u` — the epilogue of `sweep_lexicographic` (core/bound_sweep.hpp).
/// The binary search's invariant makes the chronologically last UNSAT
/// leg the minimality anchor: `lo` only ever advances to `mid + 1` on
/// UNSAT, so the final `lo == v*` pins the last refuted bound at exactly
/// `v* - 1`. An infeasible `u` contributes its (assumption-free)
/// unbounded leg instead; a feasible sweep with no UNSAT leg at all
/// means the optimum sits on the structural lower bound and is recorded
/// as honestly proof-free.
void record_sweep_outcome(ProofSink& sink, const std::string& stage,
                          const std::string& what, std::size_t u,
                          bool feasible,
                          const std::optional<SweepRefutation>& refutation);

}  // namespace ftsp::core
