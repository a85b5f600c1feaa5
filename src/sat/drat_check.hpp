#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sat/types.hpp"

namespace ftsp::sat {

class ProofHints;
struct UnsatProof;

/// Verdict of a forward DRAT check. `ok` means the proof derives the
/// empty clause (equivalently: unit propagation over premise + accepted
/// lemmas conflicts) with every addition line verified as RUP or RAT and
/// every deletion line resolved. `error` pinpoints the first failure.
/// A hinted check fills only `ok`, `lemmas_checked` and `error`.
struct DratCheckResult {
  bool ok = false;
  std::size_t lemmas_checked = 0;    // Addition lines verified.
  std::size_t rat_lemmas = 0;        // Of those, verified via RAT fallback.
  std::size_t deletions_applied = 0;
  std::size_t deletions_skipped = 0;  // Deletions of active reason clauses.
  std::string error;                  // Empty iff ok.
};

/// Statically checks a DRAT refutation of `premise` (a clause list in
/// solver literal encoding) under `assumptions` (each treated as an extra
/// premise unit clause). Forward checking only — streaming over the proof
/// text with watched-literal unit propagation, no solver in the loop.
///
/// Additions are verified RUP-first (assert the clause's negation, unit
/// propagate, expect a conflict) with a RAT fallback whose pivot is the
/// first literal as written on the proof line; the CDCL solver's learnt
/// clauses are always RUP, so the fallback exists for generality.
/// Deletions are matched by literal set; deleting a clause that currently
/// props a root-level assignment is skipped (the drat-trim convention),
/// and deleting an unknown clause is an error.
/// Checking stops successfully as soon as the empty clause is derived;
/// later lines are not read.
DratCheckResult check_drat(std::span<const std::vector<Lit>> premise,
                           std::span<const Lit> assumptions,
                           std::string_view drat);

inline DratCheckResult check_drat(std::span<const std::vector<Lit>> premise,
                                  std::string_view drat) {
  return check_drat(premise, std::span<const Lit>{}, drat);
}

/// Convenience: checks a solver-emitted proof snapshot against its own
/// recorded premise and assumptions.
DratCheckResult check_proof(const UnsatProof& proof);

/// Hinted RUP check of a refutation of `premise` under `assumptions`. The
/// lemmas are the addition lines of `drat`; `hints` names the antecedents
/// of each one and of the root-level literals (see `ProofHints` for the
/// clause IDs), and `refutation` those of the terminating empty clause.
/// Steps run in order. A root step's chain must derive its literal, which
/// then stays assigned at the root. A lemma step pairs with the next
/// addition line: under the root assignment, the lemma's negation and the
/// earlier hints' units, every hint but the last must be unit and the last
/// falsified. A hint may cite only the premise, the assumptions and the
/// lemmas before it. No propagation, no search: a broken chain rejects the
/// lemma. Deletion lines are skipped, since RUP never depends on them.
/// This is the verdict compile stores; the forward `check_drat` stays the
/// independent re-check of stored proofs, which carry no hints.
DratCheckResult check_hinted(std::span<const std::vector<Lit>> premise,
                             std::span<const Lit> assumptions,
                             std::string_view drat, const ProofHints& hints,
                             std::span<const std::uint32_t> refutation);

/// Convenience: the hinted check of a solver-emitted proof snapshot.
DratCheckResult check_hinted_proof(const UnsatProof& proof);

}  // namespace ftsp::sat
