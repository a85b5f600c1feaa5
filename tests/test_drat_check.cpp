#include "sat/drat_check.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/store.hpp"
#include "core/proof_capture.hpp"
#include "core/synth_cache.hpp"
#include "obs/registry.hpp"
#include "qec/code_library.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/hash.hpp"

namespace ftsp::sat {
namespace {

/// Pigeonhole principle PHP(pigeons, holes): UNSAT iff pigeons > holes.
/// Variable p*holes + h <=> "pigeon p sits in hole h".
void add_pigeonhole(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> var(pigeons, std::vector<Var>(holes));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      var[p][h] = s.new_var();
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> at_least_one;
    for (int h = 0; h < holes; ++h) {
      at_least_one.push_back(pos(var[p][h]));
    }
    s.add_clause(at_least_one);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        s.add_binary(neg(var[p][h]), neg(var[q][h]));
      }
    }
  }
}

compile::ProtocolArtifact compile_with_proofs(const std::string& code) {
  core::SynthCache::instance().clear();
  core::SynthesisOptions options;
  options.capture_proofs = true;
  const compile::ProtocolCompiler compiler(options);
  return compiler.compile(qec::library_code_by_name(code));
}

// Values pinned from the solver and the checker as they were before their
// clauses moved into one arena: one heap vector per clause, a string-keyed
// deletion index and no blockers in the checker. The verdict digests were
// taken with the RAT pivot already read as written (see
// RatPivotIsTheFirstLiteralAsWritten); that fix alone changes 69 of the
// 448 pigeonhole outcomes.
constexpr std::uint64_t kPigeonholeSearchDigest = 2599888991000676214ULL;
constexpr std::size_t kPhpMutations = 448;
constexpr std::size_t kPhpRejected = 329;
constexpr std::uint64_t kPhpVerdictDigest = 17694772057555466052ULL;
// The synthesis arm, re-pinned when stored proofs were trimmed to the
// clauses their refutations cite (Steane and Shor alone fell from 94
// mutations to 85), with Surface_3's proofs added to the corpus.
constexpr std::size_t kSynthMutations = 138;
constexpr std::size_t kSynthRejected = 63;
constexpr std::uint64_t kSynthVerdictDigest = 5199911656605177920ULL;
// The hint arm's counts, from the first hinted checker.
constexpr std::size_t kPhpHintMutations = 865;
constexpr std::size_t kPhpHintRejected = 743;
constexpr std::size_t kAssumedHintMutations = 145;
constexpr std::size_t kAssumedHintRejected = 123;

UnsatProof pigeonhole_proof(int pigeons, int holes) {
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, pigeons, holes);
  EXPECT_FALSE(s.solve());
  const auto proof = s.take_unsat_proof();
  EXPECT_TRUE(proof.has_value());
  return proof.value_or(UnsatProof{});
}

TEST(DratCheck, AcceptsPigeonholeProofs) {
  for (int holes = 2; holes <= 5; ++holes) {
    const UnsatProof proof = pigeonhole_proof(holes + 1, holes);
    EXPECT_TRUE(proof.assumptions.empty());
    const DratCheckResult result = check_proof(proof);
    EXPECT_TRUE(result.ok) << "holes=" << holes << ": " << result.error;
    const DratCheckResult hinted = check_hinted_proof(proof);
    EXPECT_TRUE(hinted.ok) << "holes=" << holes << ": " << hinted.error;
  }
}

TEST(DratCheck, AcceptsProofUnderAssumptions) {
  // The formula is SAT; the assumptions make it UNSAT. The refutation is
  // stated against premise + assumption units.
  Solver s;
  s.set_proof_logging(true);
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_clause({neg(a), pos(b)});
  s.add_clause({neg(b), pos(c)});
  ASSERT_TRUE(s.solve());
  EXPECT_FALSE(s.take_unsat_proof().has_value());
  ASSERT_FALSE(s.solve({pos(a), neg(c)}));
  const auto proof = s.take_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->assumptions.size(), 2u);
  const DratCheckResult result = check_proof(*proof);
  EXPECT_TRUE(result.ok) << result.error;
  const DratCheckResult hinted = check_hinted_proof(*proof);
  EXPECT_TRUE(hinted.ok) << hinted.error;
}

TEST(DratCheck, AcceptsProofAfterIncrementalAdditions) {
  // SAT first, then clauses arrive that flip the verdict: the premise
  // snapshot must contain everything added so far.
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, 4, 4);
  ASSERT_TRUE(s.solve());
  add_pigeonhole(s, 5, 4);  // Fresh variables: an independent PHP(5,4).
  ASSERT_FALSE(s.solve());
  const auto proof = s.take_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  const DratCheckResult result = check_proof(*proof);
  EXPECT_TRUE(result.ok) << result.error;
  const DratCheckResult hinted = check_hinted_proof(*proof);
  EXPECT_TRUE(hinted.ok) << hinted.error;
}

TEST(DratCheck, AcceptsContradictionFoundWhileAddingClauses) {
  // The final clause simplifies to the empty clause at level 0; the
  // verbatim premise is what keeps this checkable.
  Solver s;
  s.set_proof_logging(true);
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_unit(pos(a));
  s.add_unit(pos(b));
  EXPECT_FALSE(s.add_clause({neg(a), neg(b)}));
  EXPECT_FALSE(s.okay());
  EXPECT_FALSE(s.solve());
  const auto proof = s.take_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  const DratCheckResult result = check_proof(*proof);
  EXPECT_TRUE(result.ok) << result.error;
  const DratCheckResult hinted = check_hinted_proof(*proof);
  EXPECT_TRUE(hinted.ok) << hinted.error;
}

// --- Hinted checking: the solver's antecedent chains ----------------------

/// Both checkers accept the solver's refutation, and the hinted one walks
/// every addition line, the empty clause included.
void expect_both_checkers_accept(Solver& s) {
  const auto proof = s.take_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  const DratCheckResult forward = check_proof(*proof);
  EXPECT_TRUE(forward.ok) << forward.error;
  const DratCheckResult hinted = check_hinted_proof(*proof);
  EXPECT_TRUE(hinted.ok) << hinted.error;
  const std::string drat = proof->drat();
  EXPECT_EQ(hinted.lemmas_checked,
            static_cast<std::size_t>(std::count(drat.begin(), drat.end(),
                                                '\n')));
}

TEST(HintedCheck, AcceptsRootConflictWhileAddingClauses) {
  // The unit x propagates y through the first clause, and the second is
  // then falsified: the empty clause's chain is that conflict.
  Solver s;
  s.set_proof_logging(true);
  const Var x = s.new_var();
  const Var y = s.new_var();
  s.add_clause({neg(x), pos(y)});
  s.add_clause({neg(x), neg(y)});
  EXPECT_FALSE(s.add_unit(pos(x)));
  EXPECT_FALSE(s.solve());
  expect_both_checkers_accept(s);
}

TEST(HintedCheck, AcceptsContradictoryAssumptions) {
  Solver s;
  s.set_proof_logging(true);
  const Var x = s.new_var();
  const Var y = s.new_var();
  s.add_clause({pos(x), pos(y)});
  ASSERT_FALSE(s.solve({pos(x), neg(x)}));
  expect_both_checkers_accept(s);
  // The same contradiction with x already forced at the root.
  s.add_unit(pos(x));
  ASSERT_FALSE(s.solve({pos(y), neg(x)}));
  expect_both_checkers_accept(s);
  ASSERT_TRUE(s.solve({pos(y)}));
}

TEST(HintedCheck, AcceptsPremiseStrengthenedByRootUnits) {
  // Every pigeonhole clause carries ~r, which the unit r falsifies at the
  // root, so the solver stores the clauses without it. Chains still cite
  // the verbatim premise clauses; the root assignment covers ~r.
  Solver s;
  s.set_proof_logging(true);
  const Var r = s.new_var();
  s.add_unit(pos(r));
  const int pigeons = 5;
  const int holes = 4;
  std::vector<std::vector<Var>> var(pigeons, std::vector<Var>(holes));
  for (auto& row : var) {
    for (Var& v : row) {
      v = s.new_var();
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> at_least_one = {neg(r)};
    for (int h = 0; h < holes; ++h) {
      at_least_one.push_back(pos(var[p][h]));
    }
    s.add_clause(at_least_one);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        s.add_ternary(neg(var[p][h]), neg(var[q][h]), neg(r));
      }
    }
  }
  s.add_binary(pos(r), pos(var[0][0]));  // Satisfied at the root: dropped.
  EXPECT_FALSE(s.solve());
  expect_both_checkers_accept(s);
}

TEST(HintedCheck, AcceptsLoggingEnabledAfterClauses) {
  // The premise is the simplified database at enable time: the root units
  // first, then the stored clauses. The units become root steps.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_unit(pos(a));
  s.add_clause({neg(a), pos(b)});  // Propagates b at the root.
  add_pigeonhole(s, 5, 4);
  s.set_proof_logging(true);
  EXPECT_FALSE(s.solve());
  expect_both_checkers_accept(s);
}

/// Assumptions that close the last hole of PHP(holes, holes) on the
/// solver's first variables: the formula is UNSAT under them only.
std::vector<Lit> last_hole_closed(int holes) {
  std::vector<Lit> pins;
  for (Var p = 0; p < holes; ++p) {
    pins.push_back(neg(p * holes + holes - 1));
  }
  return pins;
}

TEST(HintedCheck, SnapshotsShareTheLogAndNeverChange) {
  // An UNSAT leg's proof is a prefix of the solver's log. Later queries
  // add clauses, lemmas and deletions to the same log; each proof reads
  // as it was taken, and none of the later steps pairs with its empty
  // clause.
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, 5, 5);
  const Var extra = s.new_var();
  std::vector<Lit> pins = last_hole_closed(5);
  ASSERT_FALSE(s.solve(pins));
  const auto first = s.take_unsat_proof();
  ASSERT_TRUE(first.has_value());
  const std::vector<std::vector<Lit>> premise(first->premise().begin(),
                                              first->premise().end());
  const std::string drat = first->drat();
  ASSERT_TRUE(check_hinted_proof(*first).ok);

  // A SAT leg, then an UNSAT leg under assumptions that extend the
  // first: the second proof continues the first one's lines.
  ASSERT_TRUE(s.solve({pos(extra)}));
  EXPECT_EQ(first->drat(), drat);
  pins.push_back(neg(extra));
  ASSERT_FALSE(s.solve(pins));
  const auto second = s.take_unsat_proof();
  ASSERT_TRUE(second.has_value());
  const std::string second_drat = second->drat();
  EXPECT_TRUE(second_drat.starts_with(drat.substr(0, drat.size() - 2)));
  EXPECT_TRUE(check_hinted_proof(*second).ok);
  EXPECT_TRUE(check_proof(*second).ok);

  // PHP(9,8) on fresh variables: enough conflicts for reduce_db to log
  // deletions.
  add_pigeonhole(s, 9, 8);
  ASSERT_FALSE(s.solve());
  const auto third = s.take_unsat_proof();
  ASSERT_TRUE(third.has_value());
  ASSERT_GT(s.stats().removed_clauses, 0u);
  EXPECT_NE(third->drat().find("\nd "), std::string::npos);
  EXPECT_TRUE(check_hinted_proof(*third).ok);
  EXPECT_TRUE(check_proof(*third).ok);

  EXPECT_EQ(first->log, third->log);
  EXPECT_GT(third->premise().size(), premise.size());
  EXPECT_TRUE(std::equal(premise.begin(), premise.end(),
                         first->premise().begin(), first->premise().end()));
  EXPECT_EQ(first->drat(), drat);
  EXPECT_EQ(second->drat(), second_drat);
  for (const UnsatProof* proof : {&*first, &*second}) {
    const DratCheckResult again = check_hinted_proof(*proof);
    EXPECT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(check_proof(*proof).ok);
  }
}

TEST(ProofLogging, ProofBytesCountEachLoggedLineOnce) {
  // Two UNSAT answers in one session: the counter grows by the rendered
  // size of the session's lines, not by the log's size at every answer.
  const obs::Counter& proof_bytes =
      obs::Registry::instance().counter("sat.proof.bytes");
  const std::uint64_t before = proof_bytes.value();
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, 5, 5);
  ASSERT_FALSE(s.solve(last_hole_closed(5)));
  add_pigeonhole(s, 9, 8);  // Its search logs deletions too.
  ASSERT_FALSE(s.solve());
  ASSERT_GT(s.stats().removed_clauses, 0u);
  const auto last = s.take_unsat_proof();
  ASSERT_TRUE(last.has_value());
  ASSERT_EQ(last->lines, last->log->lines());
  // Every line the session logged, without the closing empty clause.
  EXPECT_EQ(proof_bytes.value() - before, last->drat().size() - 2);
}

TEST(ProofLogging, ToDratWritesEveryLineShape) {
  ProofLog log;
  log.add_line(std::vector<Lit>{pos(0), neg(1)}, /*deletion=*/false);
  log.add_line(std::vector<Lit>{neg(11), pos(99), neg(1233)},
               /*deletion=*/false);
  log.add_line(std::vector<Lit>{pos(0), neg(1)}, /*deletion=*/true);
  log.add_line(std::vector<Lit>{pos(9)}, /*deletion=*/false);
  EXPECT_EQ(to_drat(log, log.lines()),
            "1 -2 0\n"
            "-12 100 -1234 0\n"
            "d 1 -2 0\n"
            "10 0\n"
            "0\n");
  EXPECT_EQ(to_drat(log, 1), "1 -2 0\n0\n");
  EXPECT_EQ(to_drat(log, 0), "0\n");
  std::size_t size = 2;
  for (std::size_t i = 0; i < log.lines(); ++i) {
    size += drat_line_size(log.line(i), log.deletions[i]);
  }
  EXPECT_EQ(size, to_drat(log, log.lines()).size());
}

TEST(DratCheck, RejectsTruncatedProof) {
  const UnsatProof proof = pigeonhole_proof(6, 5);
  ASSERT_GT(proof.drat().size(), 2u);
  // Keep only the first half of the lines: the refutation cannot
  // complete, and the checker must say so rather than accept.
  std::vector<std::string> lines;
  std::istringstream in(proof.drat());
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);
  std::string truncated;
  for (std::size_t i = 0; i < lines.size() / 2; ++i) {
    truncated += lines[i];
    truncated += '\n';
  }
  const DratCheckResult result =
      check_drat(proof.premise(), proof.assumptions, truncated);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(DratCheck, RejectsProofWithDeletedDerivationLines) {
  const UnsatProof proof = pigeonhole_proof(5, 4);
  // Delete every derivation, keep only the terminating empty clause: the
  // empty clause is not a unit-propagation consequence of the premise.
  const DratCheckResult result =
      check_drat(proof.premise(), proof.assumptions, "0\n");
  EXPECT_FALSE(result.ok);
}

TEST(DratCheck, RejectsMutatedProof) {
  const UnsatProof proof = pigeonhole_proof(5, 4);
  // Prepend a bogus lemma: "pigeon 0 sits in hole 0" is neither RUP nor
  // RAT against the pigeonhole premise (its resolvents with the
  // exclusivity clauses are not unit-propagation conflicts).
  const std::string mutated = "1 0\n" + proof.drat();
  const DratCheckResult result =
      check_drat(proof.premise(), proof.assumptions, mutated);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("lemma"), std::string::npos) << result.error;
}

TEST(DratCheck, RejectsDeletionOfUnknownClause) {
  const UnsatProof proof = pigeonhole_proof(5, 4);
  const std::string mutated = "d 1 2 3 4 99 0\n" + proof.drat();
  const DratCheckResult result =
      check_drat(proof.premise(), proof.assumptions, mutated);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown"), std::string::npos) << result.error;
}

TEST(DratCheck, RejectsMalformedProofText) {
  const UnsatProof proof = pigeonhole_proof(4, 3);
  const DratCheckResult result =
      check_drat(proof.premise(), proof.assumptions, "1 -2 x 0\n");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("parse"), std::string::npos) << result.error;
}

TEST(DratCheck, AcceptsTriviallyConflictingPremise) {
  // Premise conflicts under plain unit propagation: refutation complete
  // before any proof line (this is how added-empty-clause cases check).
  const std::vector<std::vector<Lit>> premise = {{pos(0)}, {neg(0)}};
  const DratCheckResult result = check_drat(premise, "");
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(DratCheck, AcceptsRatOnlyLemma) {
  // Full binary cover over {x, y} (UNSAT). The first lemma introduces a
  // fresh variable z: the unit {z} is not RUP (z occurs nowhere, so
  // nothing propagates), but it is vacuously RAT — no clause contains
  // ~z. The refutation then completes through plain RUP lemmas.
  const std::vector<std::vector<Lit>> premise = {{pos(0), pos(1)},
                                                 {pos(0), neg(1)},
                                                 {neg(0), pos(1)},
                                                 {neg(0), neg(1)}};
  const DratCheckResult result = check_drat(premise, "5 0\n1 0\n0\n");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.rat_lemmas, 1u);
}

TEST(DratCheck, AppliesDeletionOfInactiveClause) {
  // The {a, b} clause (fresh variables) is dead weight; deleting it must
  // be applied, and the refutation of the x/y core still goes through.
  const std::vector<std::vector<Lit>> premise = {
      {pos(0), pos(1)}, {pos(0), neg(1)},
      {neg(0), pos(1)}, {neg(0), neg(1)},
      {pos(2), pos(3)}};
  const DratCheckResult result = check_drat(premise, "d 3 4 0\n1 0\n0\n");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.deletions_applied, 1u);
}

TEST(DratCheck, SkipsDeletionOfReasonClause) {
  // {~x, y} props y at root level (x is a premise unit). Deleting it is
  // skipped — the drat-trim convention — so the trail it justified stays
  // valid and the remaining refutation checks.
  const std::vector<std::vector<Lit>> premise = {
      {pos(0)},
      {neg(0), pos(1)},
      {neg(1), pos(2), pos(3)},
      {neg(1), pos(2), neg(3)},
      {neg(1), neg(2), pos(3)},
      {neg(1), neg(2), neg(3)}};
  const DratCheckResult result = check_drat(premise, "d -1 2 0\n3 0\n0\n");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.deletions_skipped, 1u);
  EXPECT_EQ(result.deletions_applied, 0u);
}

TEST(DratCheck, RatPivotIsTheFirstLiteralAsWritten) {
  // (-1 2)(4 5)(4 -5)(-4 5)(-4 -5). "3 1" is RAT on 3: variable 3 is
  // fresh, so no clause contains -3. On 1 it is not: the resolvent with
  // (-1 2) is "3 2", which is not RUP. The pivot is the literal written
  // first, so only the first ordering checks.
  const std::vector<std::vector<Lit>> premise = {{neg(0), pos(1)},
                                                 {pos(3), pos(4)},
                                                 {pos(3), neg(4)},
                                                 {neg(3), pos(4)},
                                                 {neg(3), neg(4)}};
  const DratCheckResult result = check_drat(premise, "3 1 0\n4 0\n0\n");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.rat_lemmas, 1u);
  const DratCheckResult swapped = check_drat(premise, "1 3 0\n4 0\n0\n");
  EXPECT_FALSE(swapped.ok);
  EXPECT_NE(swapped.error.find("lemma 1"), std::string::npos)
      << swapped.error;
}

TEST(SolverSearch, PigeonholeSearchIsPinned) {
  // PHP(8,7) is the smallest pigeonhole instance on which reduce_db runs,
  // and the clauses it frees make the solver compact its clause arena.
  // The digest pins the whole search: every learnt clause in learning
  // order with its literal order, every deletion, and the counts.
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, 8, 7);
  ASSERT_FALSE(s.solve());
  const auto proof = s.take_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  const SolverStats stats = s.stats();
  EXPECT_EQ(stats.conflicts, 5769u);
  EXPECT_EQ(stats.removed_clauses, 2507u);
  const std::uint64_t digest = util::Fnv1a64()
                                   .text(proof->drat())
                                   .word(stats.conflicts)
                                   .word(stats.removed_clauses)
                                   .value();
  EXPECT_EQ(digest, kPigeonholeSearchDigest);
}

/// Deterministic single-line mutations of a DRAT text: for line i, delete
/// it; flip the sign of its literal i mod k; and, on an addition line,
/// drop that literal.
std::vector<std::string> single_line_mutations(const std::string& drat) {
  std::vector<std::string> lines;
  std::istringstream in(drat);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  const auto join = [&](std::size_t skip, const std::string& replacement) {
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out += (i == skip) ? replacement : lines[i];
      out += (i == skip && replacement.empty()) ? "" : "\n";
    }
    return out;
  };
  std::vector<std::string> mutations;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    mutations.push_back(join(i, ""));
    std::istringstream tokens(lines[i]);
    const bool deletion = lines[i].starts_with("d ");
    std::vector<std::string> lits;
    for (std::string token; tokens >> token;) {
      if (token != "d" && token != "0") {
        lits.push_back(token);
      }
    }
    if (lits.empty()) {
      continue;
    }
    const std::size_t k = i % lits.size();
    const auto render = [&](std::size_t drop, bool flip) {
      std::string out = deletion ? "d " : "";
      for (std::size_t j = 0; j < lits.size(); ++j) {
        if (j == drop) {
          continue;
        }
        const std::string& lit = lits[j];
        out += (j == k && flip)
                   ? (lit[0] == '-' ? lit.substr(1) : "-" + lit)
                   : lit;
        out += ' ';
      }
      return out + "0";
    };
    mutations.push_back(join(i, render(lits.size(), /*flip=*/true)));
    if (!deletion) {
      mutations.push_back(join(i, render(k, /*flip=*/false)));
    }
  }
  return mutations;
}

struct MutationVerdicts {
  std::size_t mutations = 0;
  std::size_t rejected = 0;
  std::uint64_t digest = 0;  // Over ok and the three counts, in order.
};

MutationVerdicts check_mutations(std::span<const std::vector<Lit>> premise,
                                 const std::string& drat) {
  MutationVerdicts verdicts;
  util::Fnv1a64 hash;
  for (const std::string& mutated : single_line_mutations(drat)) {
    const DratCheckResult result = check_drat(premise, mutated);
    ++verdicts.mutations;
    verdicts.rejected += result.ok ? 0 : 1;
    hash.word(result.ok ? 1 : 0)
        .word(result.lemmas_checked)
        .word(result.deletions_applied)
        .word(result.deletions_skipped);
  }
  verdicts.digest = hash.value();
  return verdicts;
}


// --- Hint mutations --------------------------------------------------------

using Step = ProofHints::Step;

std::vector<Step> decode_steps(const ProofHints& hints) {
  std::vector<Step> steps;
  ProofHints::Reader reader(hints, hints.steps());
  for (Step step; reader.next(step);) {
    steps.push_back(step);
  }
  return steps;
}

ProofHints encode_steps(const std::vector<Step>& steps) {
  ProofHints hints;
  for (const Step& step : steps) {
    if (step.unit == Lit::undef) {
      hints.add_lemma(step.chain);
    } else {
      hints.add_root(step.unit, step.chain);
    }
  }
  return hints;
}

/// The addition lines of a DRAT text.
std::vector<std::vector<Lit>> addition_lines(const std::string& drat) {
  std::vector<std::vector<Lit>> lemmas;
  std::istringstream in(drat);
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("d ")) {
      continue;
    }
    std::istringstream tokens(line);
    std::vector<Lit> lemma;
    for (long long v = 0; tokens >> v && v != 0;) {
      lemma.emplace_back(static_cast<Var>(std::llabs(v) - 1), v < 0);
    }
    lemmas.push_back(lemma);
  }
  return lemmas;
}

bool is_false_at(const std::map<Var, bool>& root, Lit l) {
  const auto it = root.find(l.var());
  return it != root.end() && it->second == l.sign();
}

/// Whether a hinted refutation holds, decided the slow and obvious way:
/// each step starts from a copy of the root assignment as a map, asserts
/// the negation of its target and applies its chain hint by hint.
bool reference_hinted(const UnsatProof& proof, const std::vector<Step>& steps,
                      const std::vector<std::uint32_t>& refutation) {
  const std::vector<std::vector<Lit>> lemmas = addition_lines(proof.drat());
  std::map<Var, bool> root;
  std::size_t derived = 0;  // Lemmas checked so far.
  const auto cited = [&](std::uint32_t id) -> std::optional<std::vector<Lit>> {
    if (id == ProofHints::kNone) {
      return std::nullopt;
    }
    if ((id & ProofHints::kLemma) != 0) {
      const std::size_t k = id & ~ProofHints::kLemma;
      return k < derived ? std::optional(lemmas[k]) : std::nullopt;
    }
    if ((id & ProofHints::kAssumption) != 0) {
      const std::size_t j = id & ~ProofHints::kAssumption;
      return j < proof.assumptions.size()
                 ? std::optional(std::vector<Lit>{proof.assumptions[j]})
                 : std::nullopt;
    }
    return id < proof.premise().size() ? std::optional(proof.premise()[id])
                                       : std::nullopt;
  };
  const auto derives = [&](const std::vector<Lit>& target,
                           const std::vector<std::uint32_t>& chain) {
    std::map<Var, bool> value = root;
    const auto is = [&](Lit l, bool truth) {
      const auto it = value.find(l.var());
      return it != value.end() && (it->second != l.sign()) == truth;
    };
    for (const Lit l : target) {
      if (is(l, true)) {
        return true;
      }
      value[l.var()] = l.sign();
    }
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const auto clause = cited(chain[k]);
      if (!clause.has_value()) {
        return false;
      }
      std::set<std::int32_t> open;
      for (const Lit l : *clause) {
        if (is(l, true)) {
          return false;
        }
        if (!is(l, false)) {
          open.insert(l.code());
        }
      }
      if (open.empty()) {
        return k + 1 == chain.size();
      }
      if (open.size() > 1 || k + 1 == chain.size()) {
        return false;
      }
      const Lit unit = Lit::from_code(*open.begin());
      value[unit.var()] = !unit.sign();
    }
    return false;
  };
  for (const Step& step : steps) {
    if (step.unit != Lit::undef) {
      if (!derives({step.unit}, step.chain) || is_false_at(root, step.unit)) {
        return false;
      }
      root[step.unit.var()] = !step.unit.sign();
      continue;
    }
    if (derived == lemmas.size() || !derives(lemmas[derived], step.chain)) {
      return false;
    }
    if (lemmas[derived++].empty()) {
      return true;
    }
  }
  return derived < lemmas.size() && lemmas[derived].empty() &&
         derives({}, refutation);
}

struct HintVerdicts {
  std::size_t mutations = 0;
  std::size_t rejected = 0;
  std::size_t broken = 0;  // Mutants that break the chain by construction.
};

/// Five mutants per chain, the empty clause's included: drop hint i, swap
/// hints i and i + 1, retarget hint i to the premise clause after the one
/// it names (or to premise clause 0), point it at the step's own lemma,
/// which is not yet derived, and point it one past the premise. The hinted
/// checker must agree with `reference_hinted` on each, and reject every
/// dropped, future and out-of-range hint.
HintVerdicts check_hint_mutations(const UnsatProof& proof) {
  const std::vector<Step> steps = decode_steps(proof.hints());
  const auto premise_size = static_cast<std::uint32_t>(proof.premise().size());
  HintVerdicts verdicts;
  std::uint32_t lemma = 0;
  for (std::size_t s = 0; s <= steps.size(); ++s) {
    const std::vector<std::uint32_t>& chain =
        s < steps.size() ? steps[s].chain : proof.refutation;
    for (int kind = 0; kind < 5; ++kind) {
      if (chain.empty() || (kind == 1 && chain.size() < 2)) {
        continue;
      }
      std::vector<std::uint32_t> mutant = chain;
      const std::size_t i = s % (kind == 1 ? chain.size() - 1 : chain.size());
      if (kind == 0) {
        mutant.erase(mutant.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (kind == 1) {
        std::swap(mutant[i], mutant[i + 1]);
      } else if (kind == 2) {
        const bool premise = (mutant[i] & (ProofHints::kLemma |
                                           ProofHints::kAssumption)) == 0;
        mutant[i] = premise ? (mutant[i] + 1) % premise_size : 0;
      } else {
        mutant[i] = kind == 3 ? (ProofHints::kLemma | lemma) : premise_size;
      }
      std::vector<Step> mutated = steps;
      std::vector<std::uint32_t> refutation = proof.refutation;
      (s < steps.size() ? mutated[s].chain : refutation) = mutant;
      const DratCheckResult result =
          check_hinted(proof.premise(), proof.assumptions, proof.drat(),
                       encode_steps(mutated), refutation);
      EXPECT_EQ(result.ok, reference_hinted(proof, mutated, refutation))
          << "step " << s << " mutation " << kind;
      const bool broken = kind == 0 || kind >= 3;
      EXPECT_TRUE(!broken || !result.ok) << "step " << s << " mutation "
                                         << kind;
      ++verdicts.mutations;
      verdicts.rejected += result.ok ? 0 : 1;
      verdicts.broken += broken ? 1 : 0;
    }
    lemma += s < steps.size() && steps[s].unit == Lit::undef ? 1 : 0;
  }
  return verdicts;
}

TEST(DratCheck, MutationVerdictsArePinned) {
  // The checker's verdicts on a fixed mutation corpus, pinned as the
  // previous clause layout computed them.
  const UnsatProof php = pigeonhole_proof(6, 5);
  ASSERT_TRUE(php.assumptions.empty());
  const MutationVerdicts php_verdicts = check_mutations(php.premise(), php.drat());
  EXPECT_EQ(php_verdicts.mutations, kPhpMutations);
  EXPECT_EQ(php_verdicts.rejected, kPhpRejected);
  EXPECT_EQ(php_verdicts.digest, kPhpVerdictDigest);

  // Every present proof of the Steane, Shor and Surface_3 compiles:
  // synthesis CNFs.
  MutationVerdicts synth_verdicts;
  util::Fnv1a64 synth_digest;
  for (const char* code : {"Steane", "Shor", "Surface_3"}) {
    const compile::ProtocolArtifact artifact = compile_with_proofs(code);
    for (const auto& proof : artifact.proofs) {
      if (!proof.present) {
        continue;
      }
      const CnfFormula premise = parse_dimacs_string(proof.premise_dimacs);
      const MutationVerdicts verdicts =
          check_mutations(premise.clauses, proof.drat);
      synth_verdicts.mutations += verdicts.mutations;
      synth_verdicts.rejected += verdicts.rejected;
      synth_digest.word(verdicts.digest);
    }
  }
  synth_verdicts.digest = synth_digest.value();
  EXPECT_EQ(synth_verdicts.mutations, kSynthMutations);
  EXPECT_EQ(synth_verdicts.rejected, kSynthRejected);
  EXPECT_EQ(synth_verdicts.digest, kSynthVerdictDigest);

  // The hint arm: one-hint mutations of every chain of the PHP(6,5) proof
  // and of a refutation under assumptions (PHP(5,5) with hole 4 closed).
  ASSERT_TRUE(check_hinted_proof(php).ok);
  const HintVerdicts php_hints = check_hint_mutations(php);
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, 5, 5);
  std::vector<Lit> closed;
  for (Var p = 0; p < 5; ++p) {
    closed.push_back(neg(p * 5 + 4));
  }
  ASSERT_FALSE(s.solve(closed));
  const auto assumed = s.take_unsat_proof();
  ASSERT_TRUE(assumed.has_value());
  ASSERT_TRUE(check_hinted_proof(*assumed).ok);
  const HintVerdicts assumed_hints = check_hint_mutations(*assumed);
  EXPECT_EQ(php_hints.mutations, kPhpHintMutations);
  EXPECT_EQ(php_hints.rejected, kPhpHintRejected);
  EXPECT_EQ(assumed_hints.mutations, kAssumedHintMutations);
  EXPECT_EQ(assumed_hints.rejected, kAssumedHintRejected);
}

// --- Bit-identity: logging is pure observation ---------------------------

SolverStats solve_pigeonhole_stats(bool logging, bool* sat_out) {
  Solver s;
  s.set_proof_logging(logging);
  add_pigeonhole(s, 5, 4);
  *sat_out = s.solve();
  return s.stats();
}

TEST(ProofLogging, SolverStatsBitIdenticalOnOff) {
  bool sat_on = true;
  bool sat_off = false;
  const SolverStats on = solve_pigeonhole_stats(true, &sat_on);
  const SolverStats off = solve_pigeonhole_stats(false, &sat_off);
  EXPECT_EQ(sat_on, sat_off);
  EXPECT_EQ(on.decisions, off.decisions);
  EXPECT_EQ(on.propagations, off.propagations);
  EXPECT_EQ(on.conflicts, off.conflicts);
  EXPECT_EQ(on.restarts, off.restarts);
  EXPECT_EQ(on.learned_clauses, off.learned_clauses);
  EXPECT_EQ(on.removed_clauses, off.removed_clauses);
}

TEST(ProofLogging, SatModelsBitIdenticalOnOff) {
  std::vector<bool> models[2];
  for (int pass = 0; pass < 2; ++pass) {
    Solver s;
    s.set_proof_logging(pass == 0);
    add_pigeonhole(s, 4, 4);
    ASSERT_TRUE(s.solve());
    for (Var v = 0; v < s.num_vars(); ++v) {
      models[pass].push_back(s.model_value(v));
    }
  }
  EXPECT_EQ(models[0], models[1]);
}

TEST(ProofLogging, DisabledReportsNoProof) {
  Solver s;
  add_pigeonhole(s, 4, 3);
  EXPECT_FALSE(s.solve());
  EXPECT_FALSE(s.proof_logging());
  EXPECT_FALSE(s.take_unsat_proof().has_value());
}

// --- End-to-end capture: weight-sweep legs through the compiler ----------

TEST(ProofCapture, SteaneWeightSweepLegsAccepted) {
  const auto artifact = compile_with_proofs("Steane");
  ASSERT_FALSE(artifact.proofs.empty());
  std::size_t present = 0;
  for (const auto& proof : artifact.proofs) {
    if (!proof.present) {
      // Honest absents must say why.
      EXPECT_FALSE(proof.absent_reason.empty()) << proof.stage;
      continue;
    }
    ++present;
    EXPECT_TRUE(proof.checked) << proof.stage;
    EXPECT_EQ(proof.premise_dimacs.size(), proof.premise_size);
    EXPECT_EQ(proof.drat.size(), proof.drat_size);
    // The persisted premise must parse and the DRAT must re-check
    // against it, assumption-free (assumptions were baked in as units).
    const CnfFormula premise = parse_dimacs_string(proof.premise_dimacs);
    const DratCheckResult result = check_drat(premise.clauses, proof.drat);
    EXPECT_TRUE(result.ok) << proof.stage << ": " << result.error;
  }
  // The Steane compile has SAT-swept verification and correction stages;
  // at least one UNSAT leg per sweep must carry a checked proof.
  EXPECT_GE(present, 2u);
}

TEST(ProofCapture, CapturedDratIsLoadBearing) {
  // A forward checker accepts as soon as the accumulated lemmas force a
  // root-level conflict, so chopping the *tail* of a valid refutation
  // can still verify. What must never verify is the premise without the
  // derivation: the captured DRAT content is load-bearing, not
  // decorative. (Line-level truncation/mutation rejection is covered by
  // the pigeonhole tests above.)
  const auto artifact = compile_with_proofs("Steane");
  std::size_t nontrivial = 0;
  for (const auto& proof : artifact.proofs) {
    if (!proof.present) {
      continue;
    }
    const CnfFormula premise = parse_dimacs_string(proof.premise_dimacs);
    const DratCheckResult empty_verdict = check_drat(premise.clauses, "");
    EXPECT_FALSE(empty_verdict.ok) << proof.stage;
    nontrivial += empty_verdict.ok ? 0 : 1;
    // And a proof for a *different* premise must not transfer.
    for (const auto& other : artifact.proofs) {
      if (&other == &proof || !other.present ||
          other.premise_crc == proof.premise_crc) {
        continue;
      }
      const CnfFormula other_premise =
          parse_dimacs_string(other.premise_dimacs);
      const auto swapped = check_drat(other_premise.clauses, proof.drat);
      // Either rejected outright, or it only passes by exposing a
      // premise that was itself refutable — never silently vacuous.
      if (swapped.ok) {
        EXPECT_GT(swapped.lemmas_checked, 0u)
            << proof.stage << " vs " << other.stage;
      }
    }
  }
  EXPECT_GE(nontrivial, 2u);
}

TEST(ProofCapture, ArtifactAndStoreRoundTripProofs) {
  const auto artifact = compile_with_proofs("Steane");

  // Container round-trip carries the metadata (fingerprints, verdicts)
  // but not the bytes — those live in the sidecar.
  const auto decoded = compile::decode_artifact(compile::encode_artifact(artifact));
  ASSERT_EQ(decoded.proofs.size(), artifact.proofs.size());
  for (std::size_t i = 0; i < decoded.proofs.size(); ++i) {
    EXPECT_EQ(decoded.proofs[i].stage, artifact.proofs[i].stage);
    EXPECT_EQ(decoded.proofs[i].claim, artifact.proofs[i].claim);
    EXPECT_EQ(decoded.proofs[i].present, artifact.proofs[i].present);
    EXPECT_EQ(decoded.proofs[i].checked, artifact.proofs[i].checked);
    EXPECT_EQ(decoded.proofs[i].drat_crc, artifact.proofs[i].drat_crc);
    EXPECT_TRUE(decoded.proofs[i].drat.empty());
  }

  // Store round-trip: `get` reads the container only, so every present
  // entry comes back metadata-only; `load_proofs` restores the bytes
  // from the sidecar exactly.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ftsp-proof-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    compile::ArtifactStore store(dir.string());
    const obs::Counter& write_bytes =
        obs::Registry::instance().counter("store.proof.write.bytes");
    const std::uint64_t written_before = write_bytes.value();
    store.put(artifact);
    const auto read_file = [](const std::filesystem::path& path) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      return bytes.str();
    };
    std::filesystem::path sidecar_path;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".proof") {
        sidecar_path = entry.path();
      }
    }
    ASSERT_FALSE(sidecar_path.empty());
    const std::string sidecar_bytes = read_file(sidecar_path);
    EXPECT_EQ(write_bytes.value() - written_before, sidecar_bytes.size());

    auto loaded = store.get(artifact.key);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->proofs.size(), artifact.proofs.size());
    for (std::size_t i = 0; i < loaded->proofs.size(); ++i) {
      const auto& got = loaded->proofs[i];
      const auto& want = artifact.proofs[i];
      EXPECT_EQ(got.stage, want.stage);
      EXPECT_EQ(got.claim, want.claim);
      EXPECT_EQ(got.present, want.present);
      EXPECT_EQ(got.checked, want.checked);
      EXPECT_EQ(got.premise_size, want.premise_size);
      EXPECT_EQ(got.premise_crc, want.premise_crc);
      EXPECT_EQ(got.drat_size, want.drat_size);
      EXPECT_EQ(got.drat_crc, want.drat_crc);
      EXPECT_TRUE(got.premise_dimacs.empty()) << got.stage;
      EXPECT_TRUE(got.drat.empty()) << got.stage;
    }

    // get -> put of the metadata-only artifact keeps the good sidecar.
    store.put(*loaded);
    EXPECT_EQ(read_file(sidecar_path), sidecar_bytes);
    EXPECT_EQ(write_bytes.value() - written_before, sidecar_bytes.size());

    store.load_proofs(*loaded);
    for (std::size_t i = 0; i < loaded->proofs.size(); ++i) {
      EXPECT_EQ(loaded->proofs[i].premise_dimacs,
                artifact.proofs[i].premise_dimacs);
      EXPECT_EQ(loaded->proofs[i].drat, artifact.proofs[i].drat);
    }

    // No proof entries: the sidecar is not even opened, and the
    // artifact is left exactly as it was.
    compile::ProtocolArtifact no_proofs = *loaded;
    no_proofs.proofs.clear();
    const std::string before = compile::encode_artifact(no_proofs);
    const obs::Counter& read_bytes =
        obs::Registry::instance().counter("store.proof.read.bytes");
    const std::uint64_t read_before = read_bytes.value();
    store.load_proofs(no_proofs);
    EXPECT_EQ(compile::encode_artifact(no_proofs), before);
    EXPECT_EQ(read_bytes.value(), read_before);
  }
  std::filesystem::remove_all(dir);
}

// --- Trimming to the refutation's core -----------------------------------

std::vector<Lit> dimacs_clause(const std::vector<int>& values) {
  std::vector<Lit> clause;
  for (const int v : values) {
    clause.emplace_back(static_cast<Var>(std::abs(v) - 1), v < 0);
  }
  return clause;
}

/// A refutation under the assumption x4, built by hand: the eight clauses
/// over x1..x3 with an uncited premise clause among them, an uncited lemma,
/// a root step that alone cites a lemma, and deletions of a cited and an
/// uncited lemma.
UnsatProof hand_built_refutation() {
  auto log = std::make_shared<ProofLog>();
  for (const std::vector<int>& clause :
       std::vector<std::vector<int>>{{1, 2, 3},
                                     {-4, 5},  // Cited only by lemma 1.
                                     {1, 2, -3},
                                     {1, -2, 3},
                                     {1, -2, -3},
                                     {-1, 2, 3},
                                     {-1, 2, -3},
                                     {-1, -2, 3},
                                     {-1, -2, -3}}) {
    log->premise.push_back(dimacs_clause(clause));
  }
  log->add_line(dimacs_clause({1, 2}), false);  // Lemma 0, cited by lemma 2.
  log->add_line(dimacs_clause({5}), false);     // Lemma 1, cited by nothing.
  log->add_line(dimacs_clause({1}), false);     // Lemma 2, cited by the root.
  log->add_line(dimacs_clause({5}), true);      // Deletes the uncited lemma.
  log->add_line(dimacs_clause({2, 1}), true);   // Deletes lemma 0, reordered.
  log->add_line(dimacs_clause({2}), false);     // Lemma 3, cited at the end.
  constexpr std::uint32_t kA = ProofHints::kAssumption;
  constexpr std::uint32_t kL = ProofHints::kLemma;
  log->hints.add_lemma(std::vector<std::uint32_t>{0, 2});
  log->hints.add_lemma(std::vector<std::uint32_t>{kA | 0, 1});
  log->hints.add_lemma(std::vector<std::uint32_t>{kL | 0, 3, 4});
  log->hints.add_root(pos(0), std::vector<std::uint32_t>{kL | 2});
  log->hints.add_lemma(std::vector<std::uint32_t>{5, 6});
  UnsatProof proof;
  proof.premise_size = log->premise.size();
  proof.lines = log->lines();
  proof.steps = log->hints.steps();
  proof.log = log;
  proof.assumptions = {pos(3)};
  proof.refutation = {kL | 3, 7, 8};
  return proof;
}

/// `drat` without its `k`-th addition line.
std::string drop_addition(const std::string& drat, std::size_t k) {
  std::istringstream in(drat);
  std::string out;
  std::size_t addition = 0;
  for (std::string line; std::getline(in, line);) {
    const bool deletion = line.starts_with("d ");
    if (deletion || addition++ != k) {
      out += line + "\n";
    }
  }
  return out;
}

TEST(ProofTrim, KeepsExactlyTheCitedClausesOfAHandBuiltRefutation) {
  const UnsatProof proof = hand_built_refutation();
  ASSERT_EQ(proof.drat(),
            "1 2 0\n5 0\n1 0\nd 5 0\nd 2 1 0\n2 0\n0\n");
  ASSERT_TRUE(check_proof(proof).ok) << check_proof(proof).error;
  ASSERT_TRUE(check_hinted_proof(proof).ok);

  const core::CapturedProof entry =
      core::make_checked_proof("test", "hand-built", 0, proof);
  EXPECT_TRUE(entry.checked);
  // The cited clauses in their original order, then the assumption unit,
  // under the full formula's variable count.
  EXPECT_EQ(entry.premise_dimacs,
            "p cnf 5 9\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n"
            "-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n4 0\n");
  EXPECT_EQ(entry.drat, "1 2 0\n1 0\nd 2 1 0\n2 0\n0\n");
  const CnfFormula stored = parse_dimacs_string(entry.premise_dimacs);
  const DratCheckResult forward = check_drat(stored.clauses, entry.drat);
  EXPECT_TRUE(forward.ok) << forward.error;

  const UnsatProof trimmed = core::trim_proof(proof);
  EXPECT_EQ(trimmed.drat(), entry.drat);
  EXPECT_EQ(trimmed.premise().size(), 8u);
  EXPECT_EQ(trimmed.assumptions, proof.assumptions);
  EXPECT_TRUE(check_hinted_proof(trimmed).ok);
  EXPECT_TRUE(check_proof(trimmed).ok);

  // Every kept lemma is load-bearing for both checkers.
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string dropped = drop_addition(entry.drat, k);
    EXPECT_FALSE(check_drat(stored.clauses, dropped).ok) << "lemma " << k;
    EXPECT_FALSE(check_hinted(trimmed.premise(), trimmed.assumptions,
                              dropped, trimmed.hints(), trimmed.refutation)
                     .ok)
        << "lemma " << k;
  }
}

/// Random 3-SAT with a planted model (every variable true on its
/// planted side): satisfiable, yet dense enough that search conflicts.
/// Returns the literal that agrees with the planted model on variable 0.
Lit add_planted_3sat(Solver& s, int vars, int clauses, std::uint64_t seed) {
  const Var first = s.num_vars();
  for (int v = 0; v < vars; ++v) {
    s.new_var();
  }
  std::uint64_t state = seed;
  const auto next = [&state](int bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) %
                            static_cast<std::uint64_t>(bound));
  };
  for (int c = 0; c < clauses; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.emplace_back(first + next(vars), next(2) == 1);
    }
    // One literal the planted model satisfies.
    Lit& kept = clause[static_cast<std::size_t>(next(3))];
    kept = pos(kept.var());
    s.add_clause(clause);
  }
  return pos(first);
}

TEST(ProofTrim, DropsTheUncitedLemmasOfAnEarlierSatLeg) {
  Solver s;
  s.set_proof_logging(true);
  const Lit planted = add_planted_3sat(s, 120, 500, 7);
  ASSERT_TRUE(s.solve({planted}));
  // Each conflict of a satisfiable solve learns one lemma.
  const std::uint64_t sat_lemmas = s.stats().conflicts;
  ASSERT_GT(sat_lemmas, 0u);
  add_pigeonhole(s, 5, 4);  // Fresh variables: an independent PHP(5,4).
  ASSERT_FALSE(s.solve());
  const auto proof = s.take_unsat_proof();
  ASSERT_TRUE(proof.has_value());

  const RefutationCore cited =
      refutation_core(proof->hints(), proof->steps, proof->premise().size(),
                      proof->refutation);
  std::size_t dropped = 0;
  for (std::uint64_t k = 0; k < sat_lemmas; ++k) {
    dropped += cited.lemmas[k] ? 0 : 1;
  }
  EXPECT_GT(dropped, 0u) << sat_lemmas << " lemmas in the SAT leg";
  // The stored lines are the cited ones, in order, then the empty clause.
  const std::vector<std::vector<Lit>> lines = addition_lines(proof->drat());
  std::vector<std::vector<Lit>> kept;
  for (std::size_t k = 0; k < cited.lemmas.size(); ++k) {
    if (cited.lemmas[k]) {
      kept.push_back(lines[k]);
    }
  }
  kept.push_back(lines.back());
  const core::CapturedProof entry =
      core::make_checked_proof("test", "php(5,4)", 0, *proof);
  EXPECT_TRUE(entry.checked);
  EXPECT_EQ(addition_lines(entry.drat), kept);
  EXPECT_LT(entry.drat.size(), proof->drat().size());
  const CnfFormula stored = parse_dimacs_string(entry.premise_dimacs);
  const DratCheckResult forward = check_drat(stored.clauses, entry.drat);
  EXPECT_TRUE(forward.ok) << forward.error;
}

TEST(ProofTrim, StoredPremiseIsASubsequenceOfTheSolverPremise) {
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, 6, 6);
  ASSERT_TRUE(s.solve());
  std::vector<Lit> closed;
  for (Var p = 0; p < 6; ++p) {
    closed.push_back(neg(p * 6 + 5));
  }
  ASSERT_FALSE(s.solve(closed));
  const auto proof = s.take_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  const core::CapturedProof entry =
      core::make_checked_proof("test", "php(6,5)", 0, *proof);
  EXPECT_TRUE(entry.checked);
  const CnfFormula stored = parse_dimacs_string(entry.premise_dimacs);
  ASSERT_GE(stored.clauses.size(), closed.size());
  // The assumption units close the stored premise.
  const std::size_t cited = stored.clauses.size() - closed.size();
  for (std::size_t j = 0; j < closed.size(); ++j) {
    EXPECT_EQ(stored.clauses[cited + j], std::vector<Lit>{closed[j]});
  }
  EXPECT_LT(cited, proof->premise().size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < cited; ++i) {
    while (next < proof->premise().size() &&
           proof->premise()[next] != stored.clauses[i]) {
      ++next;
    }
    ASSERT_LT(next, proof->premise().size()) << "clause " << i;
    ++next;
  }
}

TEST(ProofCapture, TornSidecarDegradesToEmptyBytes) {
  const auto artifact = compile_with_proofs("Steane");
  ASSERT_TRUE(compile::has_proof_bytes(artifact));
  std::ostringstream encoded;
  compile::write_proof_sidecar(artifact, encoded);
  std::string sidecar = encoded.str();
  sidecar.resize(sidecar.size() / 2);

  auto stripped = compile::decode_artifact(compile::encode_artifact(artifact));
  compile::rehydrate_proof_bytes(stripped, sidecar);
  // A torn sidecar must never fake bytes into entries it cannot verify:
  // every entry is either fully restored or left empty.
  for (std::size_t i = 0; i < stripped.proofs.size(); ++i) {
    const auto& proof = stripped.proofs[i];
    if (!proof.present || proof.drat.empty()) {
      continue;
    }
    EXPECT_EQ(proof.drat, artifact.proofs[i].drat);
    EXPECT_EQ(proof.premise_dimacs, artifact.proofs[i].premise_dimacs);
  }
}

}  // namespace
}  // namespace ftsp::sat
