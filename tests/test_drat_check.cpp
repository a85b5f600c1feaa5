#include "sat/drat_check.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/store.hpp"
#include "core/synth_cache.hpp"
#include "obs/registry.hpp"
#include "qec/code_library.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

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

UnsatProof pigeonhole_proof(int pigeons, int holes) {
  Solver s;
  s.set_proof_logging(true);
  add_pigeonhole(s, pigeons, holes);
  EXPECT_FALSE(s.solve());
  const auto proof = s.last_unsat_proof();
  EXPECT_TRUE(proof.has_value());
  return proof.value_or(UnsatProof{});
}

TEST(DratCheck, AcceptsPigeonholeProofs) {
  for (int holes = 2; holes <= 5; ++holes) {
    const UnsatProof proof = pigeonhole_proof(holes + 1, holes);
    EXPECT_TRUE(proof.assumptions.empty());
    const DratCheckResult result = check_proof(proof);
    EXPECT_TRUE(result.ok) << "holes=" << holes << ": " << result.error;
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
  EXPECT_FALSE(s.last_unsat_proof().has_value());
  ASSERT_FALSE(s.solve({pos(a), neg(c)}));
  const auto proof = s.last_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->assumptions.size(), 2u);
  const DratCheckResult result = check_proof(*proof);
  EXPECT_TRUE(result.ok) << result.error;
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
  const auto proof = s.last_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  const DratCheckResult result = check_proof(*proof);
  EXPECT_TRUE(result.ok) << result.error;
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
  const auto proof = s.last_unsat_proof();
  ASSERT_TRUE(proof.has_value());
  const DratCheckResult result = check_proof(*proof);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(DratCheck, RejectsTruncatedProof) {
  const UnsatProof proof = pigeonhole_proof(6, 5);
  ASSERT_GT(proof.drat.size(), 2u);
  // Keep only the first half of the lines: the refutation cannot
  // complete, and the checker must say so rather than accept.
  std::vector<std::string> lines;
  std::istringstream in(proof.drat);
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
      check_drat(proof.premise, proof.assumptions, truncated);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(DratCheck, RejectsProofWithDeletedDerivationLines) {
  const UnsatProof proof = pigeonhole_proof(5, 4);
  // Delete every derivation, keep only the terminating empty clause: the
  // empty clause is not a unit-propagation consequence of the premise.
  const DratCheckResult result =
      check_drat(proof.premise, proof.assumptions, "0\n");
  EXPECT_FALSE(result.ok);
}

TEST(DratCheck, RejectsMutatedProof) {
  const UnsatProof proof = pigeonhole_proof(5, 4);
  // Prepend a bogus lemma: "pigeon 0 sits in hole 0" is neither RUP nor
  // RAT against the pigeonhole premise (its resolvents with the
  // exclusivity clauses are not unit-propagation conflicts).
  const std::string mutated = "1 0\n" + proof.drat;
  const DratCheckResult result =
      check_drat(proof.premise, proof.assumptions, mutated);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("lemma"), std::string::npos) << result.error;
}

TEST(DratCheck, RejectsDeletionOfUnknownClause) {
  const UnsatProof proof = pigeonhole_proof(5, 4);
  const std::string mutated = "d 1 2 3 4 99 0\n" + proof.drat;
  const DratCheckResult result =
      check_drat(proof.premise, proof.assumptions, mutated);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown"), std::string::npos) << result.error;
}

TEST(DratCheck, RejectsMalformedProofText) {
  const UnsatProof proof = pigeonhole_proof(4, 3);
  const DratCheckResult result =
      check_drat(proof.premise, proof.assumptions, "1 -2 x 0\n");
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
  EXPECT_FALSE(s.last_unsat_proof().has_value());
}

// --- End-to-end capture: weight-sweep legs through the compiler ----------

compile::ProtocolArtifact compile_steane_with_proofs() {
  core::SynthCache::instance().clear();
  core::SynthesisOptions options;
  options.capture_proofs = true;
  const compile::ProtocolCompiler compiler(options);
  return compiler.compile(qec::library_code_by_name("Steane"));
}

TEST(ProofCapture, SteaneWeightSweepLegsAccepted) {
  const auto artifact = compile_steane_with_proofs();
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
  const auto artifact = compile_steane_with_proofs();
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
  const auto artifact = compile_steane_with_proofs();

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

TEST(ProofCapture, TornSidecarDegradesToEmptyBytes) {
  const auto artifact = compile_steane_with_proofs();
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
