// Pins the exact bytes synthesis produces under proof capture: the CNF
// premise and DRAT refutation of every captured proof, and the
// verification sets and correction plans they anchor. The clause order
// of every synthesis encoding is part of this contract — reordering two
// clauses changes the DIMACS premise and the solver's search, so a
// refactor of the encoders that moves any byte fails here.
//
// Each case also pins a witness digest: the same fold without the premise
// and DRAT bytes. A change to how proofs are rendered or stored moves only
// the first digest; a change to what synthesis finds moves both.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/prep_synth.hpp"
#include "core/protocol.hpp"
#include "core/synth_cache.hpp"
#include "f2/bit_vec.hpp"
#include "qec/code_library.hpp"
#include "qec/coupling.hpp"
#include "util/hash.hpp"

namespace ftsp::core {
namespace {

/// Length-prefixed, so adjacent fields cannot run into each other.
void fold_text(util::Fnv1a64& h, std::string_view s) {
  h.le64(s.size()).text(s);
}

void fold_supports(util::Fnv1a64& h, const std::vector<f2::BitVec>& rows) {
  h.le64(rows.size());
  for (const auto& row : rows) {
    fold_text(h, row.to_string());
  }
}

/// Fold order: every proof entry (stage, claim, present, absent reason,
/// bound, then premise and DRAT when `proof_bytes`), then per layer the
/// verification supports and each branch's key, measurement supports and
/// recovery map.
void fold_run(util::Fnv1a64& h, const ProofSink& sink,
              const Protocol& protocol, bool proof_bytes) {
  h.le64(sink.proofs.size());
  for (const CapturedProof& proof : sink.proofs) {
    EXPECT_EQ(proof.absent_reason.find("kept no proof log"),
              std::string::npos)
        << proof.stage << ": " << proof.absent_reason;
    EXPECT_EQ(proof.present, proof.checked) << proof.stage;
    fold_text(h, proof.stage);
    fold_text(h, proof.claim);
    h.byte(proof.present ? 1 : 0);
    fold_text(h, proof.absent_reason);
    h.le64(proof.bound);
    if (proof_bytes) {
      fold_text(h, proof.premise_dimacs);
      fold_text(h, proof.drat);
    }
  }
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (!layer->has_value()) {
      h.byte(0);
      continue;
    }
    h.byte(1);
    fold_supports(h, (*layer)->verification.stabilizers);
    h.le64((*layer)->branches.size());
    for (const auto& [key, branch] : (*layer)->branches) {
      fold_text(h, key.to_string());
      fold_supports(h, branch.plan.measurements);
      h.le64(branch.plan.recoveries.size());
      for (const auto& [pattern, recovery] : branch.plan.recoveries) {
        fold_text(h, pattern.to_string());
        fold_text(h, recovery.to_string());
      }
    }
  }
}

struct DigestCase {
  const char* code;
  bool incremental;
  /// Optimal preparation by the SAT gate-count sweep instead of the
  /// subspace BFS (Steane's SAT sweep takes over a minute, Shor's well
  /// under a second).
  bool sat_prep;
  std::uint64_t digest;
  std::uint64_t witness;  ///< The digest without premise and DRAT bytes.
};

struct Digests {
  std::uint64_t digest;
  std::uint64_t witness;
};

/// Synthesizes the |0> protocol twice from a cleared synthesis cache:
/// the cold run solves every query (and hits the cache where two
/// branches share one), the warm run is served from the cache.
Digests synthesis_digest(const DigestCase& c) {
  const auto code = qec::library_code_by_name(c.code);
  SynthesisOptions options;
  options.prep.method = PrepSynthOptions::Method::Optimal;
  options.prep.allow_bfs = !c.sat_prep;
  for (sat::EngineOptions* engine :
       {&options.prep.engine, &options.verification.engine,
        &options.correction.engine}) {
    engine->incremental = c.incremental;
  }
  SynthCache::instance().clear();
  util::Fnv1a64 h;
  util::Fnv1a64 witness;
  for (int run = 0; run < 2; ++run) {
    ProofSink sink;
    options.proof_sink = &sink;
    const Protocol protocol =
        synthesize_protocol(code, qec::LogicalBasis::Zero, options);
    fold_run(h, sink, protocol, true);
    fold_run(witness, sink, protocol, false);
  }
  SynthCache::instance().clear();
  return {h.value(), witness.value()};
}

class SynthesisDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(SynthesisDigest, ProofAndWitnessBytesArePinned) {
  const DigestCase& c = GetParam();
  const Digests got = synthesis_digest(c);
  EXPECT_EQ(got.digest, c.digest) << std::hex << "got 0x" << got.digest;
  EXPECT_EQ(got.witness, c.witness) << std::hex << "got 0x" << got.witness;
}

INSTANTIATE_TEST_SUITE_P(
    StabilizerSweeps, SynthesisDigest,
    ::testing::Values(
        DigestCase{"Steane", true, false, 0x65a039fbe95390ffULL,
                   0xd5d4c4c589f65486ULL},
        DigestCase{"Steane", false, false, 0xc731ed86291a424cULL,
                   0xd5d4c4c589f65486ULL},
        DigestCase{"Shor", true, true, 0x803988a146ffe0e0ULL,
                   0x53eb3c6bf29141abULL},
        DigestCase{"Shor", false, true, 0xaf60214421dde55eULL,
                   0x53eb3c6bf29141abULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.code) +
             (info.param.incremental ? "_incremental" : "_fresh");
    });

/// Folds a preparation circuit and every proof entry its synthesis
/// recorded, with its premise and DRAT bytes when `proof_bytes`.
void fold_prep(util::Fnv1a64& h, const circuit::Circuit& prep,
               const ProofSink& sink, bool proof_bytes) {
  fold_text(h, prep.to_text());
  h.le64(sink.proofs.size());
  for (const CapturedProof& proof : sink.proofs) {
    EXPECT_EQ(proof.present, proof.checked) << proof.stage;
    fold_text(h, proof.claim);
    h.byte(proof.present ? 1 : 0);
    fold_text(h, proof.absent_reason);
    h.le64(proof.bound);
    if (proof_bytes) {
      fold_text(h, proof.premise_dimacs);
      fold_text(h, proof.drat);
    }
  }
}

/// One preparation synthesis from a cleared cache, folded with its
/// proof entry; `refuted` says whether that entry holds a refutation.
Digests prep_digests(const qec::CssCode& code, qec::LogicalBasis basis,
                     PrepSynthOptions options, bool refuted = false) {
  const qec::StateContext state(code, basis);
  SynthCache::instance().clear();
  ProofSink sink;
  options.proof_sink = &sink;
  const circuit::Circuit prep = synthesize_prep(state, options);
  SynthCache::instance().clear();
  EXPECT_EQ(sink.proofs.size(), 1u) << code.name();
  for (const CapturedProof& proof : sink.proofs) {
    EXPECT_EQ(proof.present, refuted) << code.name();
  }
  util::Fnv1a64 h;
  util::Fnv1a64 witness;
  fold_prep(h, prep, sink, true);
  fold_prep(witness, prep, sink, false);
  return {h.value(), witness.value()};
}

PrepSynthOptions optimal_prep(bool allow_bfs) {
  PrepSynthOptions options;
  options.method = PrepSynthOptions::Method::Optimal;
  options.allow_bfs = allow_bfs;
  return options;
}

TEST(PrepDigest, HeuristicCircuitsOfTheLibraryArePinned) {
  util::Fnv1a64 h;
  for (const qec::CssCode& code : qec::all_library_codes()) {
    for (const auto basis :
         {qec::LogicalBasis::Zero, qec::LogicalBasis::Plus}) {
      h.le64(prep_digests(code, basis, PrepSynthOptions{}).digest);
    }
  }
  EXPECT_EQ(h.value(), 0x0ba8a2c5dfbca7b8ULL) << std::hex << "got 0x" << h.value();
}

TEST(PrepDigest, SteaneBfsIsPinned) {
  const std::uint64_t digest =
      prep_digests(qec::steane(), qec::LogicalBasis::Zero,
                   optimal_prep(true))
          .digest;
  EXPECT_EQ(digest, 0xdf5effd7520a13a7ULL) << std::hex << "got 0x" << digest;
}

TEST(PrepDigest, ShorSatSweepIsPinned) {
  const Digests got = prep_digests(qec::shor(), qec::LogicalBasis::Zero,
                                   optimal_prep(false), true);
  EXPECT_EQ(got.digest, 0x661af7f738847464ULL)
      << std::hex << "got 0x" << got.digest;
  EXPECT_EQ(got.witness, 0x5031e3a6d894b55dULL)
      << std::hex << "got 0x" << got.witness;
}

/// The library's largest prep refutation: the subspace space is past the
/// BFS limit, so the SAT sweep runs under the linear map.
TEST(PrepDigest, Surface3LinearSatSweepIsPinned) {
  PrepSynthOptions options = optimal_prep(true);
  options.coupling =
      std::make_shared<const qec::CouplingMap>(qec::CouplingMap::linear(9));
  const Digests got =
      prep_digests(qec::surface3(), qec::LogicalBasis::Zero, options, true);
  EXPECT_EQ(got.digest, 0x44677ed2d877d398ULL)
      << std::hex << "got 0x" << got.digest;
  EXPECT_EQ(got.witness, 0x765a32f5ad438f86ULL)
      << std::hex << "got 0x" << got.witness;
}

}  // namespace
}  // namespace ftsp::core
