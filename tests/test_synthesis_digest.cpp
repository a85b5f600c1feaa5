// Pins the exact bytes synthesis produces under proof capture: the CNF
// premise and DRAT refutation of every captured proof, and the
// verification sets and correction plans they anchor. The clause order
// of every synthesis encoding is part of this contract — reordering two
// clauses changes the DIMACS premise and the solver's search, so a
// refactor of the encoders that moves any byte fails here.
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
/// bound, premise, DRAT), then per layer the verification supports and
/// each branch's key, measurement supports and recovery map.
void fold_run(util::Fnv1a64& h, const ProofSink& sink,
              const Protocol& protocol) {
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
    fold_text(h, proof.premise_dimacs);
    fold_text(h, proof.drat);
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
};

/// Synthesizes the |0> protocol twice from a cleared synthesis cache:
/// the cold run solves every query (and hits the cache where two
/// branches share one), the warm run is served from the cache.
std::uint64_t synthesis_digest(const DigestCase& c) {
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
  for (int run = 0; run < 2; ++run) {
    ProofSink sink;
    options.proof_sink = &sink;
    const Protocol protocol =
        synthesize_protocol(code, qec::LogicalBasis::Zero, options);
    fold_run(h, sink, protocol);
  }
  SynthCache::instance().clear();
  return h.value();
}

class SynthesisDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(SynthesisDigest, ProofAndWitnessBytesArePinned) {
  const DigestCase& c = GetParam();
  const std::uint64_t digest = synthesis_digest(c);
  EXPECT_EQ(digest, c.digest) << std::hex << "got 0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    StabilizerSweeps, SynthesisDigest,
    ::testing::Values(
        DigestCase{"Steane", true, false, 0xe9e1c20c3d5b16dfULL},
        DigestCase{"Steane", false, false, 0x1e3a7888ad7b08beULL},
        DigestCase{"Shor", true, true, 0x37e75ef279681835ULL},
        DigestCase{"Shor", false, true, 0xa6329d8722f28aaeULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.code) +
             (info.param.incremental ? "_incremental" : "_fresh");
    });

/// Folds a preparation circuit and every proof entry its synthesis
/// recorded.
void fold_prep(util::Fnv1a64& h, const circuit::Circuit& prep,
               const ProofSink& sink) {
  fold_text(h, prep.to_text());
  h.le64(sink.proofs.size());
  for (const CapturedProof& proof : sink.proofs) {
    EXPECT_EQ(proof.present, proof.checked) << proof.stage;
    fold_text(h, proof.claim);
    h.byte(proof.present ? 1 : 0);
    fold_text(h, proof.absent_reason);
    h.le64(proof.bound);
    fold_text(h, proof.premise_dimacs);
    fold_text(h, proof.drat);
  }
}

/// One preparation synthesis from a cleared cache, folded with its
/// proof entry; `refuted` says whether that entry holds a refutation.
std::uint64_t prep_digest(const qec::CssCode& code, qec::LogicalBasis basis,
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
  fold_prep(h, prep, sink);
  return h.value();
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
      h.le64(prep_digest(code, basis, PrepSynthOptions{}));
    }
  }
  EXPECT_EQ(h.value(), 0x0ba8a2c5dfbca7b8ULL) << std::hex << "got 0x" << h.value();
}

TEST(PrepDigest, SteaneBfsIsPinned) {
  const std::uint64_t digest = prep_digest(
      qec::steane(), qec::LogicalBasis::Zero, optimal_prep(true));
  EXPECT_EQ(digest, 0xdf5effd7520a13a7ULL) << std::hex << "got 0x" << digest;
}

TEST(PrepDigest, ShorSatSweepIsPinned) {
  const std::uint64_t digest = prep_digest(
      qec::shor(), qec::LogicalBasis::Zero, optimal_prep(false), true);
  EXPECT_EQ(digest, 0x5d6719f739f24363ULL) << std::hex << "got 0x" << digest;
}

/// The library's largest prep refutation: the subspace space is past the
/// BFS limit, so the SAT sweep runs under the linear map.
TEST(PrepDigest, Surface3LinearSatSweepIsPinned) {
  PrepSynthOptions options = optimal_prep(true);
  options.coupling =
      std::make_shared<const qec::CouplingMap>(qec::CouplingMap::linear(9));
  const std::uint64_t digest =
      prep_digest(qec::surface3(), qec::LogicalBasis::Zero, options, true);
  EXPECT_EQ(digest, 0x809406656afadd74ULL) << std::hex << "got 0x" << digest;
}

}  // namespace
}  // namespace ftsp::core
