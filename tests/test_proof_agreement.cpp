// The compile-time proof verdict comes from the hinted checker, which
// replays the solver's antecedents; `audit` re-checks stored proofs with
// the forward DRAT checker. The two must agree on every proof the library
// compiles. This runs every library code plus the two device compiles of
// the perfbench `compile` workload, so it sits in the stress tier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_library.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"

namespace ftsp {
namespace {

TEST(ProofAgreement, HintedAndForwardVerdictsAgreeOnLibraryProofs) {
  core::SynthCache::instance().clear();
  core::SynthesisOptions library;
  library.capture_proofs = true;
  core::SynthesisOptions linear = library;
  linear.coupling.name = "linear";
  linear.prep.method = core::PrepSynthOptions::Method::Optimal;

  std::vector<std::pair<qec::CssCode, const core::SynthesisOptions*>> jobs;
  for (const auto& code : qec::all_library_codes()) {
    jobs.emplace_back(code, &library);
  }
  for (const char* name : {"Steane", "Surface_3"}) {
    jobs.emplace_back(qec::library_code_by_name(name), &linear);
  }

  std::size_t present = 0;
  for (const auto& [code, options] : jobs) {
    const auto artifact = compile::ProtocolCompiler(*options).compile(code);
    for (const auto& proof : artifact.proofs) {
      if (!proof.present) {
        continue;
      }
      ++present;
      const sat::CnfFormula premise =
          sat::parse_dimacs_string(proof.premise_dimacs);
      const sat::DratCheckResult forward =
          sat::check_drat(premise.clauses, proof.drat);
      EXPECT_TRUE(proof.checked) << code.name() << " " << proof.stage;
      EXPECT_EQ(proof.checked, forward.ok)
          << code.name() << " " << proof.stage << ": " << forward.error;
    }
  }
  EXPECT_GT(present, 20u);
}

}  // namespace
}  // namespace ftsp
