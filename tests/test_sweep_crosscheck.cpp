// Stress tier: cross-checks the incremental sweep engine against
// from-scratch encodes over the full code library.
#include <gtest/gtest.h>

#include "core/ft_check.hpp"
#include "core/metrics.hpp"
#include "core/prep_synth.hpp"
#include "core/protocol.hpp"
#include "core/verification.hpp"
#include "qec/code_library.hpp"
#include "qec/state_context.hpp"

namespace ftsp::core {
namespace {

using f2::BitVec;
using qec::LogicalBasis;
using qec::PauliType;

class SweepCrosscheckAllCodes : public ::testing::TestWithParam<const char*> {
};

/// Incremental and from-scratch engines must agree on the (u, v) optimum
/// for every library code, and both sets must detect every dangerous
/// error.
TEST_P(SweepCrosscheckAllCodes, VerificationOptimaMatch) {
  const auto code = qec::library_code_by_name(GetParam());
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_prep(state);
  const auto events =
      enumerate_single_fault_events(code.num_qubits(), {&prep});
  const auto dangerous = dangerous_errors(state, PauliType::X, events);
  if (dangerous.empty()) {
    GTEST_SKIP() << "no dangerous errors for " << GetParam();
  }
  const auto& generators = state.detector_generators(PauliType::X);

  VerificationSynthOptions incremental;
  incremental.engine.incremental = true;
  incremental.engine.use_cache = false;
  VerificationSynthOptions fresh;
  fresh.engine.incremental = false;
  fresh.engine.use_cache = false;

  const auto a = synthesize_verification(generators, dangerous, incremental);
  const auto b = synthesize_verification(generators, dangerous, fresh);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->count(), b->count());
  EXPECT_EQ(a->total_weight(), b->total_weight());
  for (const auto* set : {&*a, &*b}) {
    for (const BitVec& e : dangerous) {
      bool detected = false;
      for (const BitVec& s : set->stabilizers) {
        detected = detected || s.dot(e);
      }
      EXPECT_TRUE(detected) << "undetected " << e.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, SweepCrosscheckAllCodes,
    ::testing::Values("Steane", "Shor", "Surface_3", "[[11,1,3]]",
                      "Tetrahedral", "Hamming", "Carbon", "[[16,2,4]]",
                      "Tesseract"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

/// Protocol synthesis through the incremental engine stays fault-tolerant
/// and matches the from-scratch engine's headline metrics.
TEST(SweepCrosscheck, ProtocolMetricsMatchAcrossEngines) {
  for (const char* name : {"Steane", "Surface_3", "Tetrahedral"}) {
    const auto code = qec::library_code_by_name(name);
    SynthesisOptions incremental;
    incremental.verification.engine.incremental = true;
    incremental.verification.engine.use_cache = false;
    incremental.correction.engine.incremental = true;
    incremental.correction.engine.use_cache = false;
    SynthesisOptions fresh;
    fresh.verification.engine.incremental = false;
    fresh.verification.engine.use_cache = false;
    fresh.correction.engine.incremental = false;
    fresh.correction.engine.use_cache = false;

    const auto a =
        synthesize_protocol(code, LogicalBasis::Zero, incremental);
    const auto b = synthesize_protocol(code, LogicalBasis::Zero, fresh);
    const auto ma = compute_metrics(a);
    const auto mb = compute_metrics(b);
    EXPECT_EQ(ma.total_verif_ancillas, mb.total_verif_ancillas) << name;
    EXPECT_EQ(ma.total_verif_cnots, mb.total_verif_cnots) << name;
    EXPECT_TRUE(check_fault_tolerance(a).ok) << name;
  }
}

}  // namespace
}  // namespace ftsp::core
