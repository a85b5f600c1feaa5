// Stress tier: cross-checks the incremental sweep engine against
// from-scratch encodes over the full code library, and the rate
// estimator's two-fault sector against a scalar enumeration on a
// two-layer, flagged protocol.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "core/ft_check.hpp"
#include "core/metrics.hpp"
#include "core/prep_synth.hpp"
#include "core/protocol.hpp"
#include "core/rate_estimator.hpp"
#include "core/verification.hpp"
#include "decoder/lookup_decoder.hpp"
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

/// The estimator's k = 2 sector, which simulates only the cases whose
/// two faults both fire, against every case run on the scalar Executor.
/// [[11,1,3]] |0> has two verification layers with three correction
/// branches each and flags, so a wrong hook or layer-2 reach rule shows.
TEST(SweepCrosscheck, TwoFaultSectorMatchesScalarEnumerationOnTwoLayers) {
  const Protocol protocol = synthesize_protocol(
      qec::library_code_by_name("[[11,1,3]]"), LogicalBasis::Zero);
  ASSERT_TRUE(protocol.layer1.has_value());
  ASSERT_TRUE(protocol.layer2.has_value());
  ASSERT_FALSE(protocol.layer1->branches.empty());
  ASSERT_FALSE(protocol.layer2->branches.empty());
  ASSERT_TRUE(protocol.layer1->flag_mask.any() ||
              protocol.layer2->flag_mask.any());
  const Executor executor(protocol);
  const decoder::PerfectDecoder decoder(*protocol.code);

  RateOptions options;
  options.seed = 5;
  const auto estimate =
      estimate_logical_error_rate(executor, decoder, 0.01, options);
  ASSERT_GE(estimate.sectors.size(), 3u);
  const SectorEstimate& k2 = estimate.sectors[2];
  ASSERT_EQ(k2.num_faults, 2u);
  ASSERT_TRUE(k2.exhaustive);

  // Every site of every segment, in the Executor's table order; under
  // uniform rates each site pair is equally likely given two faults.
  struct Site {
    const circuit::Circuit* segment;
    std::size_t gate;
    std::size_t ops;
  };
  std::vector<Site> sites;
  for (const Executor::Segment& segment : executor.segments()) {
    const auto& gates = segment.circuit->gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      sites.push_back({segment.circuit, g,
                       sim::num_fault_ops(sim::location_kind(gates[g].kind))});
    }
  }
  const double n = static_cast<double>(sites.size());
  const double pair_weight = 2.0 / (n * (n - 1.0));
  double reference = 0.0;
  std::uint64_t cases = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      const double weight =
          pair_weight / static_cast<double>(sites[i].ops * sites[j].ops);
      for (std::size_t oi = 0; oi < sites[i].ops; ++oi) {
        for (std::size_t oj = 0; oj < sites[j].ops; ++oj) {
          ++cases;
          const auto result = executor.run([&](const SiteRef& ref) -> int {
            if (ref.segment == sites[i].segment &&
                ref.gate_index == sites[i].gate) {
              return static_cast<int>(oi);
            }
            if (ref.segment == sites[j].segment &&
                ref.gate_index == sites[j].gate) {
              return static_cast<int>(oj);
            }
            return -1;
          });
          if (decoder.decode(result.data_error).x_flip) {
            reference += weight;
          }
        }
      }
    }
  }
  EXPECT_EQ(k2.cases, cases);
  EXPECT_NEAR(k2.fail_rate, reference, 1e-9);
  EXPECT_GT(reference, 0.0);
}

}  // namespace
}  // namespace ftsp::core
