#include <gtest/gtest.h>

#include "core/diagnostics.hpp"
#include "core/report.hpp"
#include "core/samplers.hpp"
#include "qec/code_library.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;

TEST(Report, ContainsAllSections) {
  const auto protocol =
      synthesize_protocol(qec::steane(), LogicalBasis::Zero);
  const std::string report = describe_protocol(protocol);
  EXPECT_NE(report.find("Deterministic FT preparation"), std::string::npos);
  EXPECT_NE(report.find("[[7,1,3]] Steane"), std::string::npos);
  EXPECT_NE(report.find("Preparation: 8 CNOTs"), std::string::npos);
  EXPECT_NE(report.find("Layer 1"), std::string::npos);
  EXPECT_NE(report.find("branches: 1"), std::string::npos);
  EXPECT_NE(report.find("pattern"), std::string::npos);
}

TEST(Report, NeverClaimsUnflaggedDangerousHooks) {
  // Under the default FlagDangerous policy the report must never contain
  // the warning marker.
  for (const char* name : {"Steane", "Shor", "Carbon", "Tesseract"}) {
    const auto protocol = synthesize_protocol(
        qec::library_code_by_name(name), LogicalBasis::Zero);
    const std::string report = describe_protocol(protocol);
    EXPECT_EQ(report.find("UNFLAGGED WITH DANGEROUS HOOKS"),
              std::string::npos)
        << name;
  }
}

TEST(Report, DeferredPolicyIsVisible) {
  SynthesisOptions options;
  options.flag_policy = FlagPolicy::DeferToNextLayer;
  const auto protocol =
      synthesize_protocol(qec::carbon(), LogicalBasis::Zero, options);
  const std::string report = describe_protocol(protocol);
  // Layer-1 hooks deferred to layer 2 show up as the warning marker.
  if (protocol.layer1.has_value() && protocol.layer2.has_value()) {
    EXPECT_NE(report.find("Layer 2"), std::string::npos);
  }
  EXPECT_FALSE(report.empty());
}

TEST(Diagnostics, SingleFaultRegimeIsClean) {
  // At t = 1 a two-fault survey may violate, but a *zero*-fault survey
  // framing: every sampled pair where both faults happen to be benign
  // leaves weight <= 2; here we check the survey runs and counts sanely.
  const auto protocol =
      synthesize_protocol(qec::steane(), LogicalBasis::Zero);
  const Executor executor(protocol);
  const auto survey = survey_two_faults(executor, /*t=*/2, 2000, 9);
  EXPECT_EQ(survey.pairs_checked, 2000u);
  EXPECT_LE(survey.weight_violations, survey.pairs_checked);
  EXPECT_LE(survey.logical_class_residuals, survey.pairs_checked);
}

TEST(Diagnostics, TIsMonotone) {
  // Raising the tolerated weight can only reduce violations.
  const auto protocol =
      synthesize_protocol(qec::surface3(), LogicalBasis::Zero);
  const Executor executor(protocol);
  const auto t1 = survey_two_faults(executor, 1, 1500, 4);
  const auto t2 = survey_two_faults(executor, 2, 1500, 4);
  EXPECT_GE(t1.weight_violations, t2.weight_violations);
}

TEST(Diagnostics, ExactLeadingOrderMatchesSampler) {
  // The exhaustively-enumerated O(p^2) coefficient must (a) report zero
  // single-fault failures (fault tolerance, via the decoder this time)
  // and (b) predict the importance-sampled logical error rate at small p
  // within a modest factor (branch-pair contributions are excluded from
  // c2, so the sampled estimate may sit slightly above).
  const auto protocol =
      synthesize_protocol(qec::steane(), LogicalBasis::Zero);
  const Executor executor(protocol);
  const decoder::PerfectDecoder decoder(*protocol.code);
  const auto leading = exact_leading_order(executor, decoder);
  EXPECT_EQ(leading.single_fault_failures, 0u);
  EXPECT_GT(leading.pairs_enumerated, 1000u);
  EXPECT_GT(leading.c2, 0.0);
  EXPECT_GE(leading.c2_any, leading.c2);

  const std::vector<TrajectoryBatch> batches = {
      sample_protocol_batch(executor, decoder, 0.05, 30000, 71),
      sample_protocol_batch(executor, decoder, 0.01, 30000, 72)};
  const double p = 1e-3;
  const double sampled = estimate_logical_rate(batches, p).mean;
  const double predicted = leading.c2 * p * p;
  EXPECT_GT(sampled, 0.3 * predicted);
  EXPECT_LT(sampled, 3.0 * predicted);
}

TEST(Diagnostics, ExactLeadingOrderUsesTheProtocolBasis) {
  // |+>_L fails on Z flips only. Single faults of the Steane |+>_L
  // protocol leave X flips a perfect EC round cannot undo, but those act
  // trivially on |+>_L, so none of them is a failure.
  const auto protocol =
      synthesize_protocol(qec::steane(), LogicalBasis::Plus);
  const Executor executor(protocol);
  const decoder::PerfectDecoder decoder(*protocol.code);
  const auto leading = exact_leading_order(executor, decoder);
  EXPECT_EQ(leading.single_fault_failures, 0u);
  EXPECT_GT(leading.c2, 0.0);
  EXPECT_GE(leading.c2_any, leading.c2);
}

TEST(Diagnostics, DistanceFourCodesAreMoreRobustToPairs) {
  // d = 4 codes detect weight-2 residuals, so the fraction of two-fault
  // pairs that end in a *logical class* should compare favourably with
  // their violation count; smoke-level sanity only.
  const auto protocol =
      synthesize_protocol(qec::carbon(), LogicalBasis::Zero);
  const Executor executor(protocol);
  const auto survey = survey_two_faults(executor, 2, 1500, 11);
  EXPECT_EQ(survey.pairs_checked, 1500u);
  EXPECT_LT(survey.violation_rate(), 0.5);
}

}  // namespace
}  // namespace ftsp::core
