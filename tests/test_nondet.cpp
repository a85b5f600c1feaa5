#include "core/nondet.hpp"

#include <gtest/gtest.h>

#include "qec/code_library.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;

class NonDetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    protocol_ = synthesize_protocol(qec::steane(), LogicalBasis::Zero);
    decoder_ =
        std::make_unique<decoder::PerfectDecoder>(*protocol_.code);
  }
  Protocol protocol_;
  std::unique_ptr<decoder::PerfectDecoder> decoder_;
};

TEST_F(NonDetTest, NoNoiseAlwaysAccepts) {
  std::mt19937_64 rng(0);
  for (int i = 0; i < 20; ++i) {
    const auto attempt = run_nondet_attempt(protocol_, 0.0, rng);
    EXPECT_TRUE(attempt.accepted);
    EXPECT_TRUE(attempt.data_error.is_identity());
  }
}

TEST_F(NonDetTest, HeavyNoiseOftenRejects) {
  std::mt19937_64 rng(1);
  std::size_t rejected = 0;
  for (int i = 0; i < 300; ++i) {
    if (!run_nondet_attempt(protocol_, 0.2, rng).accepted) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 50u);
}

TEST_F(NonDetTest, AcceptanceDecreasesWithNoise) {
  const auto low = sample_nondet(protocol_, *decoder_, 0.01, 4000, 7);
  const auto high = sample_nondet(protocol_, *decoder_, 0.1, 4000, 7);
  EXPECT_GT(low.acceptance_rate, high.acceptance_rate);
  EXPECT_GT(high.expected_attempts, low.expected_attempts);
}

TEST_F(NonDetTest, AcceptedStatesHaveLowLogicalError) {
  // Post-selected states fail only at second order: at p = 0.02 the
  // logical error rate of accepted states should be well below p. For
  // |+>_L only Z flips count; its X flips alone read about 0.08.
  Protocol plus = synthesize_protocol(qec::steane(), LogicalBasis::Plus);
  for (const Protocol* protocol : {&protocol_, &plus}) {
    const auto stats = sample_nondet(*protocol, *decoder_, 0.02, 20000, 3);
    EXPECT_GT(stats.accepted, 1000u) << qec::name(protocol->basis);
    EXPECT_LT(stats.logical_error_rate, 0.02) << qec::name(protocol->basis);
  }
}

TEST_F(NonDetTest, StatsAccountancy) {
  const auto stats = sample_nondet(protocol_, *decoder_, 0.05, 1000, 11);
  EXPECT_EQ(stats.shots, 1000u);
  EXPECT_LE(stats.accepted, stats.shots);
  EXPECT_NEAR(stats.acceptance_rate,
              static_cast<double>(stats.accepted) / 1000.0, 1e-12);
  if (stats.accepted > 0) {
    EXPECT_NEAR(stats.expected_attempts, 1.0 / stats.acceptance_rate,
                1e-9);
  }
}

TEST_F(NonDetTest, ZeroShotsIsSafe) {
  const auto stats = sample_nondet(protocol_, *decoder_, 0.05, 0, 1);
  EXPECT_EQ(stats.shots, 0u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.acceptance_rate, 0.0);
}

}  // namespace
}  // namespace ftsp::core
