#include "core/samplers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/protocol.hpp"
#include "core/rate_estimator.hpp"
#include "qec/code_library.hpp"
#include "util/hash.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;

class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    protocol_ = synthesize_protocol(qec::steane(), LogicalBasis::Zero);
    executor_ = std::make_unique<Executor>(protocol_);
    decoder_ =
        std::make_unique<decoder::PerfectDecoder>(*protocol_.code);
  }
  Protocol protocol_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<decoder::PerfectDecoder> decoder_;
};

TEST_F(SamplerTest, BatchHasRequestedShots) {
  const auto batch =
      sample_protocol_batch(*executor_, *decoder_, 0.1, 500, 42);
  EXPECT_EQ(batch.trajectories.size(), 500u);
  EXPECT_DOUBLE_EQ(batch.q.rates[0], 0.1);
}

TEST_F(SamplerTest, InvalidQRejected) {
  EXPECT_THROW(sample_protocol_batch(*executor_, *decoder_, 0.0, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(sample_protocol_batch(*executor_, *decoder_, 1.0, 10, 1),
               std::invalid_argument);
}

TEST_F(SamplerTest, FaultCountsBounded) {
  const auto batch =
      sample_protocol_batch(*executor_, *decoder_, 0.3, 200, 7);
  for (const auto& t : batch.trajectories) {
    std::uint32_t sites = 0;
    for (std::size_t k = 0; k < sim::kNumLocationKinds; ++k) {
      EXPECT_LE(t.faults[k], t.sites[k]);
      sites += t.sites[k];
    }
    EXPECT_GT(sites, 0u);
  }
}

TEST_F(SamplerTest, PlainMonteCarloMatchesManualAverage) {
  // With a single batch at q == p, weights are exactly 1 and the MIS
  // estimate equals the raw failure fraction.
  const auto batch =
      sample_protocol_batch(*executor_, *decoder_, 0.08, 3000, 9);
  std::size_t failures = 0;
  for (const auto& t : batch.trajectories) {
    failures += t.x_fail ? 1 : 0;
  }
  const auto estimate = estimate_logical_rate({batch}, 0.08, true);
  EXPECT_NEAR(estimate.mean,
              static_cast<double>(failures) / 3000.0, 1e-12);
}

TEST_F(SamplerTest, EstimateDecreasesWithP) {
  const std::vector<TrajectoryBatch> batches = {
      sample_protocol_batch(*executor_, *decoder_, 0.1, 6000, 21),
      sample_protocol_batch(*executor_, *decoder_, 0.02, 6000, 22)};
  const auto high = estimate_logical_rate(batches, 0.08);
  const auto mid = estimate_logical_rate(batches, 0.02);
  const auto low = estimate_logical_rate(batches, 0.005);
  EXPECT_GT(high.mean, mid.mean);
  EXPECT_GT(mid.mean, low.mean);
  EXPECT_GT(low.mean, 0.0);
}

TEST_F(SamplerTest, ScalingIsQuadraticIsh) {
  // Deterministic FT protocol: p_L = O(p^2), so p_L(p) / p^2 should be
  // roughly constant over a decade.
  const std::vector<TrajectoryBatch> batches = {
      sample_protocol_batch(*executor_, *decoder_, 0.05, 20000, 31),
      sample_protocol_batch(*executor_, *decoder_, 0.01, 20000, 32)};
  const double r1 = estimate_logical_rate(batches, 0.03).mean / (0.03 * 0.03);
  const double r2 =
      estimate_logical_rate(batches, 0.006).mean / (0.006 * 0.006);
  EXPECT_GT(r2, 0.0);
  const double ratio = r1 / r2;
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 5.0);
}

TEST_F(SamplerTest, MisAgreesWithPlainMcWithinError) {
  const auto mc = sample_protocol_batch(*executor_, *decoder_, 0.05, 20000,
                                        51);
  const auto is = sample_protocol_batch(*executor_, *decoder_, 0.15, 20000,
                                        52);
  const auto direct = estimate_logical_rate({mc}, 0.05);
  const auto reweighted = estimate_logical_rate({is}, 0.05);
  const double sigma = 4.0 * std::sqrt(direct.std_error * direct.std_error +
                                       reweighted.std_error *
                                           reweighted.std_error);
  EXPECT_NEAR(direct.mean, reweighted.mean, sigma + 1e-9);
}

TEST_F(SamplerTest, StdErrorShrinksWithShots) {
  const auto small =
      sample_protocol_batch(*executor_, *decoder_, 0.1, 500, 61);
  const auto large =
      sample_protocol_batch(*executor_, *decoder_, 0.1, 20000, 62);
  const auto e_small = estimate_logical_rate({small}, 0.1);
  const auto e_large = estimate_logical_rate({large}, 0.1);
  EXPECT_LT(e_large.std_error, e_small.std_error);
}

TEST_F(SamplerTest, EmptyBatchesGiveZero) {
  const auto estimate = estimate_logical_rate({}, 0.01);
  EXPECT_EQ(estimate.mean, 0.0);
  EXPECT_EQ(estimate.std_error, 0.0);
}

namespace {

bool same_trajectory(const Trajectory& a, const Trajectory& b) {
  return a.sites == b.sites && a.faults == b.faults &&
         a.x_fail == b.x_fail && a.z_fail == b.z_fail &&
         a.hook_terminated == b.hook_terminated;
}

}  // namespace

TEST_F(SamplerTest, BatchedDeterministicAcrossThreadCounts) {
  // Shards are seeded by (seed, shard index) alone, so the batch must be
  // bit-identical no matter how many workers ran it. 256 fills whole
  // words; 300 leaves a partial word at the end of every shard.
  for (const std::size_t shard_shots : {256ul, 300ul}) {
    SamplerOptions one_thread;
    one_thread.num_threads = 1;
    one_thread.shard_shots = shard_shots;
    SamplerOptions four_threads = one_thread;
    four_threads.num_threads = 4;

    const auto a = sample_protocol_batch(*executor_, *decoder_, 0.1, 1000,
                                         77, one_thread);
    const auto b = sample_protocol_batch(*executor_, *decoder_, 0.1, 1000,
                                         77, four_threads);
    ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
    for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
      ASSERT_TRUE(same_trajectory(a.trajectories[i], b.trajectories[i]))
          << "shard_shots " << shard_shots << " shot " << i;
    }
    // And rerunning with the same seed reproduces the same counts.
    const auto c = sample_protocol_batch(*executor_, *decoder_, 0.1, 1000,
                                         77, four_threads);
    for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
      ASSERT_TRUE(same_trajectory(a.trajectories[i], c.trajectories[i]))
          << "shard_shots " << shard_shots << " shot " << i;
    }
  }
}

TEST_F(SamplerTest, BatchBitsArePinned) {
  // Golden digests of the sampled bits. They were captured when the
  // default batch word was 256 bits wide, so they also pin that the u64
  // engine draws exactly the faults the wide engine drew.
  const auto batch_digest = [&](double q, std::size_t shots,
                                std::size_t shard_shots) {
    SamplerOptions options;
    options.num_threads = 1;
    options.shard_shots = shard_shots;
    const auto batch =
        sample_protocol_batch(*executor_, *decoder_, q, shots, 5, options);
    util::Fnv1a64 hash;
    for (const Trajectory& t : batch.trajectories) {
      for (std::size_t k = 0; k < sim::kNumLocationKinds; ++k) {
        hash.word(t.sites[k]).word(t.faults[k]);
      }
      hash.word(std::uint64_t{t.x_fail} | std::uint64_t{t.z_fail} << 1 |
                std::uint64_t{t.hook_terminated} << 2);
    }
    return hash.value();
  };
  // Partial words and several shards.
  EXPECT_EQ(batch_digest(0.07, 1000, 300), 0x8bf55646ff19b32aULL);
  // Few lanes take each correction branch, so branch masks have empty
  // words between set ones, which must draw no fault mask.
  EXPECT_EQ(batch_digest(0.001, 8192, 8192), 0x60ee3e78b5e3cbbfULL);

  RateOptions rate_options;
  rate_options.seed = 99;
  const RateEstimate estimate = estimate_logical_error_rate(
      *executor_, *decoder_, 0.005, rate_options);
  util::Fnv1a64 rate_hash;
  for (const SectorEstimate& sector : estimate.sectors) {
    rate_hash.word(sector.fails).word(sector.shots);
  }
  EXPECT_EQ(rate_hash.value(), 0xde9d5c66a8f1991fULL);
}

TEST_F(SamplerTest, HugeShardShotsRunOneShard) {
  // A shard size near SIZE_MAX once wrapped the shard-count ceiling to 0
  // and returned all-default trajectories. It must behave like a single
  // shard covering every shot.
  SamplerOptions one_shard;
  one_shard.shard_shots = 1000;
  SamplerOptions huge = one_shard;
  huge.shard_shots = std::numeric_limits<std::size_t>::max();
  const auto a =
      sample_protocol_batch(*executor_, *decoder_, 0.3, 1000, 7, one_shard);
  const auto b =
      sample_protocol_batch(*executor_, *decoder_, 0.3, 1000, 7, huge);
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    ASSERT_TRUE(same_trajectory(a.trajectories[i], b.trajectories[i]))
        << "shot " << i;
  }
}

TEST_F(SamplerTest, BatchedMatchesScalarOracleStatistics) {
  // The batched engine and the scalar reference sample the same
  // distribution; their logical-rate estimates must agree within error,
  // and their per-kind site profiles must be drawn from the same
  // protocol segments.
  const double q = 0.08;
  const std::size_t shots = 6000;
  const auto scalar =
      sample_protocol_batch_scalar(*executor_, *decoder_, q, shots, 123);
  const auto batched =
      sample_protocol_batch(*executor_, *decoder_, q, shots, 456);

  const auto scalar_est = estimate_logical_rate({scalar}, q);
  const auto batched_est = estimate_logical_rate({batched}, q);
  const double sigma =
      5.0 * std::sqrt(scalar_est.std_error * scalar_est.std_error +
                      batched_est.std_error * batched_est.std_error);
  EXPECT_NEAR(scalar_est.mean, batched_est.mean, sigma + 1e-9);

  // Mean fault fraction per kind must match the shared rate q.
  for (std::size_t k = 0; k < sim::kNumLocationKinds; ++k) {
    double scalar_sites = 0.0, scalar_faults = 0.0;
    double batched_sites = 0.0, batched_faults = 0.0;
    for (const auto& t : scalar.trajectories) {
      scalar_sites += t.sites[k];
      scalar_faults += t.faults[k];
    }
    for (const auto& t : batched.trajectories) {
      batched_sites += t.sites[k];
      batched_faults += t.faults[k];
    }
    if (scalar_sites == 0.0) {
      // Kind absent from this protocol: both engines must agree.
      EXPECT_EQ(batched_sites, 0.0) << "kind " << k;
      continue;
    }
    ASSERT_GT(batched_sites, 0.0);
    const double n = std::min(scalar_sites, batched_sites);
    const double tolerance = 6.0 * std::sqrt(q * (1 - q) / n) + 1e-12;
    EXPECT_NEAR(scalar_faults / scalar_sites, q, tolerance) << "kind " << k;
    EXPECT_NEAR(batched_faults / batched_sites, q, tolerance) << "kind " << k;
  }
}

TEST_F(SamplerTest, BatchedHandlesOddShotCountsAndShardSizes) {
  SamplerOptions options;
  options.num_threads = 2;
  options.shard_shots = 100;  // Not a multiple of 64: partial tail words.
  const auto batch = sample_protocol_batch(*executor_, *decoder_, 0.2, 333,
                                           9, options);
  ASSERT_EQ(batch.trajectories.size(), 333u);
  for (const auto& t : batch.trajectories) {
    std::uint64_t sites = 0;
    for (std::size_t k = 0; k < sim::kNumLocationKinds; ++k) {
      EXPECT_LE(t.faults[k], t.sites[k]);
      sites += t.sites[k];
    }
    EXPECT_GT(sites, 0u);
  }
}

TEST_F(SamplerTest, ZeroShardShotsRejected) {
  SamplerOptions options;
  options.shard_shots = 0;
  EXPECT_THROW(
      sample_protocol_batch(*executor_, *decoder_, 0.1, 10, 1, options),
      std::invalid_argument);
}

TEST(TrajectoryCounters, HoldCountsBeyondUint16) {
  // Regression for the uint16_t counters that silently wrapped at 65535:
  // large codes exceed 65k fault locations per sweep.
  static_assert(
      std::is_same_v<decltype(Trajectory{}.sites),
                     std::array<std::uint32_t, sim::kNumLocationKinds>>,
      "Trajectory site counters must be at least 32-bit");
  Trajectory t;
  for (int i = 0; i < 70000; ++i) {
    ++t.sites[0];
    ++t.faults[0];
  }
  EXPECT_EQ(t.sites[0], 70000u);
  EXPECT_EQ(t.total_faults(), 70000u);

  // The importance-sampling density must see the un-wrapped counts.
  t.faults[0] = 0;
  TrajectoryBatch batch;
  batch.q = sim::NoiseParams::e1_1(0.01);
  Trajectory failing = t;
  failing.x_fail = true;
  batch.trajectories = {failing};
  const auto estimate = estimate_logical_rate({batch}, 0.01);
  EXPECT_GT(estimate.mean, 0.0);
}

}  // namespace
}  // namespace ftsp::core
