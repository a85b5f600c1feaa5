#include "core/rate_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/executor.hpp"
#include "core/protocol.hpp"
#include "core/samplers.hpp"
#include "decoder/lookup_decoder.hpp"
#include "qec/code_library.hpp"

namespace ftsp::core {
namespace {

struct SteaneFixture {
  Protocol protocol;
  Executor executor;
  decoder::PerfectDecoder decoder;

  SteaneFixture()
      : protocol(synthesize_protocol(qec::library_code_by_name("Steane"),
                                     qec::LogicalBasis::Zero)),
        executor(protocol),
        decoder(*protocol.code) {}
};

SteaneFixture& steane() {
  static SteaneFixture fixture;
  return fixture;
}

/// The estimator's canonical segment order, reproduced from the public
/// protocol structure: prep, then per layer the verification circuit
/// followed by the branches in outcome-key (map) order.
std::vector<const circuit::Circuit*> canonical_segments(
    const Protocol& protocol) {
  std::vector<const circuit::Circuit*> segments{&protocol.prep};
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (!layer->has_value()) {
      continue;
    }
    segments.push_back(&(*layer)->verif);
    for (const auto& [key, branch] : (*layer)->branches) {
      (void)key;
      segments.push_back(&branch.circ);
    }
  }
  return segments;
}

struct PlannedFault {
  const circuit::Circuit* segment = nullptr;
  std::size_t gate = 0;
  std::size_t op = 0;
};

/// Scalar-executor reference run with explicitly planted faults — the
/// independent oracle for the exhaustive sectors.
bool scalar_planted_fail(const Executor& executor,
                         const decoder::PerfectDecoder& decoder,
                         const std::vector<PlannedFault>& faults) {
  const auto result = executor.run([&](const SiteRef& ref) -> int {
    for (const PlannedFault& fault : faults) {
      if (ref.segment == fault.segment && ref.gate_index == fault.gate) {
        return static_cast<int>(fault.op);
      }
    }
    return -1;
  });
  return decoder.decode(result.data_error).x_flip;
}

// --------------------------------------------- exhaustive cross-checks

TEST(RateEstimator, SingleFaultSectorMatchesDirectEnumeration) {
  auto& fixture = steane();
  RateOptions options;
  options.seed = 11;
  const double p = 0.01;
  const auto estimate = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, p, options);

  ASSERT_GE(estimate.sectors.size(), 2u);
  const SectorEstimate& k1 = estimate.sectors[1];
  ASSERT_EQ(k1.num_faults, 1u);
  ASSERT_TRUE(k1.exhaustive);

  // Independent enumeration over the scalar executor: uniform E1_1
  // conditional on one fault is (1/n) per site, uniform over its ops.
  double reference = 0.0;
  std::uint64_t sites_total = 0;
  std::uint64_t cases = 0;
  for (const circuit::Circuit* segment :
       canonical_segments(fixture.protocol)) {
    sites_total += fixture.executor.fault_sites(*segment).size();
  }
  for (const circuit::Circuit* segment :
       canonical_segments(fixture.protocol)) {
    const auto& sites = fixture.executor.fault_sites(*segment);
    for (std::size_t g = 0; g < sites.size(); ++g) {
      const double site_weight =
          1.0 / static_cast<double>(sites_total) /
          static_cast<double>(sites[g].ops.size());
      for (std::size_t op = 0; op < sites[g].ops.size(); ++op) {
        ++cases;
        if (scalar_planted_fail(fixture.executor, fixture.decoder,
                                {{segment, g, op}})) {
          reference += site_weight;
        }
      }
    }
  }
  EXPECT_EQ(k1.cases, cases);
  EXPECT_NEAR(k1.fail_rate, reference, 1e-12);
  // Fault tolerance of the synthesized protocol: no single fault may
  // cause a logical error.
  EXPECT_DOUBLE_EQ(reference, 0.0);
}

TEST(RateEstimator, TwoFaultSectorMatchesDirectEnumeration) {
  auto& fixture = steane();
  RateOptions options;
  options.seed = 11;
  const double p = 0.01;
  const auto estimate = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, p, options);

  ASSERT_GE(estimate.sectors.size(), 3u);
  const SectorEstimate& k2 = estimate.sectors[2];
  ASSERT_EQ(k2.num_faults, 2u);
  ASSERT_TRUE(k2.exhaustive);

  // Enumerate all unordered site pairs x op assignments on the scalar
  // executor. (A pair within one segment or across two segments both
  // reduce to "return the planned op at the matching (segment, gate)".)
  struct Site {
    const circuit::Circuit* segment;
    std::size_t gate;
    std::size_t ops;
  };
  std::vector<Site> sites;
  for (const circuit::Circuit* segment :
       canonical_segments(fixture.protocol)) {
    const auto& fault_sites = fixture.executor.fault_sites(*segment);
    for (std::size_t g = 0; g < fault_sites.size(); ++g) {
      sites.push_back({segment, g, fault_sites[g].ops.size()});
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
          if (scalar_planted_fail(fixture.executor, fixture.decoder,
                                  {{sites[i].segment, sites[i].gate, oi},
                                   {sites[j].segment, sites[j].gate, oj}})) {
            reference += weight;
          }
        }
      }
    }
  }
  EXPECT_EQ(k2.cases, cases);
  EXPECT_NEAR(k2.fail_rate, reference, 1e-9);
  EXPECT_GT(reference, 0.0);  // Two faults can defeat a distance-3 code.
}

// ------------------------------------------------- statistical checks

TEST(RateEstimator, AgreesWithPlainMonteCarloAtHighP) {
  auto& fixture = steane();
  const double p = 0.03;
  RateOptions options;
  options.rel_err = 0.02;
  options.seed = 3;
  const auto stratified = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, p, options);

  const auto batch = sample_protocol_batch(fixture.executor, fixture.decoder,
                                           p, 1 << 18, 17);
  const auto naive = estimate_logical_rate({batch}, p);

  const double sigma = std::sqrt(stratified.std_error * stratified.std_error +
                                 naive.std_error * naive.std_error);
  EXPECT_NEAR(stratified.p_logical, naive.mean, 5.0 * sigma);
  EXPECT_LE(stratified.ci_low, stratified.p_logical);
  EXPECT_GE(stratified.ci_high, stratified.p_logical);
  EXPECT_GT(stratified.equivalent_naive_shots,
            static_cast<double>(stratified.mc_shots));
}

TEST(RateEstimator, DeterministicAcrossThreads) {
  auto& fixture = steane();
  RateOptions base;
  base.seed = 99;
  base.rel_err = 0.05;
  const auto reference = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, 0.005, base);

  RateOptions threaded = base;
  threaded.num_threads = 4;
  const auto with_threads = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, 0.005, threaded);

  EXPECT_DOUBLE_EQ(reference.p_logical, with_threads.p_logical);
  EXPECT_DOUBLE_EQ(reference.std_error, with_threads.std_error);
  ASSERT_EQ(reference.sectors.size(), with_threads.sectors.size());
  for (std::size_t i = 0; i < reference.sectors.size(); ++i) {
    EXPECT_EQ(reference.sectors[i].fails, with_threads.sectors[i].fails);
    EXPECT_EQ(reference.sectors[i].shots, with_threads.sectors[i].shots);
  }
}

TEST(RateEstimator, SweepMatchesSingleEstimates) {
  auto& fixture = steane();
  RateOptions options;
  options.seed = 42;
  // A one-point sweep is exactly the single-p estimator.
  const auto single = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, 0.002, options);
  const auto sweep = estimate_logical_error_rate_sweep(
      fixture.executor, fixture.decoder, {0.002}, options);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_DOUBLE_EQ(single.p_logical, sweep[0].p_logical);

  // Multi-point sweeps share one sampling pass; every point must stay
  // within its own interval of an independently run estimate.
  const std::vector<double> ps{1e-4, 1e-3, 5e-3};
  const auto curve = estimate_logical_error_rate_sweep(
      fixture.executor, fixture.decoder, ps, options);
  ASSERT_EQ(curve.size(), ps.size());
  double previous = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto independent = estimate_logical_error_rate(
        fixture.executor, fixture.decoder, ps[i], options);
    const double sigma =
        5.0 * (curve[i].std_error + independent.std_error) +
        curve[i].tail_weight + independent.tail_weight + 1e-15;
    EXPECT_NEAR(curve[i].p_logical, independent.p_logical,
                5.0 * sigma + 0.1 * independent.p_logical)
        << "p=" << ps[i];
    EXPECT_GT(curve[i].p_logical, previous) << "monotone in p";
    previous = curve[i].p_logical;
  }
}

TEST(RateEstimator, LowPIsExhaustivelyDominated) {
  auto& fixture = steane();
  RateOptions options;
  options.seed = 8;
  const auto estimate = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, 1e-4, options);
  // At p = 1e-4 the k <= 2 sectors (exact) carry essentially all the
  // mass: the stratified std error must be a tiny fraction of p_L.
  EXPECT_GT(estimate.p_logical, 0.0);
  EXPECT_LT(estimate.std_error, 0.01 * estimate.p_logical);
  EXPECT_GT(estimate.equivalent_naive_shots, 1e8);
  EXPECT_LT(estimate.tail_weight, 1e-10);
}

TEST(RateEstimator, BiasedNoiseSingleTarget) {
  auto& fixture = steane();
  RateOptions options;
  options.seed = 21;
  const auto params = sim::NoiseParams::biased(0.001, 0.02, 0.01, 0.002);
  const auto estimate = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, params, options);
  EXPECT_GT(estimate.p_logical, 0.0);
  EXPECT_LE(estimate.ci_low, estimate.p_logical);
  EXPECT_GE(estimate.ci_high, estimate.p_logical);

  // Statistical agreement with importance-sampled plain Monte Carlo.
  const auto batch = sample_protocol_batch(fixture.executor, fixture.decoder,
                                           params, 1 << 18, 4);
  const auto naive = estimate_logical_rate({batch}, params);
  const double sigma = std::sqrt(estimate.std_error * estimate.std_error +
                                 naive.std_error * naive.std_error);
  EXPECT_NEAR(estimate.p_logical, naive.mean, 6.0 * sigma);
}

TEST(RateEstimator, ExhaustedBudgetFoldsUnsampledSectorsIntoTail) {
  // At p = 0.05 dozens of sectors carry real mass; a budget that dries
  // up after one sector's initial allocation must NOT silently treat
  // the unsampled sectors as failure-free — their weight belongs to the
  // reported tail (and hence the upper confidence limit).
  auto& fixture = steane();
  RateOptions options;
  options.seed = 2;
  options.min_sector_shots = 2048;
  options.max_shots = 2048;  // Exhausted after the first sampled sector.
  const auto estimate = estimate_logical_error_rate(
      fixture.executor, fixture.decoder, 0.05, options);

  std::size_t unsampled = 0;
  double unsampled_weight = 0.0;
  for (const auto& sector : estimate.sectors) {
    if (!sector.exhaustive && sector.shots == 0) {
      ++unsampled;
      unsampled_weight += sector.weight;
      EXPECT_DOUBLE_EQ(sector.ci_low, 0.0);
      EXPECT_DOUBLE_EQ(sector.ci_high, 1.0);
    }
  }
  ASSERT_GT(unsampled, 0u);
  EXPECT_GE(estimate.tail_weight, unsampled_weight);
  EXPECT_GE(estimate.ci_high, estimate.p_logical + unsampled_weight * 0.99);
  EXPECT_EQ(estimate.mc_shots, 2048u);

  // With budget to spare, the allocator keeps going until the combined
  // error — sampling std error PLUS the still-unassessed mass — meets
  // the target, then stops instead of burning the rest of the budget.
  RateOptions roomy = options;
  roomy.max_shots = 1 << 20;
  roomy.min_sector_shots = 0;  // Everything flows through the allocator.
  const auto full = estimate_logical_error_rate(fixture.executor,
                                                fixture.decoder, 0.05, roomy);
  EXPECT_LT(full.mc_shots, roomy.max_shots);  // Converged, not exhausted.
  EXPECT_LE(full.std_error + full.tail_weight,
            roomy.rel_err * full.p_logical);
  // Negligible-weight deep sectors may legitimately stay unsampled —
  // but only because their mass is inside the reported tail bound.
  for (const auto& sector : full.sectors) {
    if (!sector.exhaustive && sector.shots == 0) {
      EXPECT_LE(sector.weight, full.tail_weight);
    }
  }
}

TEST(RateEstimator, ValidatesArguments) {
  auto& fixture = steane();
  EXPECT_THROW(estimate_logical_error_rate(fixture.executor, fixture.decoder,
                                           0.0),
               std::invalid_argument);
  EXPECT_THROW(estimate_logical_error_rate(fixture.executor, fixture.decoder,
                                           1.0),
               std::invalid_argument);
  EXPECT_THROW(estimate_logical_error_rate_sweep(fixture.executor,
                                                 fixture.decoder, {}),
               std::invalid_argument);
  RateOptions bad;
  bad.rel_err = 0.0;
  EXPECT_THROW(estimate_logical_error_rate(fixture.executor, fixture.decoder,
                                           0.01, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftsp::core
