// The shard runner's word-parallel decode against the scalar executor
// and the lookup decoder, lane by lane. Every lane plants 3-6 faults, so
// most syndromes are nonzero and the sparse decode's correction lookups
// run; the shot count leaves the last word partial.
#include "core/frame_runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/executor.hpp"
#include "core/protocol.hpp"
#include "decoder/lookup_decoder.hpp"
#include "qec/code_library.hpp"

namespace ftsp::core::detail {
namespace {

class WordDecode : public ::testing::TestWithParam<
                       std::tuple<std::string, qec::LogicalBasis>> {};

TEST_P(WordDecode, MatchesScalarDecodeLaneByLane) {
  const auto& [name, basis] = GetParam();
  const Protocol protocol =
      synthesize_protocol(qec::library_code_by_name(name), basis);
  const Executor executor(protocol);
  const decoder::PerfectDecoder decoder(*protocol.code);
  const DecodeTables tables(decoder);

  // The executor's global site numbering.
  std::vector<std::uint32_t> num_ops;
  for (const Executor::Segment& segment : executor.segments()) {
    for (const circuit::Gate& gate : segment.circuit->gates()) {
      num_ops.push_back(static_cast<std::uint32_t>(
          sim::num_fault_ops(sim::location_kind(gate.kind))));
    }
  }
  const auto num_sites = static_cast<std::uint32_t>(num_ops.size());

  constexpr std::uint32_t kLanes = 1093;  // 17 words and 5 lanes.
  std::mt19937_64 rng(2024);
  std::vector<PlanEntry> plan;
  // Per lane: global site -> fault op.
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> faults(
      kLanes);
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    const std::size_t wanted = 3 + rng() % 4;
    while (faults[lane].size() < wanted) {
      const auto site = static_cast<std::uint32_t>(rng() % num_sites);
      const auto op = static_cast<std::uint32_t>(rng() % num_ops[site]);
      if (faults[lane].emplace(site, op).second) {
        plan.push_back({site, lane, op});
      }
    }
  }
  const SitePlan sites(plan, num_sites);

  PlantedInjector injector{sites};
  ShardRunner<PlantedInjector> runner(executor, tables, kLanes, nullptr,
                                      injector);
  runner.run();
  // The same plan again through the per-shot record path.
  std::vector<Trajectory> records(kLanes);
  PlantedInjector recording{sites};
  ShardRunner<PlantedInjector> recorder(executor, tables, kLanes,
                                        records.data(), recording);
  recorder.run();

  std::size_t nonzero_syndromes = 0;
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    const auto result = executor.run([&](const SiteRef& ref) -> int {
      const auto it = faults[lane].find(
          executor.segment(*ref.segment).site_base +
          static_cast<std::uint32_t>(ref.gate_index));
      return it == faults[lane].end() ? -1 : static_cast<int>(it->second);
    });
    const auto outcome = decoder.decode(result.data_error);
    const qec::CssCode& code = *protocol.code;
    nonzero_syndromes +=
        code.syndrome(qec::PauliType::X, result.data_error.x).any() ||
        code.syndrome(qec::PauliType::Z, result.data_error.z).any();

    const bool x_fail = sim::get_lane(runner.x_fails().data(), lane);
    const bool z_fail = sim::get_lane(runner.z_fails().data(), lane);
    const bool hooked = sim::get_lane(runner.hooked().data(), lane);
    ASSERT_EQ(x_fail, outcome.x_flip) << name << " lane " << lane;
    ASSERT_EQ(z_fail, outcome.z_flip) << name << " lane " << lane;
    ASSERT_EQ(hooked, result.hook_terminated) << name << " lane " << lane;
    ASSERT_EQ(records[lane].x_fail, x_fail) << name << " lane " << lane;
    ASSERT_EQ(records[lane].z_fail, z_fail) << name << " lane " << lane;
    ASSERT_EQ(records[lane].hook_terminated, hooked)
        << name << " lane " << lane;
    ASSERT_EQ(sim::get_lane(runner.fails(basis).data(), lane),
              outcome.fails(basis));
  }
  EXPECT_GT(nonzero_syndromes, kLanes / 2) << name;
  // Lanes past the shot count stay clear.
  for (const auto* mask :
       {&runner.x_fails(), &runner.z_fails(), &runner.hooked()}) {
    ASSERT_EQ(mask->size(), (kLanes + 63) / 64);
    EXPECT_EQ(mask->back() >> (kLanes % 64), 0u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codes, WordDecode,
    ::testing::Combine(::testing::Values("Steane", "Carbon", "Tesseract"),
                       ::testing::Values(qec::LogicalBasis::Zero,
                                         qec::LogicalBasis::Plus)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == qec::LogicalBasis::Zero ? "_zero"
                                                                 : "_plus");
    });

TEST(DecodeTables, RejectAZeroSyndromeCorrectionThatFlipsALogical) {
  // A table whose zero-syndrome entry is an X logical passes the
  // decoder's syndrome check but breaks the sparse decode's premise.
  const qec::CssCode code = qec::library_code_by_name("Steane");
  const decoder::PerfectDecoder reference(code);
  std::vector<f2::BitVec> x_table = reference.x_decoder().table();
  x_table[0] = code.logicals(qec::PauliType::X).row(0);
  const decoder::PerfectDecoder broken(code, x_table,
                                       reference.z_decoder().table());
  EXPECT_THROW((DecodeTables(broken)), std::logic_error);
  EXPECT_NO_THROW((DecodeTables(reference)));
}

}  // namespace
}  // namespace ftsp::core::detail
