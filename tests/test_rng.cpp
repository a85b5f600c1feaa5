// Cross-checks util::Mt64, the one engine the library draws from,
// against the standard library's std::mt19937_64: raw outputs across
// several refills, re-seeding, and the distributions and shuffle the
// library drives with it.
#include "util/mt64.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "core/frame_runner.hpp"

namespace ftsp::util {
namespace {

// Three refills of the 312-word state and then some.
constexpr std::size_t kDraws = 3 * Mt64::kStateSize + 100;

std::vector<std::uint64_t> seeds() {
  std::vector<std::uint64_t> out = {0, 1, 5489, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    out.push_back(core::detail::shard_seed(7, i));
  }
  return out;
}

TEST(Mt64, DrawsEqualTheStandardEngine) {
  for (const std::uint64_t seed : seeds()) {
    std::mt19937_64 reference(seed);
    Mt64 engine(seed);
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt64, TenThousandthDrawOfTheDefaultSeed) {
  // The value the C++ standard requires of a default-constructed
  // std::mt19937_64 (seed 5489) on its 10000th invocation.
  Mt64 engine(5489);
  for (int i = 1; i < 10000; ++i) {
    engine();
  }
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt64, ReseedingRestartsTheStream) {
  for (const std::uint64_t seed : seeds()) {
    Mt64 engine(seed ^ 0x5555);
    for (std::size_t i = 0; i < Mt64::kStateSize + 3; ++i) {
      engine();
    }
    engine.seed(seed);
    Mt64 fresh(seed);
    std::mt19937_64 reference(seed);
    for (std::size_t i = 0; i < kDraws; ++i) {
      const std::uint64_t expected = reference();
      ASSERT_EQ(engine(), expected) << "seed " << seed << " draw " << i;
      ASSERT_EQ(fresh(), expected) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt64, IsAUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Mt64>);
  EXPECT_EQ(Mt64::min(), std::mt19937_64::min());
  EXPECT_EQ(Mt64::max(), std::mt19937_64::max());
}

TEST(Mt64, DistributionsConsumeItLikeTheStandardEngine) {
  for (const std::uint64_t seed : seeds()) {
    std::mt19937_64 reference(seed);
    Mt64 engine(seed);
    std::uniform_real_distribution<double> unit_ref(0.0, 1.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> bit_ref(0, 1);
    std::uniform_int_distribution<int> bit(0, 1);
    std::uniform_int_distribution<std::size_t> pick_ref(0, 1000);
    std::uniform_int_distribution<std::size_t> pick(0, 1000);
    // Interleaved, so a distribution that drew a different number of
    // words would shift every later value.
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(unit(engine), unit_ref(reference)) << "seed " << seed;
      ASSERT_EQ(bit(engine), bit_ref(reference)) << "seed " << seed;
      ASSERT_EQ(pick(engine), pick_ref(reference)) << "seed " << seed;
    }
    EXPECT_EQ(engine(), reference());
  }
}

TEST(Mt64, ShuffleOrdersLikeTheStandardEngine) {
  for (const std::uint64_t seed : seeds()) {
    std::mt19937_64 reference(seed);
    Mt64 engine(seed);
    for (const std::size_t size : {2, 7, 64, 1000}) {
      std::vector<std::size_t> a(size);
      std::iota(a.begin(), a.end(), std::size_t{0});
      std::vector<std::size_t> b = a;
      std::shuffle(a.begin(), a.end(), reference);
      std::shuffle(b.begin(), b.end(), engine);
      ASSERT_EQ(b, a) << "seed " << seed << " size " << size;
    }
    EXPECT_EQ(engine(), reference());
  }
}

}  // namespace
}  // namespace ftsp::util
