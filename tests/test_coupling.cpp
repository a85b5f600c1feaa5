// qec::CouplingMap: built-in topologies, the text parser, structural
// fingerprints, connectivity queries and the reach closure — the
// foundations of connectivity-aware synthesis.
#include "qec/coupling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "qec/code_io.hpp"
#include "util/mt64.hpp"

namespace ftsp::qec {
namespace {

using f2::BitVec;

TEST(CouplingMap, BuiltinShapes) {
  const auto linear = CouplingMap::linear(7);
  EXPECT_EQ(linear.num_sites(), 7u);
  EXPECT_EQ(linear.num_edges(), 6u);
  EXPECT_TRUE(linear.allows(2, 3));
  EXPECT_TRUE(linear.allows(3, 2));
  EXPECT_FALSE(linear.allows(0, 2));
  EXPECT_FALSE(linear.allows(3, 3));
  EXPECT_FALSE(linear.is_all_to_all());

  const auto ring = CouplingMap::ring(7);
  EXPECT_EQ(ring.num_edges(), 7u);
  EXPECT_TRUE(ring.allows(6, 0));

  const auto grid = CouplingMap::grid(3, 3);
  EXPECT_EQ(grid.num_sites(), 9u);
  EXPECT_EQ(grid.num_edges(), 12u);
  EXPECT_TRUE(grid.allows(0, 1));
  EXPECT_TRUE(grid.allows(1, 4));
  EXPECT_FALSE(grid.allows(0, 4));  // Diagonal.

  const auto all = CouplingMap::all_to_all(5);
  EXPECT_TRUE(all.is_all_to_all());
  EXPECT_EQ(all.num_edges(), 10u);

  // grid(n) picks the most-square factorization; primes degrade to a
  // chain, so grid(7) is structurally linear(7).
  EXPECT_EQ(CouplingMap::grid(9).fingerprint(),
            CouplingMap::grid(3, 3).fingerprint());
  EXPECT_EQ(CouplingMap::grid(7).fingerprint(),
            CouplingMap::linear(7).fingerprint());

  // heavy-hex: connected, with degree-1 pendants after the first cell.
  const auto hex = CouplingMap::heavy_hex(12);
  BitVec everything(12);
  for (std::size_t q = 0; q < 12; ++q) {
    everything.set(q);
  }
  EXPECT_TRUE(hex.is_connected_subset(everything));
  std::size_t pendants = 0;
  for (std::size_t q = 0; q < 12; ++q) {
    if (hex.neighbors(q).popcount() == 1) {
      ++pendants;
    }
  }
  EXPECT_GE(pendants, 2u);
}

TEST(CouplingMap, BuiltinNamesResolve) {
  for (const auto& name : CouplingMap::builtin_names()) {
    EXPECT_TRUE(CouplingMap::is_builtin_name(name));
    const auto map = CouplingMap::builtin(name, 9);
    EXPECT_EQ(map.num_sites(), 9u);
    EXPECT_EQ(map.name(), name);
  }
  EXPECT_FALSE(CouplingMap::is_builtin_name("torus"));
  EXPECT_THROW(CouplingMap::builtin("torus", 9), std::invalid_argument);
}

TEST(CouplingMap, FromEdgesValidates) {
  const auto map =
      CouplingMap::from_edges("dev", 4, {{0, 1}, {1, 0}, {2, 3}, {2, 3}});
  EXPECT_EQ(map.num_edges(), 2u);  // Duplicates and orientations collapse.
  EXPECT_THROW(CouplingMap::from_edges("bad", 3, {{0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(CouplingMap::from_edges("bad", 3, {{0, 3}}),
               std::invalid_argument);
  EXPECT_THROW(CouplingMap::from_edges("empty", 0, {}),
               std::invalid_argument);
}

TEST(CouplingMap, TextFormatRoundTrips) {
  const auto grid = CouplingMap::grid(3, 3);
  const std::string text = write_coupling_map(grid);
  const auto parsed = parse_coupling_map(text);
  EXPECT_EQ(parsed.name(), "grid");
  EXPECT_EQ(parsed.num_sites(), grid.num_sites());
  EXPECT_EQ(parsed.fingerprint(), grid.fingerprint());

  const auto custom = parse_coupling_map(
      "# a comment\n"
      "coupling: my-device\n"
      "sites: 4\n"
      "edges:\n"
      "0 1\n"
      "  1 2   \n"
      "\n"
      "2 3\n");
  EXPECT_EQ(custom.name(), "my-device");
  EXPECT_EQ(custom.fingerprint(), CouplingMap::linear(4).fingerprint());

  EXPECT_THROW(parse_coupling_map("edges:\n0 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_coupling_map("sites: 3\n0 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_coupling_map("sites: 3\nedges:\n0 1 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_coupling_map("sites: 3\nedges:\nx y\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_coupling_map("sites: 3\nedges:\n0 5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_coupling_map("sites: 0\nedges:\n"),
               std::invalid_argument);
  // Strict sites parsing: negatives must not wrap through unsigned
  // extraction, junk must not be ignored, absurd counts must not turn
  // into multi-gigabyte adjacency allocations.
  EXPECT_THROW(parse_coupling_map("sites: -1\nedges:\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_coupling_map("sites: 7 junk\nedges:\n0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_coupling_map("sites: 99999999\nedges:\n0 1\n"),
               std::invalid_argument);
}

TEST(CouplingMap, FingerprintIsStructural) {
  // Name does not participate; structure does.
  const auto a = CouplingMap::from_edges("foo", 3, {{0, 1}, {1, 2}});
  const auto b = CouplingMap::from_edges("bar", 3, {{1, 2}, {0, 1}});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(CouplingMap::linear(7).fingerprint(),
            CouplingMap::ring(7).fingerprint());
  EXPECT_NE(CouplingMap::linear(7).fingerprint(),
            CouplingMap::linear(8).fingerprint());
}

/// Brute-force reference connectivity via DFS over an explicit adjacency
/// list.
bool reference_connected(const CouplingMap& map, const BitVec& support) {
  const auto members = support.ones();
  if (members.size() <= 1) {
    return true;
  }
  std::set<std::size_t> in(members.begin(), members.end());
  std::set<std::size_t> seen;
  std::vector<std::size_t> stack = {members[0]};
  while (!stack.empty()) {
    const std::size_t q = stack.back();
    stack.pop_back();
    if (!seen.insert(q).second) {
      continue;
    }
    for (std::size_t other : members) {
      if (map.allows(q, other)) {
        stack.push_back(other);
      }
    }
  }
  return seen.size() == members.size();
}

TEST(CouplingMap, ConnectedSubsetMatchesBruteForce) {
  util::Mt64 rng(1234);
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng() % 9;
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (rng() % 3 == 0) {
          edges.emplace_back(a, b);
        }
      }
    }
    const auto map = CouplingMap::from_edges("rand", n, edges);
    BitVec support(n);
    for (std::size_t q = 0; q < n; ++q) {
      support.set(q, rng() % 2 == 0);
    }
    EXPECT_EQ(map.is_connected_subset(support),
              reference_connected(map, support))
        << "n=" << n << " support=" << support.to_string();
  }
}

TEST(CouplingMap, WalkOrderIsAHamiltonianPath) {
  const auto grid = CouplingMap::grid(3, 3);
  BitVec support(9, {0, 1, 4, 5, 8});  // Staircase: 0-1-4-5-8.
  ASSERT_TRUE(grid.has_walk(support));
  const auto order = grid.walk_order(support);
  ASSERT_EQ(order.size(), support.popcount());
  // Consecutive sites are coupled — a genuine ancilla walk, strictly
  // stronger than mere connectivity.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_TRUE(grid.allows(order[i - 1], order[i]))
        << order[i - 1] << " -> " << order[i];
  }
  // Deterministic: the same support always yields the same walk.
  EXPECT_EQ(order, grid.walk_order(support));

  // Disconnected support: no walk exists.
  BitVec disconnected(9, {0, 8});
  EXPECT_THROW(grid.walk_order(disconnected), std::invalid_argument);
  EXPECT_FALSE(grid.is_connected_subset(disconnected));
  EXPECT_FALSE(grid.has_walk(disconnected));

  // Connected but walkless: a star's center cannot be revisited. The
  // 4-star {1,3,4,5} on the grid (center 4) plus site 7 keeps exactly
  // one revisit-free escape, but the full star {1,3,5,7}+center has
  // none once three leaves remain.
  const auto star = CouplingMap::from_edges(
      "star", 4, {{0, 1}, {0, 2}, {0, 3}});
  BitVec all4(4, {0, 1, 2, 3});
  EXPECT_TRUE(star.is_connected_subset(all4));
  EXPECT_FALSE(star.has_walk(all4));
  EXPECT_THROW(star.walk_order(all4), std::invalid_argument);

  // Randomized walks are still valid walks.
  util::Mt64 rng(7);
  for (int t = 0; t < 20; ++t) {
    const auto starts = support.ones();
    const auto walk =
        grid.walk_order_from(support, starts[rng() % starts.size()], &rng);
    if (walk.empty()) {
      continue;  // No walk from that start.
    }
    ASSERT_EQ(walk.size(), support.popcount());
    for (std::size_t i = 1; i < walk.size(); ++i) {
      EXPECT_TRUE(grid.allows(walk[i - 1], walk[i]));
    }
  }
}

TEST(CouplingMap, ClosureSemantics) {
  const auto linear = CouplingMap::linear(5);
  // Reach 1 is the map itself.
  EXPECT_EQ(linear.closure(1).fingerprint(), linear.fingerprint());
  // Reach 2 adds the distance-2 pairs of a chain.
  const auto two = linear.closure(2);
  EXPECT_TRUE(two.allows(0, 2));
  EXPECT_FALSE(two.allows(0, 3));
  // Reach 0 of a connected map is all-to-all.
  EXPECT_TRUE(linear.closure(0).is_all_to_all());
  // Reach 0 of a disconnected map completes per component only.
  const auto split =
      CouplingMap::from_edges("split", 4, {{0, 1}, {2, 3}});
  const auto comp = split.closure(0);
  EXPECT_TRUE(comp.allows(0, 1));
  EXPECT_FALSE(comp.allows(1, 2));
  EXPECT_FALSE(comp.is_all_to_all());
}

TEST(CouplingSpec, ResolveAndKeyFragments) {
  CouplingSpec all;
  EXPECT_TRUE(all.is_all_to_all());
  EXPECT_EQ(all.resolve(7), nullptr);
  EXPECT_EQ(all.key_fragment(7), "");

  CouplingSpec linear;
  linear.name = "linear";
  const auto map = linear.resolve(7);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->name(), "linear");
  EXPECT_EQ(linear.key_fragment(7), "|coup=" + map->fingerprint());
  // Gadget reach participates in the key: a strict-walk artifact must
  // never alias the unbounded-transport one.
  CouplingSpec strict = linear;
  strict.gadget_reach = 1;
  EXPECT_EQ(strict.key_fragment(7),
            "|coup=" + map->fingerprint() + "+g1");
  // Gadget graph: connected map at reach 0 is unconstraining; reach 1
  // is the raw map again.
  EXPECT_EQ(linear.resolve_gadget(7), nullptr);
  const auto gadget = strict.resolve_gadget(7);
  ASSERT_NE(gadget, nullptr);
  EXPECT_EQ(gadget->fingerprint(), map->fingerprint());

  // A custom all-to-all map is structurally unconstrained: same
  // resolution, same (empty) key fragment.
  CouplingSpec custom_all;
  custom_all.name = "full";
  custom_all.custom =
      std::make_shared<const CouplingMap>(CouplingMap::all_to_all(7));
  EXPECT_TRUE(custom_all.is_all_to_all());
  EXPECT_EQ(custom_all.resolve(7), nullptr);
  EXPECT_EQ(custom_all.key_fragment(7), "");

  // Size mismatches fail loud.
  CouplingSpec wrong;
  wrong.custom =
      std::make_shared<const CouplingMap>(CouplingMap::linear(5));
  EXPECT_THROW(wrong.resolve(7), std::invalid_argument);
}

}  // namespace
}  // namespace ftsp::qec
