#include "f2/span.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>
#include <vector>

#include "f2/gauss.hpp"

namespace ftsp::f2 {
namespace {

TEST(RowSpan, EnumeratesAllElements) {
  const auto m = BitMatrix::from_strings({"1100", "0011"});
  const RowSpan span(m);
  EXPECT_EQ(span.dimension(), 2u);
  EXPECT_EQ(span.size(), 4u);
  std::set<std::string> elements;
  for (std::size_t i = 0; i < span.size(); ++i) {
    elements.insert(span.element(i).to_string());
  }
  const std::set<std::string> expected = {"0000", "1100", "0011", "1111"};
  EXPECT_EQ(elements, expected);
}

TEST(RowSpan, FirstElementIsZero) {
  const RowSpan span(BitMatrix::from_strings({"101"}));
  EXPECT_TRUE(span.element(0).none());
}

TEST(RowSpan, HandlesDependentRows) {
  const auto m = BitMatrix::from_strings({"110", "011", "101"});
  const RowSpan span(m);
  EXPECT_EQ(span.dimension(), 2u);
  EXPECT_EQ(span.size(), 4u);
}

TEST(RowSpan, EmptyMatrixGivesTrivialSpan) {
  const RowSpan span(BitMatrix(0, 5));
  EXPECT_EQ(span.dimension(), 0u);
  EXPECT_EQ(span.size(), 1u);
  EXPECT_TRUE(span.contains(BitVec(5)));
  EXPECT_FALSE(span.contains(BitVec(5, {2})));
}

TEST(RowSpan, ContainsMatchesEnumeration) {
  const auto m = BitMatrix::from_strings({"11010", "01101"});
  const RowSpan span(m);
  for (std::size_t i = 0; i < span.size(); ++i) {
    EXPECT_TRUE(span.contains(span.element(i)));
  }
  EXPECT_FALSE(span.contains(BitVec::from_string("10000")));
}

TEST(RowSpan, CosetCanonicalEqualIffSameCoset) {
  const auto m = BitMatrix::from_strings({"1100", "0011"});
  const RowSpan span(m);
  const BitVec a = BitVec::from_string("1000");
  const BitVec b = a ^ span.element(3);
  EXPECT_EQ(span.coset_canonical(a), span.coset_canonical(b));
  EXPECT_NE(span.coset_canonical(a),
            span.coset_canonical(BitVec::from_string("0010")));
}

TEST(RowSpan, CosetMinWeightZeroForMembers) {
  const auto m = BitMatrix::from_strings({"111", "010"});
  const RowSpan span(m);
  for (std::size_t i = 0; i < span.size(); ++i) {
    EXPECT_EQ(span.coset_min_weight(span.element(i)), 0u);
  }
}

TEST(RowSpan, CosetMinWeightKnownCase) {
  // Span {0000, 1111}: the coset of 1110 contains 0001 -> weight 1.
  const RowSpan span(BitMatrix::from_strings({"1111"}));
  EXPECT_EQ(span.coset_min_weight(BitVec::from_string("1110")), 1u);
  EXPECT_EQ(span.coset_min_weight(BitVec::from_string("1100")), 2u);
  EXPECT_THROW((void)span.coset_min_weight(BitVec(3)), std::invalid_argument);
  EXPECT_THROW((void)span.coset_min_representative(BitVec(5)),
               std::invalid_argument);
}

TEST(RowSpan, MinRepresentativeIsInCosetAndMinimal) {
  const auto m = BitMatrix::from_strings({"11110", "00111"});
  const RowSpan span(m);
  const BitVec e = BitVec::from_string("10101");
  const BitVec rep = span.coset_min_representative(e);
  EXPECT_TRUE(span.contains(rep ^ e));
  EXPECT_EQ(rep.popcount(), span.coset_min_weight(e));
}

TEST(RowSpan, ThrowsOnHugeSpan) {
  BitMatrix big(30, 40);
  for (std::size_t i = 0; i < 30; ++i) {
    big.set(i, i);
  }
  EXPECT_THROW(RowSpan{big}, std::length_error);
}

// Oracle: the span engine as it was before elements were packed words —
// a `BitVec` per element, built by the same Gray walk over the RREF
// basis, and a `BitVec` temporary per element in the coset loop.
struct BitVecSpanOracle {
  std::vector<BitVec> elements;

  explicit BitVecSpanOracle(const RowSpan& span) {
    BitVec current(span.vector_size());
    elements.push_back(current);
    for (std::size_t i = 1; i < (std::size_t{1} << span.dimension()); ++i) {
      current ^= span.basis_rref().row(
          static_cast<std::size_t>(std::countr_zero(i)));
      elements.push_back(current);
    }
  }

  std::size_t min_weight(const BitVec& v) const {
    std::size_t best = v.size() + 1;
    for (const auto& s : elements) {
      const std::size_t w = (v ^ s).popcount();
      if (w < best) {
        best = w;
        if (best == 0) {
          break;
        }
      }
    }
    return best;
  }

  BitVec min_representative(const BitVec& v) const {
    std::size_t best = v.size() + 1;
    BitVec best_vec = v;
    for (const auto& s : elements) {
      BitVec candidate = v ^ s;
      const std::size_t w = candidate.popcount();
      if (w < best) {
        best = w;
        best_vec = std::move(candidate);
        if (best == 0) {
          break;
        }
      }
    }
    return best_vec;
  }
};

BitVec random_vec(std::mt19937_64& rng, std::size_t cols, unsigned density) {
  BitVec v(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    v.set(c, rng() % density == 0);
  }
  return v;
}

// Random matrices of one to three words per row, with dependent and zero
// rows, against random targets: the packed engine returns the oracle's
// weight and the very same representative (the first minimum in Gray
// order), not merely another vector of the same weight.
TEST(RowSpan, CosetQueriesMatchTheBitVecOracle) {
  std::mt19937_64 rng(0x5ba1);
  for (const std::size_t cols : {5U, 16U, 63U, 64U, 65U, 130U}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t rows = 1 + rng() % 10;
      BitMatrix m(0, cols);
      for (std::size_t r = 0; r < rows; ++r) {
        m.append_row(r % 4 == 3 && r >= 2 ? m.row(r - 1) ^ m.row(r - 2)
                                          : random_vec(rng, cols, 2));
      }
      const RowSpan span(m);
      const BitVecSpanOracle oracle(span);
      ASSERT_EQ(span.size(), oracle.elements.size());
      for (std::size_t i = 0; i < span.size(); ++i) {
        ASSERT_EQ(span.element(i), oracle.elements[i]) << i;
      }
      for (int q = 0; q < 40; ++q) {
        // Sparse targets hit small cosets and ties; dense ones do not.
        const BitVec v = random_vec(rng, cols, q % 2 == 0 ? 2 : 9);
        EXPECT_EQ(span.coset_min_weight(v), oracle.min_weight(v))
            << "cols=" << cols << " trial=" << trial;
        EXPECT_EQ(span.coset_min_representative(v),
                  oracle.min_representative(v))
            << "cols=" << cols << " trial=" << trial;
      }
    }
  }
}

// Property: brute-force coset minimum equals RowSpan's answer on random
// small instances.
class SpanRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SpanRandomized, MinWeightMatchesBruteForce) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  std::uniform_int_distribution<int> bit(0, 1);
  const std::size_t rows = 3;
  const std::size_t cols = 8;
  BitMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.set(r, c, bit(rng) != 0);
    }
  }
  const RowSpan span(m);
  BitVec v(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    v.set(c, bit(rng) != 0);
  }
  std::size_t brute = cols + 1;
  for (std::size_t i = 0; i < span.size(); ++i) {
    brute = std::min(brute, (v ^ span.element(i)).popcount());
  }
  EXPECT_EQ(span.coset_min_weight(v), brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpanRandomized, ::testing::Range(0, 20));

}  // namespace
}  // namespace ftsp::f2
