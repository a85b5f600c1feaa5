#include "qec/code_library.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "f2/gauss.hpp"
#include "qec/code_search.hpp"
#include "qec/css_code.hpp"
#include "qec/weight_enumerator.hpp"

namespace ftsp::qec {
namespace {

struct CodeParams {
  const char* name;
  std::size_t n;
  std::size_t k;
  std::size_t d;
};

class LibraryCodes : public ::testing::TestWithParam<CodeParams> {};

TEST_P(LibraryCodes, ParametersMatch) {
  const auto params = GetParam();
  const CssCode code = library_code_by_name(params.name);
  EXPECT_EQ(code.num_qubits(), params.n);
  EXPECT_EQ(code.num_logical(), params.k);
  EXPECT_EQ(code.distance(), params.d);
}

TEST_P(LibraryCodes, GeneratorsCommute) {
  const CssCode code = library_code_by_name(GetParam().name);
  for (std::size_t i = 0; i < code.hx().rows(); ++i) {
    for (std::size_t j = 0; j < code.hz().rows(); ++j) {
      EXPECT_FALSE(code.hx().row(i).dot(code.hz().row(j)))
          << "X gen " << i << " anticommutes with Z gen " << j;
    }
  }
}

TEST_P(LibraryCodes, LogicalsCommuteWithStabilizers) {
  const CssCode code = library_code_by_name(GetParam().name);
  for (std::size_t l = 0; l < code.num_logical(); ++l) {
    for (std::size_t j = 0; j < code.hz().rows(); ++j) {
      EXPECT_FALSE(code.logical_x().row(l).dot(code.hz().row(j)));
    }
    for (std::size_t i = 0; i < code.hx().rows(); ++i) {
      EXPECT_FALSE(code.logical_z().row(l).dot(code.hx().row(i)));
    }
  }
}

TEST_P(LibraryCodes, LogicalsAreNotStabilizers) {
  const CssCode code = library_code_by_name(GetParam().name);
  for (std::size_t l = 0; l < code.num_logical(); ++l) {
    EXPECT_FALSE(f2::in_row_span(code.hx(), code.logical_x().row(l)));
    EXPECT_FALSE(f2::in_row_span(code.hz(), code.logical_z().row(l)));
  }
}

TEST_P(LibraryCodes, LogicalsPairSymplectically) {
  const CssCode code = library_code_by_name(GetParam().name);
  for (std::size_t i = 0; i < code.num_logical(); ++i) {
    for (std::size_t j = 0; j < code.num_logical(); ++j) {
      EXPECT_EQ(code.logical_x().row(i).dot(code.logical_z().row(j)),
                i == j)
          << "pairing (" << i << "," << j << ")";
    }
  }
}

TEST_P(LibraryCodes, SyndromeOfStabilizerIsZero) {
  const CssCode code = library_code_by_name(GetParam().name);
  for (std::size_t i = 0; i < code.hx().rows(); ++i) {
    EXPECT_TRUE(code.syndrome(PauliType::X, code.hx().row(i)).none());
  }
  for (std::size_t j = 0; j < code.hz().rows(); ++j) {
    EXPECT_TRUE(code.syndrome(PauliType::Z, code.hz().row(j)).none());
  }
}

TEST_P(LibraryCodes, DescriptionContainsParameters) {
  const auto params = GetParam();
  const CssCode code = library_code_by_name(params.name);
  const std::string desc = code.description();
  EXPECT_NE(desc.find(std::to_string(params.n)), std::string::npos);
  EXPECT_NE(desc.find(params.name), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, LibraryCodes,
    ::testing::Values(CodeParams{"Steane", 7, 1, 3},
                      CodeParams{"Shor", 9, 1, 3},
                      CodeParams{"Surface_3", 9, 1, 3},
                      CodeParams{"[[11,1,3]]", 11, 1, 3},
                      CodeParams{"Tetrahedral", 15, 1, 3},
                      CodeParams{"Hamming", 15, 7, 3},
                      CodeParams{"Carbon", 12, 2, 4},
                      CodeParams{"[[16,2,4]]", 16, 2, 4},
                      CodeParams{"Tesseract", 16, 6, 4}),
    [](const ::testing::TestParamInfo<CodeParams>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(CodeLibrary, AllNinePresentInPaperOrder) {
  const auto codes = all_library_codes();
  ASSERT_EQ(codes.size(), 9u);
  EXPECT_EQ(codes.front().name(), "Steane");
  EXPECT_EQ(codes.back().name(), "Tesseract");
}

TEST(CodeLibrary, UnknownNameThrows) {
  EXPECT_THROW(library_code_by_name("Golay"), std::invalid_argument);
}

TEST(CodeLibrary, SteaneMatchesPaperExample) {
  // Example 1 of the paper: logical operators along the triangle sides.
  const CssCode code = steane();
  EXPECT_EQ(code.distance_x(), 3u);
  EXPECT_EQ(code.distance_z(), 3u);
  // Z1 Z2 Z3 (qubits 0,1,2) is a valid logical Z representative: commutes
  // with Hx, outside span(Hz).
  const f2::BitVec zl = f2::BitVec::from_string("1110000");
  EXPECT_TRUE(code.hx().multiply(zl).none());
  EXPECT_FALSE(f2::in_row_span(code.hz(), zl));
}

TEST(CodeLibrary, ShorZDistanceIsThreeXDistanceIsThree) {
  const CssCode code = shor();
  // The Shor code is [[9,1,3]] with asymmetric stabilizers but d = 3.
  EXPECT_EQ(code.distance(), 3u);
}

TEST(CodeLibrary, TetrahedralHasWeightEightXGenerators) {
  const CssCode code = tetrahedral();
  for (std::size_t i = 0; i < code.hx().rows(); ++i) {
    EXPECT_EQ(code.hx().row(i).popcount(), 8u);
  }
  EXPECT_EQ(code.hz().rows(), 10u);
  EXPECT_EQ(code.distance_z(), 3u);
  EXPECT_EQ(code.distance_x(), 7u);  // Quantum Reed-Muller asymmetry.
}

TEST(CodeLibrary, TesseractIsSelfDualRm14) {
  const CssCode code = tesseract();
  EXPECT_EQ(code.hx(), code.hz());
  EXPECT_EQ(code.hx().rows(), 5u);
  EXPECT_EQ(code.distance_x(), 4u);
  EXPECT_EQ(code.distance_z(), 4u);
}

TEST(CodeLibrary, CssCodeRejectsNonCommutingMatrices) {
  const auto hx = f2::BitMatrix::from_strings({"110"});
  const auto hz = f2::BitMatrix::from_strings({"100"});
  EXPECT_THROW(CssCode("bad", hx, hz), std::invalid_argument);
}

TEST(CodeLibrary, CssCodeRejectsDependentGenerators) {
  const auto hx = f2::BitMatrix::from_strings({"1100", "1100"});
  const auto hz = f2::BitMatrix::from_strings({"0011"});
  EXPECT_THROW(CssCode("bad", hx, hz), std::invalid_argument);
}

TEST(CodeLibrary, CssCodeRejectsZeroLogicals) {
  // [[4,0,...]]: full-rank stabilizers leave no logical qubit.
  const auto hx = f2::BitMatrix::from_strings({"1111", "0101"});
  const auto hz = f2::BitMatrix::from_strings({"1111", "0011"});
  EXPECT_THROW(CssCode("bad", hx, hz), std::invalid_argument);
}

// Oracle: the type-t distance by the search over error weights that
// `CssCode` ran before its normalizer walk — the first weight with a
// vector in the kernel of the opposite checks and outside the
// stabilizer span.
std::size_t weight_walk_distance(const CssCode& code, PauliType t) {
  const std::size_t n = code.num_qubits();
  const f2::BitMatrix& commute_with = code.check_matrix(other(t));
  const auto stab_rref = f2::rref(code.check_matrix(t));
  for (std::size_t w = 1; w <= n; ++w) {
    bool found = false;
    for_each_weight(n, w, [&](const f2::BitVec& v) {
      if (commute_with.multiply(v).none() &&
          f2::reduce_against(v, stab_rref.reduced, stab_rref.pivots).any()) {
        found = true;
        return false;
      }
      return true;
    });
    if (found) {
      return w;
    }
  }
  return 0;
}

void expect_distances_match_oracles(const CssCode& code) {
  for (const PauliType t : {PauliType::X, PauliType::Z}) {
    const std::size_t d =
        t == PauliType::X ? code.distance_x() : code.distance_z();
    EXPECT_EQ(d, weight_walk_distance(code, t))
        << code.name() << " " << name(t) << "\n"
        << code.hx().to_string() << "\n"
        << code.hz().to_string();
    EXPECT_EQ(d, distance_from_enumerators(code, t))
        << code.name() << " " << name(t);
  }
}

f2::BitVec random_vec(std::mt19937_64& rng, std::size_t n) {
  f2::BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.set(i, (rng() & 1U) != 0);
  }
  return v;
}

// A random CSS code on n qubits: rx random independent X checks, then rz
// independent Z checks drawn from random combinations of ker(Hx).
CssCode random_css_code(std::mt19937_64& rng, std::size_t n) {
  const std::size_t rx = 1 + rng() % (n - 2);
  const std::size_t rz = 1 + rng() % (n - 1 - rx);
  f2::BitMatrix hx(0, n);
  while (hx.rows() < rx) {
    f2::BitMatrix grown = hx;
    grown.append_row(random_vec(rng, n));
    if (f2::rank(grown) == grown.rows()) {
      hx = std::move(grown);
    }
  }
  const std::vector<f2::BitVec> kernel = f2::kernel_basis(hx);
  f2::BitMatrix hz(0, n);
  while (hz.rows() < rz) {
    f2::BitVec row(n);
    for (const f2::BitVec& k : kernel) {
      if ((rng() & 1U) != 0) {
        row ^= k;
      }
    }
    f2::BitMatrix grown = hz;
    grown.append_row(row);
    if (row.any() && f2::rank(grown) == grown.rows()) {
      hz = std::move(grown);
    }
  }
  return CssCode("random", hx, hz);
}

TEST(CssDistance, MatchesWeightWalkAndEnumeratorsOnRandomCodes) {
  std::mt19937_64 rng(0xd157);
  for (std::size_t n = 4; n <= 14; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      expect_distances_match_oracles(random_css_code(rng, n));
    }
  }
}

TEST(CssDistance, MatchesWeightWalkAndEnumeratorsOnSearchedCodes) {
  SelfDualSearchOptions self_dual;
  self_dual.n = 11;
  self_dual.rows = 5;
  self_dual.min_detect_weight = 3;
  const auto h = find_self_dual_check_matrix(self_dual);
  ASSERT_TRUE(h.has_value());
  expect_distances_match_oracles(CssCode("self-dual-[[11,1,3]]", *h, *h));

  CssSearchOptions two_sided;
  two_sided.n = 12;
  two_sided.rx = 5;
  two_sided.rz = 5;
  two_sided.min_distance = 4;
  const auto found = find_css_check_matrices(two_sided);
  ASSERT_TRUE(found.has_value());
  expect_distances_match_oracles(
      CssCode("two-sided-[[12,2,4]]", found->hx, found->hz));

  for (const CssCode& code : all_library_codes()) {
    expect_distances_match_oracles(code);
  }
}

TEST(CssDistance, AboveTheSpanLimitSearchesByWeight) {
  // The 26-qubit bit-flip repetition code: 25 Z checks Z_i Z_i+1 and no
  // X checks. The X side walks a one-row normalizer (X on every qubit);
  // the Z normalizer has dimension 26, above the span limit, so the Z
  // distance comes from the weight search (a single Z is a logical).
  const std::size_t n = 26;
  f2::BitMatrix hz(n - 1, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    hz.set(i, i);
    hz.set(i, i + 1);
  }
  const CssCode code("repetition-26", f2::BitMatrix(0, n), hz);
  EXPECT_EQ(code.num_logical(), 1u);
  EXPECT_EQ(code.distance_x(), n);
  EXPECT_EQ(code.distance_z(), 1u);
  EXPECT_EQ(code.distance_z(), weight_walk_distance(code, PauliType::Z));
}

TEST(ForEachWeight, EnumeratesBinomialCount) {
  std::size_t count = 0;
  for_each_weight(6, 3, [&](const f2::BitVec& v) {
    EXPECT_EQ(v.popcount(), 3u);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 20u);  // C(6,3)
}

TEST(ForEachWeight, EarlyStopPropagates) {
  std::size_t count = 0;
  const bool completed = for_each_weight(6, 2, [&](const f2::BitVec&) {
    ++count;
    return count < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 5u);
}

TEST(ForEachWeight, WeightZeroYieldsEmptyVector) {
  std::size_t count = 0;
  for_each_weight(4, 0, [&](const f2::BitVec& v) {
    EXPECT_TRUE(v.none());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(ForEachWeight, WeightAboveSizeYieldsNothing) {
  std::size_t count = 0;
  for_each_weight(3, 4, [&](const f2::BitVec&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace ftsp::qec
