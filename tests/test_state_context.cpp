#include "qec/state_context.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "qec/code_library.hpp"
#include "util/hash.hpp"

namespace ftsp::qec {
namespace {

TEST(StateContext, ZeroStateAddsLogicalZToZSide) {
  const CssCode code = steane();
  const StateContext state(code, LogicalBasis::Zero);
  // Z side grows by k generators, X side stays.
  EXPECT_EQ(state.stabilizer_generators(PauliType::Z).rows(),
            code.hz().rows() + code.num_logical());
  EXPECT_EQ(state.stabilizer_generators(PauliType::X).rows(),
            code.hx().rows());
  // Z_L = Z1 Z2 Z3 is a state stabilizer of |0>_L.
  EXPECT_TRUE(state.stabilizer_span(PauliType::Z)
                  .contains(f2::BitVec::from_string("1110000")));
}

TEST(StateContext, PlusStateAddsLogicalXToXSide) {
  const CssCode code = steane();
  const StateContext state(code, LogicalBasis::Plus);
  EXPECT_EQ(state.stabilizer_generators(PauliType::X).rows(),
            code.hx().rows() + code.num_logical());
  EXPECT_EQ(state.stabilizer_generators(PauliType::Z).rows(),
            code.hz().rows());
}

TEST(StateContext, LogicalZIsHarmlessOnZeroState) {
  const CssCode code = steane();
  const StateContext state(code, LogicalBasis::Zero);
  const f2::BitVec zl = code.logical_z().row(0);
  // Z_L acts trivially on |0>_L: reduced weight 0.
  EXPECT_EQ(state.reduced_weight(PauliType::Z, zl), 0u);
  // X_L flips the logical state: dangerous (weight d_x >= 3 reduced).
  const f2::BitVec xl = code.logical_x().row(0);
  EXPECT_GE(state.reduced_weight(PauliType::X, xl), 3u);
  EXPECT_TRUE(state.is_dangerous(PauliType::X, xl));
}

TEST(StateContext, SingleQubitErrorsAreNeverDangerous) {
  for (const auto& code : all_library_codes()) {
    const StateContext state(code, LogicalBasis::Zero);
    for (std::size_t q = 0; q < code.num_qubits(); ++q) {
      f2::BitVec e(code.num_qubits());
      e.set(q);
      EXPECT_FALSE(state.is_dangerous(PauliType::X, e))
          << code.name() << " X" << q;
      EXPECT_FALSE(state.is_dangerous(PauliType::Z, e))
          << code.name() << " Z" << q;
    }
  }
}

TEST(StateContext, StabilizersAreHarmless) {
  const CssCode code = shor();
  const StateContext state(code, LogicalBasis::Zero);
  for (std::size_t i = 0; i < code.hx().rows(); ++i) {
    EXPECT_EQ(state.reduced_weight(PauliType::X, code.hx().row(i)), 0u);
  }
  for (std::size_t j = 0; j < code.hz().rows(); ++j) {
    EXPECT_EQ(state.reduced_weight(PauliType::Z, code.hz().row(j)), 0u);
  }
}

TEST(StateContext, SteaneHookSuffixIsHarmless) {
  // The motivating example for measuring Z_L = Z1Z2Z3 unflagged: the hook
  // suffix Z2 Z3 is equivalent to Z1 (weight 1) modulo Z_L itself.
  const CssCode code = steane();
  const StateContext state(code, LogicalBasis::Zero);
  const f2::BitVec suffix = f2::BitVec::from_string("0110000");
  EXPECT_EQ(state.reduced_weight(PauliType::Z, suffix), 1u);
  EXPECT_FALSE(state.is_dangerous(PauliType::Z, suffix));
}

TEST(StateContext, WeightTwoXErrorsOnSteaneAreDangerous) {
  const CssCode code = steane();
  const StateContext state(code, LogicalBasis::Zero);
  // X1 X2 cannot be reduced below weight 2 for the Steane |0>_L.
  const f2::BitVec e = f2::BitVec::from_string("1100000");
  EXPECT_EQ(state.reduced_weight(PauliType::X, e), 2u);
  EXPECT_TRUE(state.is_dangerous(PauliType::X, e));
}

TEST(StateContext, DetectorGeneratorsAreOppositeSide) {
  const CssCode code = surface3();
  const StateContext state(code, LogicalBasis::Zero);
  EXPECT_EQ(state.detector_generators(PauliType::X).rows(),
            code.hz().rows() + code.num_logical());
  EXPECT_EQ(state.detector_generators(PauliType::Z).rows(),
            code.hx().rows());
}

TEST(StateContext, CosetKeyConsistentWithEquivalence) {
  const CssCode code = steane();
  const StateContext state(code, LogicalBasis::Zero);
  const f2::BitVec e = f2::BitVec::from_string("1010000");
  const f2::BitVec equivalent = e ^ code.hx().row(0);
  EXPECT_EQ(state.coset_key(PauliType::X, e),
            state.coset_key(PauliType::X, equivalent));
  EXPECT_EQ(state.reduced_weight(PauliType::X, e),
            state.reduced_weight(PauliType::X, equivalent));
}

TEST(StateContext, ReducedRepresentativeAchievesMinimum) {
  const CssCode code = tetrahedral();
  const StateContext state(code, LogicalBasis::Zero);
  const f2::BitVec e = code.hz().row(0) ^ f2::BitVec(15, {0});
  const f2::BitVec rep = state.reduced_representative(PauliType::Z, e);
  EXPECT_EQ(rep.popcount(), state.reduced_weight(PauliType::Z, e));
  EXPECT_EQ(state.coset_key(PauliType::Z, rep),
            state.coset_key(PauliType::Z, e));
}

TEST(StateContext, EveryDangerousErrorIsDetectable) {
  // Sanity for the synthesis feasibility argument in DESIGN.md: dangerous
  // type-t errors always anticommute with some detector-span element,
  // checked here for weight-2 X errors on all codes.
  for (const auto& code : all_library_codes()) {
    const StateContext state(code, LogicalBasis::Zero);
    const auto& detectors = state.detector_generators(PauliType::X);
    const std::size_t n = code.num_qubits();
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        f2::BitVec e(n);
        e.set(a);
        e.set(b);
        if (!state.is_dangerous(PauliType::X, e)) {
          continue;
        }
        bool detected = false;
        for (std::size_t r = 0; r < detectors.rows(); ++r) {
          detected = detected || detectors.row(r).dot(e);
        }
        EXPECT_TRUE(detected) << code.name() << " X error on " << a << ","
                              << b;
      }
    }
  }
}

// Digest of `reduced_weight` and `reduced_representative` over a seeded
// set of errors, per library code: both bases, both types, 256 errors
// each (uniform bits for the first half, weight <= 4 for the second).
// A span engine that picked a different minimum-weight representative
// on a tie would change the digest.
struct PinnedReduction {
  const char* code;
  std::uint64_t digest;
};

constexpr PinnedReduction kPinnedReductions[] = {
    {"Steane", 0x041521cbd398ed16ULL},
    {"Shor", 0x320e7a3183cfc7b6ULL},
    {"Surface_3", 0xde39082295924fe0ULL},
    {"[[11,1,3]]", 0xb083f7a1ae66f15bULL},
    {"Tetrahedral", 0xd673c9e55a69c2adULL},
    {"Hamming", 0x4651a784b5e77c9aULL},
    {"Carbon", 0x5dc2cfeda98284d2ULL},
    {"[[16,2,4]]", 0xa32b6b90cb3a3096ULL},
    {"Tesseract", 0x4f1144b4bc485e48ULL},
};

TEST(StateContext, ReducedFormsArePinned) {
  const std::vector<CssCode> codes = all_library_codes();
  ASSERT_EQ(codes.size(), std::size(kPinnedReductions));
  for (std::size_t c = 0; c < codes.size(); ++c) {
    const CssCode& code = codes[c];
    ASSERT_EQ(code.name(), kPinnedReductions[c].code);
    const std::size_t n = code.num_qubits();
    std::mt19937_64 rng(0x5eed0000 + c);
    util::Fnv1a64 digest;
    for (const LogicalBasis basis : {LogicalBasis::Zero, LogicalBasis::Plus}) {
      const StateContext state(code, basis);
      for (const PauliType t : {PauliType::X, PauliType::Z}) {
        for (int i = 0; i < 256; ++i) {
          f2::BitVec e(n);
          if (i < 128) {
            const std::uint64_t bits = rng();
            for (std::size_t q = 0; q < n; ++q) {
              e.set(q, ((bits >> q) & 1U) != 0);
            }
          } else {
            const std::uint64_t weight = rng() % 5;
            for (std::uint64_t w = 0; w < weight; ++w) {
              e.set(static_cast<std::size_t>(rng() % n));
            }
          }
          digest.le64(state.reduced_weight(t, e));
          for (const std::size_t q : state.reduced_representative(t, e).ones()) {
            digest.le64(q);
          }
          digest.byte(0xff);
        }
      }
    }
    EXPECT_EQ(digest.value(), kPinnedReductions[c].digest)
        << code.name() << std::hex << ": got 0x" << digest.value();
  }
}

}  // namespace
}  // namespace ftsp::qec
