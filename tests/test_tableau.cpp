#include "sim/tableau.hpp"

#include <gtest/gtest.h>

#include <random>

#include "sim/faults.hpp"
#include "sim/pauli_frame.hpp"
#include "util/mt64.hpp"

namespace ftsp::sim {
namespace {

using circuit::Circuit;
using qec::Pauli;

TEST(Tableau, InitialStateIsAllZeros) {
  const Tableau t(3);
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("ZII")));
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("IZI")));
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("ZZZ")));
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("XII")));
}

TEST(Tableau, MinusStateNotStabilizedPositively) {
  Tableau t(1);
  util::Mt64 rng(1);
  t.apply_x(0);  // |1>: stabilized by -Z.
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("Z")));
  (void)rng;
}

TEST(Tableau, HadamardMakesPlus) {
  Tableau t(1);
  t.apply_h(0);
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("X")));
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("Z")));
}

TEST(Tableau, SGateTurnsPlusIntoYEigenstate) {
  Tableau t(1);
  t.apply_h(0);
  t.apply_s(0);
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("Y")));
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("X")));
}

TEST(Tableau, BellStateStabilizers) {
  Tableau t(2);
  t.apply_h(0);
  t.apply_cnot(0, 1);
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("XX")));
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("ZZ")));
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("XI")));
  // -YY stabilizes the Bell state, +YY does not.
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("YY")));
}

TEST(Tableau, GhzStateStabilizers) {
  Tableau t(3);
  t.apply_h(0);
  t.apply_cnot(0, 1);
  t.apply_cnot(1, 2);
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("XXX")));
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("ZZI")));
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("IZZ")));
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("ZII")));
}

TEST(Tableau, PauliGatesFlipSigns) {
  Tableau t(1);
  t.apply_h(0);  // |+>
  t.apply_z(0);  // |->
  EXPECT_FALSE(t.stabilizes(Pauli::from_string("X")));
  t.apply_z(0);  // |+> again
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("X")));
}

TEST(Tableau, MeasureZDeterministicOnBasisState) {
  Tableau t(2);
  util::Mt64 rng(42);
  t.apply_x(0);
  EXPECT_TRUE(t.z_is_deterministic(0));
  EXPECT_TRUE(t.measure_z(0, rng));   // |1> -> outcome 1.
  EXPECT_FALSE(t.measure_z(1, rng));  // |0> -> outcome 0.
}

TEST(Tableau, MeasurePlusIsRandomButCollapses) {
  std::size_t ones = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Tableau t(1);
    util::Mt64 rng(seed);
    t.apply_h(0);
    EXPECT_FALSE(t.z_is_deterministic(0));
    const bool first = t.measure_z(0, rng);
    ones += first ? 1 : 0;
    // Collapsed: the second measurement must repeat the first.
    EXPECT_TRUE(t.z_is_deterministic(0));
    EXPECT_EQ(t.measure_z(0, rng), first);
  }
  EXPECT_GT(ones, 4u);
  EXPECT_LT(ones, 28u);
}

TEST(Tableau, BellMeasurementsAreCorrelated) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Tableau t(2);
    util::Mt64 rng(seed);
    t.apply_h(0);
    t.apply_cnot(0, 1);
    EXPECT_EQ(t.measure_z(0, rng), t.measure_z(1, rng));
  }
}

TEST(Tableau, MeasureXOnPlusIsDeterministic) {
  Tableau t(1);
  util::Mt64 rng(7);
  t.apply_h(0);
  EXPECT_FALSE(t.measure_x(0, rng));
  t.apply_z(0);  // Now |->.
  EXPECT_TRUE(t.measure_x(0, rng));
}

TEST(Tableau, PrepResetsToBasisState) {
  Tableau t(1);
  util::Mt64 rng(3);
  t.apply_h(0);
  t.prep_z(0, rng);
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("Z")));
  t.prep_x(0, rng);
  EXPECT_TRUE(t.stabilizes(Pauli::from_string("X")));
}

TEST(Tableau, RunChecksQubitCount) {
  Tableau t(2);
  util::Mt64 rng(0);
  const Circuit c(3);
  EXPECT_THROW(t.run(c, rng), std::invalid_argument);
}

TEST(Tableau, StabilizerMeasurementCircuitIsDeterministic) {
  // Measure ZZ on a Bell pair via an ancilla: outcome must be 0.
  Circuit c(3);
  c.h(0);
  c.cnot(0, 1);
  c.prep_z(2);
  c.cnot(0, 2);
  c.cnot(1, 2);
  c.measure_z(2);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Tableau t(3);
    util::Mt64 rng(seed);
    const auto outcomes = t.run(c, rng);
    EXPECT_FALSE(outcomes[0]);
  }
}

/// Cross-validation: Pauli-frame fault propagation predicts exactly the
/// measurement flips the full tableau simulation produces, for random
/// Pauli faults injected at random positions of a stabilizer measurement
/// circuit.
class FrameVsTableau : public ::testing::TestWithParam<int> {};

TEST_P(FrameVsTableau, FlipPredictionsMatch) {
  util::Mt64 rng(static_cast<std::uint64_t>(GetParam()) * 101 + 17);

  // GHZ-4 preparation + two ancilla-based stabilizer measurements (ZZ on
  // 0,1 and XXXX via H conjugation is omitted — keep Z type for
  // determinism).
  Circuit c(6);
  c.prep_z(0);
  c.prep_z(1);
  c.prep_z(2);
  c.prep_z(3);
  c.h(0);
  c.cnot(0, 1);
  c.cnot(1, 2);
  c.cnot(2, 3);
  c.prep_z(4);
  c.cnot(0, 4);
  c.cnot(1, 4);
  c.measure_z(4);
  c.prep_z(5);
  c.cnot(2, 5);
  c.cnot(3, 5);
  c.measure_z(5);

  std::uniform_int_distribution<std::size_t> pick_gate(0,
                                                       c.gates().size() - 1);
  const std::size_t gate = pick_gate(rng);
  std::uniform_int_distribution<std::size_t> pick_op(
      0, num_fault_ops(location_kind(c.gates()[gate].kind)) - 1);
  const FaultOp op = fault_op(c.gates()[gate], pick_op(rng));

  // Frame prediction.
  PauliFrame frame(c);
  for (std::size_t g = 0; g < c.gates().size(); ++g) {
    apply_gate(frame, c.gates()[g]);
    if (g == gate) {
      apply_fault(frame, op, c.gates()[g]);
    }
  }

  // Tableau ground truth (outcomes deterministic for this circuit).
  Tableau t(6);
  util::Mt64 trng(1);
  std::vector<bool> outcomes(c.num_cbits(), false);
  for (std::size_t g = 0; g < c.gates().size(); ++g) {
    t.apply_gate(c.gates()[g], trng, outcomes);
    if (g == gate) {
      for (int k = 0; k < op.num_terms; ++k) {
        const auto& term = op.terms[static_cast<std::size_t>(k)];
        if (term.x) {
          t.apply_x(term.qubit);
        }
        if (term.z) {
          t.apply_z(term.qubit);
        }
      }
      if (op.flip_outcome) {
        const auto bit =
            static_cast<std::size_t>(c.gates()[g].cbit);
        outcomes[bit] = !outcomes[bit];
      }
    }
  }

  for (std::size_t b = 0; b < c.num_cbits(); ++b) {
    EXPECT_EQ(outcomes[b], frame.outcomes[b]) << "classical bit " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFaults, FrameVsTableau,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace ftsp::sim
