#include "core/measure_prep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/executor.hpp"
#include "core/protocol.hpp"
#include "core/samplers.hpp"
#include "f2/gauss.hpp"
#include "qec/code_library.hpp"
#include "sim/tableau.hpp"
#include "util/mt64.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;
using qec::PauliType;

TEST(MeasurePrep, OneGadgetPerGenerator) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_measure_prep(state);
  EXPECT_EQ(prep.gadgets.size(), code.hx().rows());
  for (std::size_t i = 0; i < prep.gadgets.size(); ++i) {
    EXPECT_EQ(prep.gadgets[i].stabilizer_type, PauliType::X);
    EXPECT_EQ(prep.gadgets[i].support, code.hx().row(i));
  }
}

TEST(MeasurePrep, FixesAreDestabilizers) {
  const auto code = qec::surface3();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_measure_prep(state);
  const auto& hx = code.hx();
  for (std::size_t i = 0; i < prep.outcome_fixes.rows(); ++i) {
    const auto syndrome = hx.multiply(prep.outcome_fixes.row(i));
    for (std::size_t j = 0; j < hx.rows(); ++j) {
      EXPECT_EQ(syndrome.get(j), i == j)
          << "fix " << i << " vs generator " << j;
    }
  }
}

TEST(MeasurePrep, NoiselessRunPreparesLogicalZero) {
  // Run on the tableau, apply the outcome fixes for the observed random
  // outcomes, and verify the resulting state is exactly |0>_L.
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_measure_prep(state);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Tableau tableau(prep.circuit.num_qubits());
    util::Mt64 rng(seed);
    const auto outcomes = tableau.run(prep.circuit, rng);
    for (std::size_t i = 0; i < prep.gadgets.size(); ++i) {
      if (outcomes[static_cast<std::size_t>(
              prep.gadgets[i].outcome_bit)]) {
        for (std::size_t q : prep.outcome_fixes.row(i).ones()) {
          tableau.apply_z(q);
        }
      }
    }
    for (std::size_t i = 0; i < state.stabilizer_generators(PauliType::X)
                                     .rows();
         ++i) {
      qec::Pauli p(prep.circuit.num_qubits());
      for (std::size_t q :
           state.stabilizer_generators(PauliType::X).row(i).ones()) {
        p.x.set(q);
      }
      EXPECT_TRUE(tableau.stabilizes(p)) << "seed " << seed;
    }
    for (std::size_t i = 0; i < state.stabilizer_generators(PauliType::Z)
                                     .rows();
         ++i) {
      qec::Pauli p(prep.circuit.num_qubits());
      for (std::size_t q :
           state.stabilizer_generators(PauliType::Z).row(i).ones()) {
        p.z.set(q);
      }
      EXPECT_TRUE(tableau.stabilizes(p)) << "seed " << seed;
    }
  }
}

TEST(MeasurePrep, ZeroNoiseHasZeroLogicalError) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_measure_prep(state);
  const decoder::PerfectDecoder decoder(code);
  const auto stats =
      sample_measure_prep(prep, state, decoder, 0.0, 500, 3);
  EXPECT_EQ(stats.logical_error_rate, 0.0);
}

TEST(MeasurePrep, OneRoundScalesLinearlyNotQuadratically) {
  // The motivating contrast: one-round measurement-based preparation has
  // p_L = O(p) (hooks and measurement faults go unchecked), while the
  // deterministic verified protocol reaches O(p^2).
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_measure_prep(state);
  const decoder::PerfectDecoder decoder(code);
  const auto at_2em2 =
      sample_measure_prep(prep, state, decoder, 0.02, 40000, 5);
  const auto at_2em3 =
      sample_measure_prep(prep, state, decoder, 0.002, 40000, 6);
  ASSERT_GT(at_2em3.logical_error_rate, 0.0);
  const double ratio =
      at_2em2.logical_error_rate / at_2em3.logical_error_rate;
  // Linear scaling predicts ~10; quadratic would predict ~100.
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 35.0);

  // And the deterministic protocol beats it at the same p.
  const auto protocol = synthesize_protocol(code, LogicalBasis::Zero);
  const Executor executor(protocol);
  const auto batch =
      sample_protocol_batch(executor, decoder, 0.002, 40000, 7);
  const auto det = estimate_logical_rate({batch}, 0.002);
  EXPECT_LT(det.mean, at_2em3.logical_error_rate);
}

TEST(MeasurePrep, PlusBasisMirrors) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Plus);
  const auto prep = synthesize_measure_prep(state);
  EXPECT_EQ(prep.gadgets.size(), code.hz().rows());
  for (const auto& gadget : prep.gadgets) {
    EXPECT_EQ(gadget.stabilizer_type, PauliType::Z);
  }
}

TEST(MeasurePrep, PlusBasisFailsAsOftenAsZero) {
  // Steane is self-dual and the |+>_L circuit mirrors the |0>_L one
  // under transversal H, so under this symmetric noise the Z flips that
  // spoil |+>_L are as frequent as the X flips that spoil |0>_L. Its X
  // flips, which act trivially on |+>_L, read about twice as often.
  const auto code = qec::steane();
  const decoder::PerfectDecoder decoder(code);
  const auto rate = [&](LogicalBasis basis) {
    const qec::StateContext state(code, basis);
    const auto prep = synthesize_measure_prep(state);
    return sample_measure_prep(prep, state, decoder, 0.02, 40000, 5)
        .logical_error_rate;
  };
  const double zero = rate(LogicalBasis::Zero);
  const double plus = rate(LogicalBasis::Plus);
  const double sigma = std::sqrt(2.0 * zero * (1.0 - zero) / 40000.0);
  EXPECT_NEAR(plus, zero, 5.0 * sigma);
}

TEST(MeasurePrep, StatsCountResources) {
  const auto code = qec::shor();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_measure_prep(state);
  const decoder::PerfectDecoder decoder(code);
  const auto stats =
      sample_measure_prep(prep, state, decoder, 0.01, 10, 1);
  EXPECT_EQ(stats.ancillas, code.hx().rows());
  std::size_t weight = 0;
  for (std::size_t i = 0; i < code.hx().rows(); ++i) {
    weight += code.hx().row(i).popcount();
  }
  EXPECT_EQ(stats.cnots, weight);
}

}  // namespace
}  // namespace ftsp::core
