#include "sim/frame_batch.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <random>
#include <vector>

#include "sim/pauli_frame.hpp"
#include "sim/tableau.hpp"

namespace ftsp::sim {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

// ------------------------------------------------------------- kernels

TEST(FrameBatch, CnotPropagatesPerLane) {
  Circuit c(2);
  c.cnot(0, 1);
  FrameBatch batch(c, 130);  // Three words, partial tail.
  batch.flip_x_bit(0, 0);    // Lane 0: X on control.
  batch.flip_z_bit(1, 77);   // Lane 77: Z on target.
  batch.apply_circuit(c);
  EXPECT_TRUE(batch.x_bit(0, 0));
  EXPECT_TRUE(batch.x_bit(1, 0));
  EXPECT_FALSE(batch.z_bit(0, 0));
  EXPECT_TRUE(batch.z_bit(0, 77));
  EXPECT_TRUE(batch.z_bit(1, 77));
  EXPECT_FALSE(batch.x_bit(1, 77));
  // Untouched lanes stay clean.
  EXPECT_FALSE(batch.x_bit(1, 1));
  EXPECT_FALSE(batch.z_bit(0, 129));
}

TEST(FrameBatch, HadamardSwapsAllLanes) {
  Circuit c(1);
  c.h(0);
  FrameBatch batch(c, 64);
  batch.flip_x_bit(0, 3);
  batch.flip_z_bit(0, 9);
  batch.apply_circuit(c);
  EXPECT_TRUE(batch.z_bit(0, 3));
  EXPECT_FALSE(batch.x_bit(0, 3));
  EXPECT_TRUE(batch.x_bit(0, 9));
  EXPECT_FALSE(batch.z_bit(0, 9));
}

TEST(FrameBatch, MeasurementRecordsFlipsPerLane) {
  Circuit c(1);
  c.measure_z(0);
  FrameBatch batch(c, 128);
  batch.flip_x_bit(0, 5);   // X flips a Z measurement.
  batch.flip_z_bit(0, 70);  // Z does not.
  batch.apply_circuit(c);
  EXPECT_TRUE(batch.outcome_bit(0, 5));
  EXPECT_FALSE(batch.outcome_bit(0, 70));
  EXPECT_FALSE(batch.outcome_bit(0, 6));
}

TEST(FrameBatch, DepositExtractRoundTrips) {
  Circuit c(3);
  c.measure_z(0);
  c.measure_x(1);
  PauliFrame frame(c);
  frame.error.x.set(1);
  frame.error.z.set(2);
  frame.outcomes[0] = true;
  FrameBatch batch(c, 100);
  batch.deposit_frame(frame, 99);
  const PauliFrame out = batch.extract_frame(99);
  EXPECT_EQ(out.error.x, frame.error.x);
  EXPECT_EQ(out.error.z, frame.error.z);
  EXPECT_EQ(out.outcomes, frame.outcomes);
  // Neighbouring lane untouched.
  EXPECT_TRUE(batch.extract_frame(98).error.x.none());
}

// ------------------------------------------------- randomized crosschecks

Circuit random_circuit(std::mt19937_64& rng, std::size_t num_qubits,
                       std::size_t num_gates) {
  Circuit c(num_qubits);
  std::uniform_int_distribution<std::size_t> qubit(0, num_qubits - 1);
  std::uniform_int_distribution<int> kind(0, 5);
  for (std::size_t i = 0; i < num_gates; ++i) {
    const std::size_t q = qubit(rng);
    switch (kind(rng)) {
      case 0: {
        std::size_t t = qubit(rng);
        while (t == q) {
          t = qubit(rng);
        }
        c.cnot(q, t);
        break;
      }
      case 1:
        c.h(q);
        break;
      case 2:
        c.prep_z(q);
        break;
      case 3:
        c.prep_x(q);
        break;
      case 4:
        c.measure_z(q);
        break;
      default:
        c.measure_x(q);
        break;
    }
  }
  return c;
}

/// Random circuit with no random collapses: measurements are vetted by a
/// shadow tableau to be deterministic, and preps only act on qubits in a
/// definite basis state (no collapse of entangled qubits). This is the
/// domain the frame semantics are exact for, and the shape of every
/// synthesized protocol circuit (ancillas are prepped fresh). It also
/// makes the faulted-vs-noiseless tableau comparison below sample-exact:
/// with a random collapse, the two runs need not land in the same
/// physical branch.
Circuit random_deterministic_circuit(std::mt19937_64& rng,
                                     std::size_t num_qubits,
                                     std::size_t num_gates) {
  Circuit c(num_qubits);
  Tableau shadow(num_qubits);
  std::mt19937_64 shadow_rng(rng());
  std::vector<bool> ignored;
  std::uniform_int_distribution<std::size_t> qubit(0, num_qubits - 1);
  std::uniform_int_distribution<int> kind(0, 5);
  // Start from fully prepared qubits so early measurements can succeed.
  for (std::size_t q = 0; q < num_qubits; ++q) {
    if ((rng() & 1) != 0) {
      c.prep_z(q);
      shadow.prep_z(q, shadow_rng);
    } else {
      c.prep_x(q);
      shadow.prep_x(q, shadow_rng);
    }
  }
  std::size_t emitted = 0;
  std::size_t attempts = 0;
  while (emitted < num_gates && attempts < num_gates * 10) {
    ++attempts;
    const std::size_t q = qubit(rng);
    Gate gate{GateKind::H, q, 0, -1};
    switch (kind(rng)) {
      case 0: {
        std::size_t t = qubit(rng);
        while (t == q) {
          t = qubit(rng);
        }
        gate = {GateKind::Cnot, q, t, -1};
        break;
      }
      case 1:
        gate = {GateKind::H, q, 0, -1};
        break;
      case 2:
        if (!shadow.z_is_deterministic(q)) {
          continue;  // Prep would collapse an entangled qubit.
        }
        gate = {GateKind::PrepZ, q, 0, -1};
        break;
      case 3:
        if (!shadow.z_is_deterministic(q)) {
          continue;  // prep_x = prep_z + H: same collapse.
        }
        gate = {GateKind::PrepX, q, 0, -1};
        break;
      case 4:
        if (!shadow.z_is_deterministic(q)) {
          continue;  // Would be a random outcome; not in the frame domain.
        }
        gate = {GateKind::MeasZ, q, 0, 0};
        break;
      default: {
        shadow.apply_h(q);
        const bool deterministic = shadow.z_is_deterministic(q);
        shadow.apply_h(q);
        if (!deterministic) {
          continue;
        }
        gate = {GateKind::MeasX, q, 0, 0};
        break;
      }
    }
    switch (gate.kind) {
      case GateKind::Cnot:
        c.cnot(gate.q0, gate.q1);
        break;
      case GateKind::H:
        c.h(gate.q0);
        break;
      case GateKind::PrepZ:
        c.prep_z(gate.q0);
        break;
      case GateKind::PrepX:
        c.prep_x(gate.q0);
        break;
      case GateKind::MeasZ:
        gate.cbit = c.measure_z(gate.q0);
        break;
      case GateKind::MeasX:
        gate.cbit = c.measure_x(gate.q0);
        break;
    }
    ignored.resize(c.num_cbits());
    shadow.apply_gate(c.gates().back(), shadow_rng, ignored);
    ++emitted;
  }
  return c;
}

/// One random fault plan per lane: gate index -> fault-op index.
using FaultPlan = std::map<std::size_t, std::size_t>;

std::vector<FaultPlan> random_fault_plans(std::mt19937_64& rng,
                                          const std::vector<FaultSite>& sites,
                                          std::size_t shots,
                                          double fault_probability) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<FaultPlan> plans(shots);
  for (std::size_t shot = 0; shot < shots; ++shot) {
    for (std::size_t g = 0; g < sites.size(); ++g) {
      if (unit(rng) < fault_probability) {
        plans[shot][g] = rng() % sites[g].ops.size();
      }
    }
  }
  return plans;
}

TEST(FrameBatchCrossCheck, MatchesScalarFrameBitForBit) {
  std::mt19937_64 rng(0xF8A3E);
  constexpr std::size_t kShots = 130;  // Exercises full and partial words.
  for (int trial = 0; trial < 25; ++trial) {
    const Circuit c = random_circuit(rng, 6, 40);
    const auto sites = enumerate_fault_sites(c);
    const auto plans = random_fault_plans(rng, sites, kShots, 0.15);

    // Batched: all lanes at once.
    FrameBatch batch(c, kShots);
    for (std::size_t g = 0; g < c.gates().size(); ++g) {
      batch.apply_gate(c.gates()[g]);
      for (std::size_t shot = 0; shot < kShots; ++shot) {
        if (const auto it = plans[shot].find(g); it != plans[shot].end()) {
          batch.apply_fault(sites[g].ops[it->second], c.gates()[g], shot);
        }
      }
    }

    // Scalar oracle: one frame per lane, compared bit for bit.
    for (std::size_t shot = 0; shot < kShots; ++shot) {
      PauliFrame frame(c);
      for (std::size_t g = 0; g < c.gates().size(); ++g) {
        apply_gate(frame, c.gates()[g]);
        if (const auto it = plans[shot].find(g); it != plans[shot].end()) {
          apply_fault(frame, sites[g].ops[it->second], c.gates()[g]);
        }
      }
      const PauliFrame lane = batch.extract_frame(shot);
      ASSERT_EQ(lane.error.x, frame.error.x)
          << "trial " << trial << " shot " << shot;
      ASSERT_EQ(lane.error.z, frame.error.z)
          << "trial " << trial << " shot " << shot;
      ASSERT_EQ(lane.outcomes, frame.outcomes)
          << "trial " << trial << " shot " << shot;
    }
  }
}

TEST(FrameBatchCrossCheck, OutcomeFlipsMatchTableau) {
  // The frame records, per measurement, the flip relative to the
  // noiseless run. The tableau simulator is the ground truth: on circuits
  // with deterministic noiseless outcomes (the frame domain — every
  // synthesized circuit has this shape), running the tableau with the
  // fault injected as explicit Pauli gates gives outcome vectors whose
  // XOR against the noiseless outcomes must equal the frame's flip bits.
  std::mt19937_64 rng(0xBEEF);
  constexpr std::size_t kShots = 64;
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit c = random_deterministic_circuit(rng, 5, 30);
    const auto sites = enumerate_fault_sites(c);
    const auto plans = random_fault_plans(rng, sites, kShots, 0.08);
    const std::uint64_t tableau_seed = rng();

    FrameBatch batch(c, kShots);
    for (std::size_t g = 0; g < c.gates().size(); ++g) {
      batch.apply_gate(c.gates()[g]);
      for (std::size_t shot = 0; shot < kShots; ++shot) {
        if (const auto it = plans[shot].find(g); it != plans[shot].end()) {
          batch.apply_fault(sites[g].ops[it->second], c.gates()[g], shot);
        }
      }
    }

    // Noiseless tableau reference.
    std::mt19937_64 ref_rng(tableau_seed);
    Tableau reference(c.num_qubits());
    const std::vector<bool> ref_outcomes = reference.run(c, ref_rng);

    for (std::size_t shot = 0; shot < kShots; ++shot) {
      std::mt19937_64 run_rng(tableau_seed);
      Tableau tableau(c.num_qubits());
      std::vector<bool> outcomes(c.num_cbits(), false);
      for (std::size_t g = 0; g < c.gates().size(); ++g) {
        const Gate& gate = c.gates()[g];
        tableau.apply_gate(gate, run_rng, outcomes);
        if (const auto it = plans[shot].find(g); it != plans[shot].end()) {
          const FaultOp& op = sites[g].ops[it->second];
          for (int t = 0; t < op.num_terms; ++t) {
            const auto& term = op.terms[static_cast<std::size_t>(t)];
            if (term.x) {
              tableau.apply_x(term.qubit);
            }
            if (term.z) {
              tableau.apply_z(term.qubit);
            }
          }
          if (op.flip_outcome) {
            const auto bit = static_cast<std::size_t>(gate.cbit);
            outcomes[bit] = !outcomes[bit];
          }
        }
      }
      for (std::size_t b = 0; b < c.num_cbits(); ++b) {
        ASSERT_EQ(outcomes[b] != ref_outcomes[b], batch.outcome_bit(b, shot))
            << "trial " << trial << " shot " << shot << " cbit " << b;
      }
    }
  }
}

// --------------------------------------------------------- bernoulli_word

TEST(BernoulliWord, EdgeProbabilities) {
  std::mt19937_64 rng(1);
  EXPECT_EQ(bernoulli_word(rng, 0.0), 0u);
  EXPECT_EQ(bernoulli_word(rng, -1.0), 0u);
  EXPECT_EQ(bernoulli_word(rng, 1.0), ~std::uint64_t{0});
  EXPECT_EQ(bernoulli_word(rng, 2.0), ~std::uint64_t{0});
}

TEST(BernoulliWord, MatchesExpectedDensity) {
  std::mt19937_64 rng(42);
  for (const double p : {0.003, 0.05, 0.3, 0.7}) {
    constexpr int kWords = 4000;
    std::size_t total = 0;
    for (int i = 0; i < kWords; ++i) {
      total += static_cast<std::size_t>(std::popcount(bernoulli_word(rng, p)));
    }
    const double n = 64.0 * kWords;
    const double mean = static_cast<double>(total) / n;
    // 6 sigma for a binomial proportion.
    const double tolerance = 6.0 * std::sqrt(p * (1.0 - p) / n);
    EXPECT_NEAR(mean, p, tolerance) << "p = " << p;
  }
}

TEST(BernoulliWord, DeterministicForSeed) {
  std::mt19937_64 a(7);
  std::mt19937_64 b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(bernoulli_word(a, 0.1), bernoulli_word(b, 0.1));
  }
}

}  // namespace
}  // namespace ftsp::sim
