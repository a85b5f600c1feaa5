#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/protocol.hpp"
#include "qec/code_library.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;
using qec::PauliType;

/// Number of fault operators at the location after gate `g` of `c`.
std::size_t ops_at(const circuit::Circuit& c, std::size_t g) {
  return sim::num_fault_ops(sim::location_kind(c.gates()[g].kind));
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    protocol_ = synthesize_protocol(qec::steane(), LogicalBasis::Zero);
  }
  Protocol protocol_;
};

TEST_F(ExecutorTest, CleanRunIsSilent) {
  const Executor executor(protocol_);
  const auto result = executor.run([](const SiteRef&) { return -1; });
  EXPECT_TRUE(result.data_error.is_identity());
  EXPECT_FALSE(result.any_trigger);
  EXPECT_FALSE(result.hook_terminated);
  EXPECT_EQ(result.faults_injected, 0u);
  EXPECT_GT(result.sites_executed, 0u);
}

TEST_F(ExecutorTest, CleanRunExecutesOnlyAlwaysOnSegments) {
  const Executor executor(protocol_);
  const auto result = executor.run([](const SiteRef&) { return -1; });
  std::size_t expected = protocol_.prep.gate_count();
  if (protocol_.layer1.has_value()) {
    expected += protocol_.layer1->verif.gate_count();
  }
  if (protocol_.layer2.has_value()) {
    expected += protocol_.layer2->verif.gate_count();
  }
  EXPECT_EQ(result.sites_executed, expected);
}

TEST_F(ExecutorTest, InjectedFaultIsCounted) {
  const Executor executor(protocol_);
  bool first = true;
  const auto result = executor.run([&](const SiteRef& ref) -> int {
    if (first && ref.segment == &protocol_.prep &&
        ops_at(*ref.segment, ref.gate_index) != 0) {
      first = false;
      return 0;
    }
    return -1;
  });
  EXPECT_EQ(result.faults_injected, 1u);
}

TEST_F(ExecutorTest, TriggeredBranchRunsExtraSites) {
  const Executor executor(protocol_);
  // Find a fault that triggers the verification: an X fault on the last
  // prep CNOT's control typically spreads and must trigger.
  std::size_t clean_sites = 0;
  {
    const auto clean = executor.run([](const SiteRef&) { return -1; });
    clean_sites = clean.sites_executed;
  }
  bool found_trigger = false;
  for (std::size_t g = 0; g < protocol_.prep.gates().size(); ++g) {
    for (std::size_t op = 0; op < ops_at(protocol_.prep, g) && !found_trigger;
         ++op) {
      bool injected = false;
      const auto result = executor.run([&](const SiteRef& ref) -> int {
        if (!injected && ref.segment == &protocol_.prep &&
            ref.gate_index == g) {
          injected = true;
          return static_cast<int>(op);
        }
        return -1;
      });
      if (result.any_trigger) {
        found_trigger = true;
        EXPECT_GE(result.sites_executed, clean_sites);
      }
    }
  }
  EXPECT_TRUE(found_trigger);
}

TEST_F(ExecutorTest, UnknownPatternsDoNotCrash) {
  // Heavy random noise produces multi-fault patterns outside the branch
  // table; the executor must run through regardless.
  const Executor executor(protocol_);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int run = 0; run < 200; ++run) {
    const auto result = executor.run([&](const SiteRef& ref) -> int {
      if (unit(rng) < 0.25) {
        return static_cast<int>(rng() %
                                ops_at(*ref.segment, ref.gate_index));
      }
      return -1;
    });
    (void)result;
  }
  SUCCEED();
}

TEST(ExecutorHook, HookTerminationSkipsSecondLayer) {
  // Pick a code with two layers and a flagged layer-1 measurement, then
  // inject a hook (Z on the flagged gadget's ancilla mid-ladder).
  for (const char* name : {"Carbon", "[[16,2,4]]", "Tesseract", "Shor"}) {
    const auto protocol = synthesize_protocol(
        qec::library_code_by_name(name), LogicalBasis::Zero);
    if (!protocol.layer1.has_value() || !protocol.layer2.has_value() ||
        protocol.layer1->flag_mask.none()) {
      continue;
    }
    const Executor executor(protocol);
    const auto& l1 = *protocol.layer1;
    // Find a flagged gadget and the gate index of its second data CNOT.
    const circuit::GadgetLayout* flagged = nullptr;
    for (const auto& g : l1.gadgets) {
      if (g.flagged) {
        flagged = &g;
        break;
      }
    }
    ASSERT_NE(flagged, nullptr) << name;
    // Locate the second data CNOT of that gadget in the layer circuit.
    std::size_t data_cnots = 0;
    std::size_t target_gate = SIZE_MAX;
    for (std::size_t g = 0; g < l1.verif.gates().size(); ++g) {
      const auto& gate = l1.verif.gates()[g];
      if (gate.kind == circuit::GateKind::Cnot &&
          (gate.q0 == flagged->ancilla || gate.q1 == flagged->ancilla) &&
          gate.q0 != flagged->flag_qubit &&
          gate.q1 != flagged->flag_qubit) {
        ++data_cnots;
        if (data_cnots == 2) {
          target_gate = g;
          break;
        }
      }
    }
    ASSERT_NE(target_gate, SIZE_MAX) << name;
    // Find the Z-on-ancilla op for that CNOT.
    int z_op = -1;
    const auto& gate = l1.verif.gates()[target_gate];
    const std::size_t anc_slot = gate.q0 == flagged->ancilla ? 0u : 1u;
    for (std::size_t o = 0; o < ops_at(l1.verif, target_gate); ++o) {
      const sim::FaultOp op = sim::fault_op(gate, o);
      if (op.num_terms == 1 &&
          op.terms[0].qubit == (anc_slot == 0 ? gate.q0 : gate.q1) &&
          !op.terms[0].x && op.terms[0].z) {
        z_op = static_cast<int>(o);
        break;
      }
    }
    ASSERT_GE(z_op, 0) << name;

    bool injected = false;
    const auto result = executor.run([&](const SiteRef& ref) -> int {
      if (!injected && ref.segment == &l1.verif &&
          ref.gate_index == target_gate) {
        injected = true;
        return z_op;
      }
      return -1;
    });
    // The hook must be flagged and terminate the protocol; residual must
    // be correctable.
    EXPECT_TRUE(result.hook_terminated) << name;
    EXPECT_LE(protocol.state->reduced_weight(PauliType::Z,
                                             result.data_error.z),
              1u)
        << name;
    return;  // One code with this structure suffices.
  }
  GTEST_SKIP() << "no two-layer code with flagged layer 1 in this library";
}

}  // namespace
}  // namespace ftsp::core
