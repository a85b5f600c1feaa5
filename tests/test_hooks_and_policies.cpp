// Hook-error handling details: flag decisions, deferred-policy structure,
// and the joint (syndrome, flag) patterns produced by Y faults on
// measurement ancillas.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/ft_check.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "qec/code_library.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;
using qec::PauliType;

TEST(Hooks, SteaneWeightThreeVerificationIsUnflagged) {
  // The weight-3 logical-Z verification of the Steane code has only
  // harmless hooks (Example/Table I: a_f = 0).
  const auto protocol =
      synthesize_protocol(qec::steane(), LogicalBasis::Zero);
  ASSERT_TRUE(protocol.layer1.has_value());
  for (const auto& gadget : protocol.layer1->gadgets) {
    EXPECT_FALSE(gadget.flagged);
  }
  EXPECT_TRUE(protocol.layer1->flag_mask.none());
}

TEST(Hooks, FlagDecisionMatchesDangerAnalysis) {
  // Whenever a gadget is unflagged under FlagDangerous policy, all its
  // hook suffixes must be harmless.
  for (const char* name : {"Steane", "Shor", "Surface_3", "Hamming"}) {
    const auto protocol = synthesize_protocol(
        qec::library_code_by_name(name), LogicalBasis::Zero);
    const auto& state = *protocol.state;
    for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
      if (!layer->has_value()) {
        continue;
      }
      for (const auto& gadget : (*layer)->gadgets) {
        if (gadget.flagged) {
          continue;
        }
        for (const auto& hook :
             circuit::hook_errors(gadget, protocol.num_data_qubits())) {
          EXPECT_FALSE(state.is_dangerous(gadget.stabilizer_type,
                                          hook.data_error))
              << name << ": unflagged gadget has dangerous hook at cut "
              << hook.cut;
        }
      }
    }
  }
}

TEST(Hooks, DeferredPolicyMovesWeightToSecondLayer) {
  // Under DeferToNextLayer the first layer must carry no flags; if the
  // flagged variant had flags, the deferred variant compensates in layer
  // 2 and stays fault-tolerant (checked in test_ft_property too).
  SynthesisOptions flagged;
  flagged.flag_policy = FlagPolicy::FlagDangerous;
  SynthesisOptions deferred;
  deferred.flag_policy = FlagPolicy::DeferToNextLayer;
  for (const char* name : {"Carbon", "[[16,2,4]]"}) {
    const auto code = qec::library_code_by_name(name);
    const auto protocol_deferred =
        synthesize_protocol(code, LogicalBasis::Zero, deferred);
    if (protocol_deferred.layer1.has_value()) {
      EXPECT_TRUE(protocol_deferred.layer1->flag_mask.none()) << name;
    }
    EXPECT_TRUE(check_fault_tolerance(protocol_deferred).ok) << name;
  }
}

TEST(Hooks, YFaultOnAncillaSetsSyndromeAndFlag) {
  // A Y fault on a flagged Z-gadget's ancilla mid-ladder flips both the
  // gadget outcome (X part) and the flag (Z part): the executor must land
  // in a joint (b != 0, f != 0) branch and still terminate corrected.
  for (const char* name :
       {"Shor", "Carbon", "[[16,2,4]]", "Tesseract", "Tetrahedral"}) {
    const auto protocol = synthesize_protocol(
        qec::library_code_by_name(name), LogicalBasis::Zero);
    if (!protocol.layer1.has_value() ||
        protocol.layer1->flag_mask.none()) {
      continue;
    }
    const auto& l1 = *protocol.layer1;
    const circuit::GadgetLayout* flagged = nullptr;
    for (const auto& g : l1.gadgets) {
      if (g.flagged && g.order.size() >= 3) {
        flagged = &g;
        break;
      }
    }
    if (flagged == nullptr) {
      continue;
    }
    // Second data CNOT of the flagged gadget.
    std::size_t data_cnots = 0;
    std::size_t target_gate = SIZE_MAX;
    for (std::size_t g = 0; g < l1.verif.gates().size(); ++g) {
      const auto& gate = l1.verif.gates()[g];
      if (gate.kind != circuit::GateKind::Cnot) {
        continue;
      }
      const bool on_ancilla =
          gate.q0 == flagged->ancilla || gate.q1 == flagged->ancilla;
      const bool with_flag = flagged->flagged &&
                             (gate.q0 == flagged->flag_qubit ||
                              gate.q1 == flagged->flag_qubit);
      if (on_ancilla && !with_flag) {
        if (++data_cnots == 2) {
          target_gate = g;
          break;
        }
      }
    }
    ASSERT_NE(target_gate, SIZE_MAX) << name;
    const auto& gate = l1.verif.gates()[target_gate];
    int y_op = -1;
    for (std::size_t o = 0;
         o < sim::num_fault_ops(sim::location_kind(gate.kind)); ++o) {
      const sim::FaultOp op = sim::fault_op(gate, o);
      if (op.num_terms == 1 && op.terms[0].qubit == flagged->ancilla &&
          op.terms[0].x && op.terms[0].z) {
        y_op = static_cast<int>(o);
        break;
      }
    }
    ASSERT_GE(y_op, 0) << name;

    const Executor executor(protocol);
    bool injected = false;
    const auto result = executor.run([&](const SiteRef& ref) -> int {
      if (!injected && ref.segment == &l1.verif &&
          ref.gate_index == target_gate) {
        injected = true;
        return y_op;
      }
      return -1;
    });
    EXPECT_TRUE(result.hook_terminated) << name;
    EXPECT_LE(protocol.state->reduced_weight(PauliType::X,
                                             result.data_error.x),
              1u)
        << name;
    EXPECT_LE(protocol.state->reduced_weight(PauliType::Z,
                                             result.data_error.z),
              1u)
        << name;
    return;
  }
  GTEST_SKIP() << "no flagged first layer in the candidate codes";
}

TEST(Hooks, HookBranchesAreCheapAcrossTheLibrary) {
  // Section V observes that (for the paper's circuits) flag corrections
  // need no additional measurements. That is a property of specific
  // circuits, not of the method; for our circuits we check the weaker,
  // universally-true statements: hook branches exist, many are
  // measurement-free, and none needs more measurements than the layer
  // had verification ancillas.
  std::size_t hook_branches = 0;
  std::size_t measurement_free = 0;
  for (const auto& code : qec::all_library_codes()) {
    const auto protocol = synthesize_protocol(code, LogicalBasis::Zero);
    for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
      if (!layer->has_value()) {
        continue;
      }
      for (const auto& [key, branch] : (*layer)->branches) {
        (void)key;
        if (!branch.is_hook_branch) {
          continue;
        }
        ++hook_branches;
        measurement_free += branch.plan.measurements.empty() ? 1 : 0;
        EXPECT_LE(branch.plan.measurements.size(),
                  (*layer)->gadgets.size() + 1)
            << code.name();
      }
    }
  }
  EXPECT_GT(hook_branches, 0u);
  EXPECT_GT(measurement_free, 0u);
}

}  // namespace
}  // namespace ftsp::core
