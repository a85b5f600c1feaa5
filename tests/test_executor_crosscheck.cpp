// Cross-validation of the two propagation paths: the synthesis-time
// event enumerator (`enumerate_single_fault_events`, which runs every
// segment straight through) and the run-time executor (which follows the
// protocol's branches). For faults that trigger nothing, both must
// produce identical residuals; for triggering faults the executor must
// leave a correctable residual.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/protocol.hpp"
#include "qec/code_library.hpp"
#include "sim/faults.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;
using qec::PauliType;

class ExecutorCrossCheck : public ::testing::TestWithParam<const char*> {};

TEST_P(ExecutorCrossCheck, SilentFaultsMatchEventEnumeration) {
  const auto protocol = synthesize_protocol(
      qec::library_code_by_name(GetParam()), LogicalBasis::Zero);
  const Executor executor(protocol);

  std::vector<const circuit::Circuit*> segments = {&protocol.prep};
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (layer->has_value()) {
      segments.push_back(&(*layer)->verif);
    }
  }

  // Events are produced in (segment, gate, op) order; walk in lockstep.
  const auto events =
      enumerate_single_fault_events(protocol.num_data_qubits(), segments);
  std::size_t index = 0;
  std::size_t silent = 0;
  std::size_t corrected = 0;

  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto& gates = segments[s]->gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const std::size_t num_ops =
          sim::num_fault_ops(sim::location_kind(gates[g].kind));
      for (std::size_t op = 0; op < num_ops; ++op, ++index) {
        ASSERT_LT(index, events.size());
        const FaultEvent& event = events[index];

        bool triggered = false;
        for (const auto& outcome : event.outcomes) {
          triggered = triggered || outcome.any();
        }

        bool injected = false;
        const auto run = executor.run([&](const SiteRef& ref) -> int {
          if (!injected && ref.segment == segments[s] &&
              ref.gate_index == g) {
            injected = true;
            return static_cast<int>(op);
          }
          return -1;
        });

        if (!triggered) {
          // No branch ran: residuals must be bit-identical.
          EXPECT_EQ(run.data_error.x.to_string(),
                    event.data_error.x.to_string());
          EXPECT_EQ(run.data_error.z.to_string(),
                    event.data_error.z.to_string());
          ++silent;
        } else {
          // A branch ran: the residual must be correctable.
          const auto& state = *protocol.state;
          EXPECT_LE(state.reduced_weight(PauliType::X, run.data_error.x),
                    1u);
          EXPECT_LE(state.reduced_weight(PauliType::Z, run.data_error.z),
                    1u);
          ++corrected;
        }
      }
    }
  }
  EXPECT_EQ(index, events.size());
  EXPECT_GT(silent, 0u);
  EXPECT_GT(corrected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Codes, ExecutorCrossCheck,
                         ::testing::Values("Steane", "Surface_3", "Shor"),
                         [](const ::testing::TestParamInfo<const char*>&
                                info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace ftsp::core
