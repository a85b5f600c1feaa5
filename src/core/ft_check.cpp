#include "core/ft_check.hpp"

#include <sstream>

#include "core/executor.hpp"

namespace ftsp::core {

using qec::PauliType;

FtCheckResult check_fault_tolerance(const Protocol& protocol,
                                    std::size_t max_violations) {
  FtCheckResult result;
  const Executor executor(protocol);
  const qec::StateContext& state = *protocol.state;

  const auto record = [&](const std::string& what) {
    result.ok = false;
    if (result.violations.size() < max_violations) {
      result.violations.push_back(what);
    }
  };

  // Fault-free run: nothing triggers, no residual.
  {
    const auto clean = executor.run([](const SiteRef&) { return -1; });
    if (clean.any_trigger || !clean.data_error.is_identity()) {
      record("fault-free run triggered a verification or left an error");
    }
  }

  // Always-executed segments: prep and each layer's verification.
  for (const Executor::Segment& segment : executor.segments()) {
    if (segment.branch) {
      continue;
    }
    const auto& gates = segment.circuit->gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const std::size_t num_ops =
          sim::num_fault_ops(sim::location_kind(gates[g].kind));
      for (std::size_t op = 0; op < num_ops; ++op) {
        // A run executes each location at most once.
        const auto run = executor.run([&](const SiteRef& ref) -> int {
          const bool here =
              ref.segment == segment.circuit && ref.gate_index == g;
          return here ? static_cast<int>(op) : -1;
        });
        ++result.faults_checked;
        const std::size_t wx =
            state.reduced_weight(PauliType::X, run.data_error.x);
        const std::size_t wz =
            state.reduced_weight(PauliType::Z, run.data_error.z);
        if (wx > 1 || wz > 1) {
          std::ostringstream what;
          what << "fault at gate " << g << " op " << op
               << " of segment with " << segment.circuit->gate_count()
               << " gates leaves residual X:" << run.data_error.x.to_string()
               << " (wt_S " << wx << ") Z:" << run.data_error.z.to_string()
               << " (wt_S " << wz << ")";
          record(what.str());
        }
      }
    }
  }
  return result;
}

namespace {

/// Audit body with the gadget closure precomputed — the per-protocol
/// walk shares one closure across every segment.
std::vector<std::string> coupling_violations_against(
    const circuit::Circuit& circuit, const qec::CouplingMap& map,
    const qec::CouplingMap& gadget, std::size_t num_data) {
  std::vector<std::string> violations;
  // Last data-qubit CNOT partner per ancilla: the ancilla "parks" there
  // between gates, so its next data partner must be a coupled neighbor.
  std::vector<std::size_t> parked(
      circuit.num_qubits() > num_data ? circuit.num_qubits() - num_data : 0,
      SIZE_MAX);
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const auto& gate = circuit.gates()[g];
    if (gate.kind != circuit::GateKind::Cnot) {
      continue;
    }
    const bool data0 = gate.q0 < num_data;
    const bool data1 = gate.q1 < num_data;
    if (data0 && data1) {
      if (!map.allows(gate.q0, gate.q1)) {
        violations.push_back("gate " + std::to_string(g) + ": CNOT " +
                             std::to_string(gate.q0) + "->" +
                             std::to_string(gate.q1) +
                             " on an uncoupled data pair");
      }
      continue;
    }
    if (data0 == data1) {
      continue;  // Ancilla-ancilla (flag) couplings are exempt.
    }
    const std::size_t ancilla = (data0 ? gate.q1 : gate.q0) - num_data;
    const std::size_t data = data0 ? gate.q0 : gate.q1;
    const std::size_t previous = parked[ancilla];
    if (previous != SIZE_MAX && previous != data &&
        !gadget.allows(previous, data)) {
      violations.push_back(
          "gate " + std::to_string(g) + ": ancilla " +
          std::to_string(ancilla + num_data) + " jumps from data qubit " +
          std::to_string(previous) + " to data qubit " +
          std::to_string(data) + " beyond the gadget reach");
    }
    parked[ancilla] = data;
  }
  return violations;
}

}  // namespace

std::vector<std::string> coupling_violations(const circuit::Circuit& circuit,
                                             const qec::CouplingMap& map,
                                             std::size_t num_data,
                                             std::size_t gadget_reach) {
  return coupling_violations_against(circuit, map, map.closure(gadget_reach),
                                     num_data);
}

std::vector<std::string> check_protocol_coupling(
    const Protocol& protocol, const qec::CouplingMap& map,
    std::size_t gadget_reach) {
  const std::size_t n = protocol.num_data_qubits();
  // One closure for the whole protocol — the audit visits prep, both
  // verification layers and every correction branch.
  const qec::CouplingMap gadget = map.closure(gadget_reach);
  std::vector<std::string> violations;
  const auto audit = [&](const std::string& where,
                         const circuit::Circuit& circuit) {
    for (const std::string& violation :
         coupling_violations_against(circuit, map, gadget, n)) {
      violations.push_back(where + ": " + violation);
    }
  };
  audit("prep", protocol.prep);
  int layer_index = 0;
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    ++layer_index;
    if (!layer->has_value()) {
      continue;
    }
    const std::string where = "layer" + std::to_string(layer_index);
    audit(where + " verif", (*layer)->verif);
    for (const auto& [key, branch] : (*layer)->branches) {
      audit(where + " branch " + key.to_string(), branch.circ);
    }
  }
  return violations;
}

}  // namespace ftsp::core
