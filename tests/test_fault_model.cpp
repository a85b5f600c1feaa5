// Pins of the fault model and of the engines that walk it: the fault
// operator behind each (gate kind, op index), the FT checker's fault
// count per library code, the exact leading-order coefficients, and
// seeded results of the scalar engines (the non-deterministic baseline,
// the measurement-based preparation and the two-fault survey). The op
// index is part of every sampling function, so a renumbered fault model
// shows here first.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/executor.hpp"
#include "core/ft_check.hpp"
#include "core/measure_prep.hpp"
#include "core/nondet.hpp"
#include "qec/code_library.hpp"
#include "sim/faults.hpp"
#include "sim/pauli_frame.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;

/// Number of fault operators at the location after the circuit's only
/// gate.
std::size_t ops_after(const circuit::Circuit& c) {
  return sim::num_fault_ops(sim::location_kind(c.gates()[0].kind));
}

/// Fault operator `i` at the location after the circuit's only gate.
sim::FaultOp op_after(const circuit::Circuit& c, std::size_t i) {
  return sim::fault_op(c.gates()[0], i);
}

char pauli_at(const sim::PauliFrame& frame, std::size_t q) {
  const bool x = frame.error.x.get(q);
  const bool z = frame.error.z.get(q);
  return x ? (z ? 'Y' : 'X') : (z ? 'Z' : 'I');
}

/// Every fault operator of the circuit's only gate, applied to a clean
/// frame: the Pauli on q0 (and q1 for a CNOT), then "!" for an outcome
/// flip, and "." for an untouched qubit outside the gate.
std::vector<std::string> op_table(const circuit::Circuit& c) {
  const circuit::Gate& gate = c.gates()[0];
  std::vector<std::string> table;
  for (std::size_t i = 0; i < ops_after(c); ++i) {
    sim::PauliFrame frame(c);
    sim::apply_fault(frame, op_after(c, i), gate);
    std::string entry(1, pauli_at(frame, gate.q0));
    if (gate.is_two_qubit()) {
      entry += pauli_at(frame, gate.q1);
    }
    for (std::size_t q = 0; q < c.num_qubits(); ++q) {
      if (q != gate.q0 && !(gate.is_two_qubit() && q == gate.q1) &&
          pauli_at(frame, q) != 'I') {
        entry += '.';
      }
    }
    if (gate.is_measurement() &&
        frame.outcomes[static_cast<std::size_t>(gate.cbit)]) {
      entry += '!';
    }
    table.push_back(entry);
  }
  return table;
}

TEST(FaultModel, OperatorTableIsPinnedPerGateKind) {
  // Control on qubit 2, target on qubit 0: the table speaks of q0/q1,
  // not of qubit order. Op i encodes k = i + 1 as (q0 Pauli k >> 2,
  // q1 Pauli k & 3) with bit 0 = X and bit 1 = Z.
  circuit::Circuit cnot(3);
  cnot.cnot(2, 0);
  EXPECT_EQ(op_table(cnot),
            (std::vector<std::string>{"IX", "IZ", "IY", "XI", "XX", "XZ",
                                      "XY", "ZI", "ZX", "ZZ", "ZY", "YI",
                                      "YX", "YZ", "YY"}));

  circuit::Circuit h(2);
  h.h(1);
  EXPECT_EQ(op_table(h), (std::vector<std::string>{"X", "Y", "Z"}));

  circuit::Circuit prep_z(1);
  prep_z.prep_z(0);
  EXPECT_EQ(op_table(prep_z), (std::vector<std::string>{"X"}));

  circuit::Circuit prep_x(1);
  prep_x.prep_x(0);
  EXPECT_EQ(op_table(prep_x), (std::vector<std::string>{"Z"}));

  circuit::Circuit meas_z(1);
  meas_z.measure_z(0);
  EXPECT_EQ(op_table(meas_z), (std::vector<std::string>{"I!"}));

  circuit::Circuit meas_x(1);
  meas_x.measure_x(0);
  EXPECT_EQ(op_table(meas_x), (std::vector<std::string>{"I!"}));
}

TEST(FaultModel, FaultsCheckedPerLibraryCode) {
  // The |0> protocol of each library code, as `ftsp_cli check` reports.
  const std::vector<std::pair<std::string, std::size_t>> expected = {
      {"Steane", 174},      {"Shor", 176},        {"Surface_3", 176},
      {"[[11,1,3]]", 424},  {"Tetrahedral", 439}, {"Hamming", 439},
      {"Carbon", 564},      {"[[16,2,4]]", 639},  {"Tesseract", 733}};
  const auto codes = qec::all_library_codes();
  ASSERT_EQ(codes.size(), expected.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(codes[i].name(), expected[i].first);
    const Protocol protocol =
        synthesize_protocol(codes[i], LogicalBasis::Zero);
    const FtCheckResult check = check_fault_tolerance(protocol);
    EXPECT_TRUE(check.ok) << expected[i].first;
    EXPECT_EQ(check.faults_checked, expected[i].second) << expected[i].first;
  }
}

struct PinnedLeadingOrder {
  const char* code;
  std::size_t pairs_enumerated;
  double c2;
  double c2_any;
};

TEST(FaultModel, ExactLeadingOrderIsPinned) {
  const PinnedLeadingOrder pins[] = {
      {"Steane", 13896, 0x1.4199999999aa8p+5, 0x1.9a4fa4fa4fbd8p+6},
      {"Carbon", 154986, 0x1.3f71c71c71325p+8, 0x1.de3a98764f505p+9},
  };
  for (const PinnedLeadingOrder& pin : pins) {
    const Protocol protocol = synthesize_protocol(
        qec::library_code_by_name(pin.code), LogicalBasis::Zero);
    const Executor executor(protocol);
    const decoder::PerfectDecoder decoder(*protocol.code);
    const LeadingOrder order = exact_leading_order(executor, decoder);
    EXPECT_EQ(order.single_fault_failures, 0u) << pin.code;
    EXPECT_EQ(order.pairs_enumerated, pin.pairs_enumerated) << pin.code;
    EXPECT_EQ(order.c2, pin.c2) << pin.code;
    EXPECT_EQ(order.c2_any, pin.c2_any) << pin.code;
  }
}

class SeededEngines : public ::testing::Test {
 protected:
  void SetUp() override {
    protocol_ = synthesize_protocol(qec::steane(), LogicalBasis::Zero);
    decoder_ = std::make_unique<decoder::PerfectDecoder>(*protocol_.code);
  }
  Protocol protocol_;
  std::unique_ptr<decoder::PerfectDecoder> decoder_;
};

TEST_F(SeededEngines, NonDetIsPinned) {
  const NonDetStats stats =
      sample_nondet(protocol_, *decoder_, 0.05, 4000, 11);
  EXPECT_EQ(stats.accepted, 2780u);
  EXPECT_EQ(stats.logical_error_rate, 143.0 / 2780.0);
}

TEST_F(SeededEngines, MeasurePrepIsPinned) {
  const qec::StateContext& state = *protocol_.state;
  const MeasurementBasedPrep prep = synthesize_measure_prep(state);
  const MeasurePrepStats stats =
      sample_measure_prep(prep, state, *decoder_, 0.02, 4000, 13);
  EXPECT_EQ(stats.logical_error_rate, 232.0 / 4000.0);
}

TEST_F(SeededEngines, TwoFaultSurveyIsPinned) {
  const Executor executor(protocol_);
  const TwoFaultSurvey survey = survey_two_faults(executor, 1, 3000, 17);
  EXPECT_EQ(survey.pairs_checked, 3000u);
  EXPECT_EQ(survey.weight_violations, 630u);
  EXPECT_EQ(survey.logical_class_residuals, 1756u);
}

}  // namespace
}  // namespace ftsp::core
