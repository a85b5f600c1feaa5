#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ftsp::sim {
namespace {

using circuit::Circuit;

/// Number of fault operators at the location after `gate`.
std::size_t ops_after(const circuit::Gate& gate) {
  return num_fault_ops(location_kind(gate.kind));
}

TEST(Faults, OneLocationPerGate) {
  Circuit c(3);
  c.prep_z(0);
  c.h(1);
  c.cnot(0, 2);
  c.measure_z(2);
  const std::size_t expected[] = {1, 3, 15, 1};
  ASSERT_EQ(c.gates().size(), 4u);
  for (std::size_t i = 0; i < c.gates().size(); ++i) {
    EXPECT_EQ(ops_after(c.gates()[i]), expected[i]) << "gate " << i;
  }
}

TEST(Faults, CnotHasFifteenOps) {
  Circuit c(2);
  c.cnot(0, 1);
  EXPECT_EQ(ops_after(c.gates()[0]), 15u);
  // All distinct and none the identity.
  for (std::size_t i = 0; i < ops_after(c.gates()[0]); ++i) {
    const FaultOp op = fault_op(c.gates()[0], i);
    EXPECT_FALSE(op.flip_outcome);
    EXPECT_GE(op.num_terms, 1);
  }
}

TEST(Faults, HadamardHasThreePaulis) {
  Circuit c(1);
  c.h(0);
  EXPECT_EQ(ops_after(c.gates()[0]), 3u);
}

TEST(Faults, PrepFaultFlipsPreparedBasis) {
  Circuit c(2);
  c.prep_z(0);
  c.prep_x(1);
  ASSERT_EQ(ops_after(c.gates()[0]), 1u);
  EXPECT_TRUE(fault_op(c.gates()[0], 0).terms[0].x);   // |1> instead of |0>.
  EXPECT_FALSE(fault_op(c.gates()[0], 0).terms[0].z);
  ASSERT_EQ(ops_after(c.gates()[1]), 1u);
  EXPECT_TRUE(fault_op(c.gates()[1], 0).terms[0].z);   // |-> instead of |+>.
  EXPECT_FALSE(fault_op(c.gates()[1], 0).terms[0].x);
}

TEST(Faults, MeasurementFaultFlipsOutcomeOnly) {
  Circuit c(1);
  c.measure_z(0);
  ASSERT_EQ(ops_after(c.gates()[0]), 1u);
  const FaultOp op = fault_op(c.gates()[0], 0);
  EXPECT_TRUE(op.flip_outcome);
  EXPECT_EQ(op.num_terms, 0);

  PauliFrame frame(c);
  apply_gate(frame, c.gates()[0]);
  apply_fault(frame, op, c.gates()[0]);
  EXPECT_TRUE(frame.outcomes[0]);
  EXPECT_TRUE(frame.error.is_identity());
}

TEST(Faults, ApplyTwoQubitFault) {
  Circuit c(2);
  c.cnot(0, 1);
  PauliFrame frame(c);
  FaultOp op;
  op.terms[0] = {0, true, false};
  op.terms[1] = {1, false, true};
  op.num_terms = 2;
  apply_fault(frame, op, c.gates()[0]);
  EXPECT_TRUE(frame.error.x.get(0));
  EXPECT_TRUE(frame.error.z.get(1));
}

TEST(Faults, CnotOpsCoverAllPairs) {
  Circuit c(2);
  c.cnot(0, 1);
  // Count single-qubit vs two-qubit fault operators: 3 + 3 + 9 = 15.
  std::size_t singles = 0;
  std::size_t doubles = 0;
  for (std::size_t i = 0; i < ops_after(c.gates()[0]); ++i) {
    const FaultOp op = fault_op(c.gates()[0], i);
    if (op.num_terms == 1) {
      ++singles;
    } else if (op.num_terms == 2) {
      ++doubles;
    }
  }
  EXPECT_EQ(singles, 6u);
  EXPECT_EQ(doubles, 9u);
}

TEST(Faults, RunCircuitCarriesTheDataErrorThroughAndBack) {
  // Two data qubits and one ancilla that measures Z0 Z1.
  Circuit c(3);
  c.prep_z(2);
  c.cnot(0, 2);
  c.cnot(1, 2);
  c.measure_z(2);
  qec::Pauli data(2);
  data.x.set(0);
  std::vector<std::size_t> asked;
  // Fault at gate 2 (CNOT 1 -> 2), op 4: k = 5, X on both qubits.
  const f2::BitVec flips = run_circuit(c, data, [&](std::size_t g) {
    asked.push_back(g);
    return g == 2 ? 4 : -1;
  });
  EXPECT_EQ(asked, (std::vector<std::size_t>{0, 1, 2, 3}));
  // X0 and the fault's X on the ancilla cancel in the outcome.
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_FALSE(flips.get(0));
  EXPECT_TRUE(data.x.get(0));
  EXPECT_TRUE(data.x.get(1));
  EXPECT_TRUE(data.z.none());
}

}  // namespace
}  // namespace ftsp::sim
