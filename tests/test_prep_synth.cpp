#include "core/prep_synth.hpp"

#include <gtest/gtest.h>

#include <random>

#include "qec/code_library.hpp"
#include "sim/tableau.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;
using qec::PauliType;

/// Ground-truth check: running the circuit from |0...0> must produce a
/// state stabilized (+1) by every state stabilizer generator.
void expect_prepares_state(const circuit::Circuit& prep,
                           const qec::StateContext& state) {
  sim::Tableau tableau(prep.num_qubits());
  std::mt19937_64 rng(99);
  tableau.run(prep, rng);
  const std::size_t n = state.num_qubits();
  const auto& xgens = state.stabilizer_generators(PauliType::X);
  for (std::size_t i = 0; i < xgens.rows(); ++i) {
    qec::Pauli p(n);
    p.x = xgens.row(i);
    EXPECT_TRUE(tableau.stabilizes(p))
        << "X stabilizer " << i << " not satisfied";
  }
  const auto& zgens = state.stabilizer_generators(PauliType::Z);
  for (std::size_t i = 0; i < zgens.rows(); ++i) {
    qec::Pauli p(n);
    p.z = zgens.row(i);
    EXPECT_TRUE(tableau.stabilizes(p))
        << "Z stabilizer " << i << " not satisfied";
  }
}

class HeuristicPrepAllCodes : public ::testing::TestWithParam<const char*> {};

TEST_P(HeuristicPrepAllCodes, PreparesZeroState) {
  const auto code = qec::library_code_by_name(GetParam());
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_prep(state);
  expect_prepares_state(prep, state);
}

TEST_P(HeuristicPrepAllCodes, PreparesPlusState) {
  const auto code = qec::library_code_by_name(GetParam());
  const qec::StateContext state(code, LogicalBasis::Plus);
  const auto prep = synthesize_prep(state);
  expect_prepares_state(prep, state);
}

TEST_P(HeuristicPrepAllCodes, EveryQubitInitialized) {
  const auto code = qec::library_code_by_name(GetParam());
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_prep(state);
  std::vector<bool> initialized(code.num_qubits(), false);
  for (const auto& g : prep.gates()) {
    if (g.kind == circuit::GateKind::PrepZ ||
        g.kind == circuit::GateKind::PrepX) {
      initialized[g.q0] = true;
    }
  }
  for (std::size_t q = 0; q < code.num_qubits(); ++q) {
    EXPECT_TRUE(initialized[q]) << "qubit " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, HeuristicPrepAllCodes,
    ::testing::Values("Steane", "Shor", "Surface_3", "[[11,1,3]]",
                      "Tetrahedral", "Hamming", "Carbon", "[[16,2,4]]",
                      "Tesseract"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(OptimalPrep, SteaneFindsKnownOptimum) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  PrepSynthOptions options;
  options.method = PrepSynthOptions::Method::Optimal;
  const auto prep = synthesize_prep_optimal(state, options);
  ASSERT_TRUE(prep.has_value());
  expect_prepares_state(*prep, state);
  // The CNOT-optimal Steane |0>_L preparation uses 8 CNOTs (Ref. [22]).
  EXPECT_EQ(prep->cnot_count(), 8u);
}

TEST(OptimalPrep, NeverWorseThanHeuristic) {
  for (const char* name : {"Steane", "Surface_3"}) {
    const auto code = qec::library_code_by_name(name);
    const qec::StateContext state(code, LogicalBasis::Zero);
    const auto heuristic = synthesize_prep(state);
    PrepSynthOptions options;
    options.method = PrepSynthOptions::Method::Optimal;
    const auto optimal = synthesize_prep_optimal(state, options);
    ASSERT_TRUE(optimal.has_value()) << name;
    EXPECT_LE(optimal->cnot_count(), heuristic.cnot_count()) << name;
    expect_prepares_state(*optimal, state);
  }
}

/// The SAT gate-count search (BFS shortcut disabled) finds the same
/// minimal CNOT count as the exact subspace BFS, on states small enough
/// for both; the proof sink's entry shows which path each leg took.
TEST(OptimalPrep, SatPathMatchesBfsOracle) {
  const auto four_two_two = qec::CssCode(
      "[[4,2,2]]", f2::BitMatrix::from_strings({"1111"}),
      f2::BitMatrix::from_strings({"1111"}));
  const auto line = std::make_shared<const qec::CouplingMap>(
      qec::CouplingMap::linear(4));
  const std::pair<qec::CssCode, std::shared_ptr<const qec::CouplingMap>>
      cases[] = {{four_two_two, nullptr},
                 {qec::library_code_by_name("Shor"), nullptr},
                 {four_two_two, line}};
  for (const auto& [code, coupling] : cases) {
    const std::string label =
        code.name() + (coupling != nullptr ? "@linear" : "");
    const qec::StateContext state(code, LogicalBasis::Zero);
    std::optional<circuit::Circuit> preps[2];
    for (const bool bfs : {false, true}) {
      ProofSink sink;
      PrepSynthOptions options;
      options.method = PrepSynthOptions::Method::Optimal;
      options.allow_bfs = bfs;
      options.engine.use_cache = false;
      options.coupling = coupling;
      options.proof_sink = &sink;
      preps[bfs] = synthesize_prep_optimal(state, options);
      ASSERT_TRUE(preps[bfs].has_value()) << label << " bfs=" << bfs;
      ASSERT_EQ(sink.proofs.size(), 1u);
      EXPECT_EQ(sink.proofs[0].absent_reason.find("breadth-first") !=
                    std::string::npos,
                bfs)
          << label << ": " << sink.proofs[0].absent_reason;
    }
    EXPECT_EQ(preps[0]->cnot_count(), preps[1]->cnot_count()) << label;
    expect_prepares_state(*preps[0], state);
  }
}

TEST(OptimalPrep, MethodOptimalFallsBackGracefully) {
  // A tiny budget forces the SAT search to give up; synthesize_prep must
  // still return a correct (heuristic) circuit.
  const auto code = qec::tetrahedral();
  const qec::StateContext state(code, LogicalBasis::Zero);
  PrepSynthOptions options;
  options.method = PrepSynthOptions::Method::Optimal;
  options.sat_conflict_budget = 1;
  options.max_cnots = 6;
  const auto prep = synthesize_prep(state, options);
  expect_prepares_state(prep, state);
}

TEST(HeuristicPrep, ShufflesNeverHurtBaseline) {
  // More shuffle tries can only improve (or match) the CNOT count.
  const auto code = qec::shor();
  const qec::StateContext state(code, LogicalBasis::Zero);
  PrepSynthOptions few;
  few.shuffle_tries = 0;
  PrepSynthOptions many;
  many.shuffle_tries = 64;
  EXPECT_GE(synthesize_prep(state, few).cnot_count(),
            synthesize_prep(state, many).cnot_count());
}

TEST(HeuristicPrep, PlusPivotsMatchXGeneratorRank) {
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_prep(state);
  std::size_t plus_count = 0;
  for (const auto& g : prep.gates()) {
    plus_count += g.kind == circuit::GateKind::PrepX ? 1 : 0;
  }
  EXPECT_EQ(plus_count, code.hx().rows());
}

}  // namespace
}  // namespace ftsp::core
