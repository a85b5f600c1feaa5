// Connectivity-aware synthesis equivalence suite:
//  * the all-to-all CouplingMap reproduces unconstrained synthesis
//    bit-for-bit (identical protocols, identical artifact store keys);
//  * linear/grid maps on Steane and Surface_3 produce protocols whose
//    every CNOT respects the map (coupling audit) and that still pass
//    the exhaustive FT check;
//  * constrained results never alias unconstrained ones in the
//    SynthCache or the artifact key space;
//  * the SAT-prep fallback is surfaced (report + provenance) and is an
//    error under a constrained map.
#include <gtest/gtest.h>

#include <memory>

#include "compile/artifact.hpp"
#include "compile/service.hpp"
#include "core/ft_check.hpp"
#include "core/prep_synth.hpp"
#include "core/protocol.hpp"
#include "core/serialize.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_library.hpp"
#include "qec/coupling.hpp"

namespace ftsp::core {
namespace {

std::shared_ptr<const qec::CouplingMap> builtin_map(const std::string& name,
                                                    std::size_t n) {
  return std::make_shared<const qec::CouplingMap>(
      qec::CouplingMap::builtin(name, n));
}

SynthesisOptions constrained_options(const std::string& map_name,
                                     std::size_t gadget_reach = 0) {
  SynthesisOptions options;
  options.coupling.name = map_name;
  options.coupling.gadget_reach = gadget_reach;
  // Mirrors the CLI: constrained maps force SAT-optimal preparation.
  options.prep.method = PrepSynthOptions::Method::Optimal;
  return options;
}

TEST(CouplingEquivalence, AllToAllReproducesUnconstrainedBitForBit) {
  SynthCache::instance().clear();
  const auto code = qec::steane();
  const Protocol baseline = synthesize_protocol(code, qec::LogicalBasis::Zero);

  // Spec form: the default ("all") spec.
  const Protocol via_spec = synthesize_protocol(
      code, qec::LogicalBasis::Zero, SynthesisOptions{});
  EXPECT_EQ(save_protocol(baseline), save_protocol(via_spec));

  // Explicit structural all-to-all custom map: same code path, same
  // bits, same store key (the key fragment is empty by construction).
  SynthesisOptions explicit_all;
  explicit_all.coupling.name = "device";
  explicit_all.coupling.custom = std::make_shared<const qec::CouplingMap>(
      qec::CouplingMap::all_to_all(code.num_qubits()));
  const Protocol via_map =
      synthesize_protocol(code, qec::LogicalBasis::Zero, explicit_all);
  EXPECT_EQ(save_protocol(baseline), save_protocol(via_map));
  EXPECT_EQ(
      compile::artifact_key(code, qec::LogicalBasis::Zero, SynthesisOptions{}),
      compile::artifact_key(code, qec::LogicalBasis::Zero, explicit_all));
}

TEST(CouplingEquivalence, ConstrainedProtocolsRespectMapAndStayFt) {
  SynthCache::instance().clear();
  for (const char* code_name : {"Steane", "Surface_3"}) {
    const auto code = qec::library_code_by_name(code_name);
    for (const char* map_name : {"linear", "grid"}) {
      SCOPED_TRACE(std::string(code_name) + " on " + map_name);
      const auto options = constrained_options(map_name);
      const Protocol protocol =
          synthesize_protocol(code, qec::LogicalBasis::Zero, options);

      const auto map = builtin_map(map_name, code.num_qubits());
      EXPECT_TRUE(check_protocol_coupling(protocol, *map).empty());
      const auto ft = check_fault_tolerance(protocol);
      EXPECT_TRUE(ft.ok) << (ft.violations.empty()
                                 ? "no violation recorded"
                                 : ft.violations.front());

      // Every data-data CNOT individually lies on a coupled pair.
      for (const auto& gate : protocol.prep.gates()) {
        if (gate.kind == circuit::GateKind::Cnot) {
          EXPECT_TRUE(map->allows(gate.q0, gate.q1))
              << gate.q0 << "->" << gate.q1;
        }
      }
    }
  }
}

TEST(CouplingEquivalence, StrictGadgetReachStaysFtWhereFeasible) {
  SynthCache::instance().clear();
  // Surface_3 on its native 3x3 grid admits the strict coupled-neighbor
  // walk (reach 1); Steane on a chain needs reach 2.
  struct Case {
    const char* code;
    const char* map;
    std::size_t reach;
  };
  for (const Case& c : {Case{"Surface_3", "grid", 1},
                        Case{"Steane", "linear", 2}}) {
    SCOPED_TRACE(std::string(c.code) + " on " + c.map + " reach " +
                 std::to_string(c.reach));
    const auto code = qec::library_code_by_name(c.code);
    const auto options = constrained_options(c.map, c.reach);
    const Protocol protocol =
        synthesize_protocol(code, qec::LogicalBasis::Zero, options);
    const auto map = builtin_map(c.map, code.num_qubits());
    EXPECT_TRUE(check_protocol_coupling(protocol, *map, c.reach).empty());
    EXPECT_TRUE(check_fault_tolerance(protocol).ok);

    // The text format round-trips the walk-ordered gadget CNOTs (both
    // verification and correction branches), so a reloaded protocol is
    // still device-realizable and saves back byte-identically.
    const std::string text = save_protocol(protocol);
    const Protocol reloaded = load_protocol(text);
    EXPECT_TRUE(check_protocol_coupling(reloaded, *map, c.reach).empty());
    EXPECT_EQ(save_protocol(reloaded), text);
  }
}

TEST(CouplingEquivalence, AuditFlagsViolations) {
  const auto grid = qec::CouplingMap::grid(3, 3);
  // Data-data CNOT across the grid diagonal: illegal at any reach.
  circuit::Circuit bad_data(9);
  bad_data.cnot(0, 4);
  EXPECT_FALSE(coupling_violations(bad_data, grid, 9).empty());

  // An ancilla jumping corner to corner: fine with unbounded transport,
  // a violation under the strict walk. (Guards the audit against being
  // vacuous.)
  circuit::Circuit gadget(9);
  const std::size_t ancilla = gadget.add_qubit();
  gadget.prep_z(ancilla);
  gadget.cnot(0, ancilla);
  gadget.cnot(8, ancilla);
  gadget.measure_z(ancilla);
  EXPECT_TRUE(coupling_violations(gadget, grid, 9, 0).empty());
  EXPECT_EQ(coupling_violations(gadget, grid, 9, 1).size(), 1u);
  EXPECT_TRUE(coupling_violations(gadget, grid, 9, 4).empty());
}

TEST(CouplingEquivalence, ConstrainedNeverAliasesUnconstrainedInCache) {
  auto& cache = SynthCache::instance();
  cache.clear();
  const auto code = qec::steane();
  const qec::StateContext state(code, qec::LogicalBasis::Zero);

  // Constrained first, then unconstrained: if the cache keys aliased,
  // the second call would return the 12-CNOT linear circuit.
  PrepSynthOptions constrained;
  constrained.method = PrepSynthOptions::Method::Optimal;
  constrained.coupling = builtin_map("linear", code.num_qubits());
  const auto linear_prep = synthesize_prep_optimal(state, constrained);
  ASSERT_TRUE(linear_prep.has_value());

  PrepSynthOptions unconstrained;
  unconstrained.method = PrepSynthOptions::Method::Optimal;
  const auto free_prep = synthesize_prep_optimal(state, unconstrained);
  ASSERT_TRUE(free_prep.has_value());

  EXPECT_LT(free_prep->cnot_count(), linear_prep->cnot_count());
  for (const auto& gate : linear_prep->gates()) {
    if (gate.kind == circuit::GateKind::Cnot) {
      EXPECT_TRUE(constrained.coupling->allows(gate.q0, gate.q1));
    }
  }
}

TEST(CouplingEquivalence, ArtifactKeysSeparateDevices) {
  const auto code = qec::steane();
  const auto all_key = compile::artifact_key(code, qec::LogicalBasis::Zero,
                                             SynthesisOptions{});
  const auto linear_options = constrained_options("linear");
  const auto linear_key =
      compile::artifact_key(code, qec::LogicalBasis::Zero, linear_options);
  const auto strict_options = constrained_options("linear", 2);
  const auto strict_key =
      compile::artifact_key(code, qec::LogicalBasis::Zero, strict_options);

  EXPECT_NE(all_key, linear_key);
  EXPECT_NE(linear_key, strict_key);
  // The coupled key is the unconstrained key of the same options plus
  // exactly the coupling fragment ("differ only by the fingerprint").
  SynthesisOptions same_but_free = linear_options;
  same_but_free.coupling = {};
  const auto free_key =
      compile::artifact_key(code, qec::LogicalBasis::Zero, same_but_free);
  EXPECT_EQ(linear_key,
            free_key + linear_options.coupling.key_fragment(
                           code.num_qubits()));
}

TEST(CouplingEquivalence, HeuristicInfeasibleUnderMapThrows) {
  const auto code = qec::steane();
  const qec::StateContext state(code, qec::LogicalBasis::Zero);
  PrepSynthOptions options;  // Heuristic by default.
  options.coupling = builtin_map("linear", code.num_qubits());
  EXPECT_THROW((void)synthesize_prep(state, options), std::runtime_error);
}

TEST(CouplingEquivalence, ExhaustedSatSearchRefusesFallbackUnderMap) {
  SynthCache::instance().clear();
  const auto code = qec::steane();
  const qec::StateContext state(code, qec::LogicalBasis::Zero);
  PrepSynthOptions options;
  options.method = PrepSynthOptions::Method::Optimal;
  options.coupling = builtin_map("linear", code.num_qubits());
  options.allow_bfs = false;  // Force the SAT path.
  options.max_cnots = 3;      // Below any feasible count: search exhausts.
  EXPECT_THROW((void)synthesize_prep(state, options), std::runtime_error);
}

TEST(CouplingEquivalence, FallbackIsReportedAndLandsInProvenance) {
  SynthCache::instance().clear();
  const auto code = qec::steane();
  const qec::StateContext state(code, qec::LogicalBasis::Zero);

  // Unconstrained: the exhausted SAT search falls back to the heuristic
  // and says so in the report.
  PrepSynthReport report;
  PrepSynthOptions options;
  options.method = PrepSynthOptions::Method::Optimal;
  options.allow_bfs = false;
  options.max_cnots = 3;
  options.report = &report;
  const auto circuit = synthesize_prep(state, options);
  EXPECT_GT(circuit.cnot_count(), options.max_cnots);
  EXPECT_TRUE(report.heuristic_fallback);

  // And through the compiler it becomes artifact provenance, surviving
  // the encode/decode round trip.
  SynthesisOptions synth;
  synth.prep.method = PrepSynthOptions::Method::Optimal;
  synth.prep.allow_bfs = false;
  synth.prep.max_cnots = 3;
  const compile::ProtocolCompiler compiler(synth);
  const auto artifact = compiler.compile(code);
  EXPECT_TRUE(artifact.provenance.prep_fallback);
  const auto reloaded =
      compile::decode_artifact(compile::encode_artifact(artifact));
  EXPECT_TRUE(reloaded.provenance.prep_fallback);

  // A clean SAT-optimal compile reports no fallback.
  SynthesisOptions clean;
  clean.prep.method = PrepSynthOptions::Method::Optimal;
  const auto good = compile::ProtocolCompiler(clean).compile(code);
  EXPECT_FALSE(good.provenance.prep_fallback);
}

TEST(CouplingEquivalence, DeviceArtifactsRoundTripAndServeSideBySide) {
  SynthCache::instance().clear();
  const auto code = qec::steane();

  const compile::ProtocolCompiler all_compiler{SynthesisOptions{}};
  const compile::ProtocolCompiler linear_compiler{
      constrained_options("linear")};
  auto all_artifact = all_compiler.compile(code);
  auto linear_artifact = linear_compiler.compile(code);

  EXPECT_EQ(all_artifact.coupling, nullptr);
  ASSERT_NE(linear_artifact.coupling, nullptr);
  EXPECT_EQ(linear_artifact.coupling->name(), "linear");

  // The coupling section round-trips: same structure, same reach.
  const auto reloaded = compile::decode_artifact(
      compile::encode_artifact(linear_artifact));
  ASSERT_NE(reloaded.coupling, nullptr);
  EXPECT_EQ(reloaded.coupling->fingerprint(),
            linear_artifact.coupling->fingerprint());
  EXPECT_EQ(reloaded.coupling->name(), "linear");
  EXPECT_EQ(reloaded.gadget_reach, linear_artifact.gadget_reach);
  EXPECT_EQ(reloaded.key, linear_artifact.key);

  // All-to-all artifacts have no coupling section and decode with a
  // null map — the same shape legacy (pre-coupling) files decode to.
  const auto legacy_shaped =
      compile::decode_artifact(compile::encode_artifact(all_artifact));
  EXPECT_EQ(legacy_shaped.coupling, nullptr);
  EXPECT_EQ(legacy_shaped.gadget_reach, 0u);

  // Both serve side by side under distinct names.
  compile::ProtocolService service;
  service.add(std::move(all_artifact));
  service.add(std::move(linear_artifact));
  const auto names = service.code_names();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_NE(service.handle_request(R"({"op":"info","code":"Steane"})")
                .find("\"coupling\":\"all\""),
            std::string::npos);
  const auto info =
      service.handle_request(R"({"op":"info","code":"Steane@linear"})");
  EXPECT_NE(info.find("\"coupling\":\"linear\""), std::string::npos);
  EXPECT_NE(info.find("coupling_fingerprint"), std::string::npos);
}

}  // namespace
}  // namespace ftsp::core
