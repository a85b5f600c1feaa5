#include "core/protocol.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <unordered_set>

#include "core/ft_check.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"

namespace ftsp::core {

using circuit::Circuit;
using f2::BitVec;
using qec::PauliType;
using qec::StateContext;

namespace {

/// Wall-clock + trace-span coverage of one synthesis stage: a labeled
/// series of `compile.stage.duration_us` plus a nested trace span.
/// Observation-only — the SAT search never sees these.
class StageObs {
 public:
  explicit StageObs(const char* stage)
      : span_(std::string("compile.") + stage),
        timer_(obs::Registry::instance().histogram(
            obs::labeled("compile.stage.duration_us", "stage", stage))) {}

 private:
  obs::TraceSpan span_;
  obs::ScopedTimer timer_;
};

/// Number of hook suffixes of the given CNOT order that are dangerous.
/// Only cuts 1..w-2 matter for flag decisions (the last cut is a single
/// qubit), but any dangerous suffix forces protection.
std::size_t dangerous_hook_count(const StateContext& state,
                                 PauliType measured_type,
                                 const std::vector<std::size_t>& order) {
  std::size_t count = 0;
  for (std::size_t cut = 1; cut + 1 < order.size(); ++cut) {
    BitVec suffix(state.num_qubits());
    for (std::size_t i = cut; i < order.size(); ++i) {
      suffix.set(order[i]);
    }
    if (state.is_dangerous(measured_type, suffix)) {
      ++count;
    }
  }
  return count;
}

/// Picks a CNOT order for the measurement of `support`: the plain
/// ascending order, or — when order optimization is on — a searched order
/// minimizing the number of dangerous hooks (ideally zero, which removes
/// the need for a flag qubit). Under a constrained coupling map every
/// candidate order is an ancilla walk of the support (a Hamiltonian path
/// of the induced subgraph — the movable-ancilla realizability
/// contract); a walkless support throws, which only an invalid override
/// can produce — synthesis never selects one.
std::vector<std::size_t> choose_measurement_order(
    const StateContext& state, PauliType measured_type,
    const BitVec& support, const SynthesisOptions& options,
    const qec::CouplingMap* map) {
  const bool constrained = qec::coupling_constrained(map);
  std::vector<std::size_t> best =
      constrained ? map->walk_order(support) : support.ones();
  if (!options.optimize_measurement_order || best.size() < 3) {
    return best;
  }
  std::size_t best_count =
      dangerous_hook_count(state, measured_type, best);
  if (best_count == 0) {
    return best;
  }
  std::vector<std::vector<std::size_t>> candidates;
  std::mt19937_64 rng(support.hash());
  if (constrained) {
    const auto starts = support.ones();
    for (std::size_t start : starts) {
      // walk_order already searched the starts up to best.front()
      // (earlier ones admit no walk, best IS the walk from its own
      // start), so only later starts can contribute new candidates.
      if (start <= best.front()) {
        continue;
      }
      candidates.push_back(map->walk_order_from(support, start, nullptr));
    }
    for (std::size_t t = 0; t < kOrderSearchTries; ++t) {
      candidates.push_back(map->walk_order_from(
          support, starts[rng() % starts.size()], &rng));
    }
  } else {
    candidates.emplace_back(best.rbegin(), best.rend());
    for (std::size_t rot = 1; rot < best.size(); ++rot) {
      auto rotated = best;
      std::rotate(rotated.begin(), rotated.begin() + rot, rotated.end());
      candidates.push_back(std::move(rotated));
    }
    for (std::size_t t = 0; t < kOrderSearchTries; ++t) {
      auto shuffled = best;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      candidates.push_back(std::move(shuffled));
    }
  }
  for (auto& candidate : candidates) {
    if (candidate.empty()) {
      continue;  // A stuck walk (cannot happen for connected supports).
    }
    const std::size_t count =
        dangerous_hook_count(state, measured_type, candidate);
    if (count < best_count) {
      best_count = count;
      best = std::move(candidate);
      if (best_count == 0) {
        break;
      }
    }
  }
  return best;
}

CompiledLayer build_layer(const StateContext& state, PauliType error_type,
                          VerificationSet verification, bool final_layer,
                          const SynthesisOptions& options,
                          const qec::CouplingMap* map) {
  CompiledLayer layer;
  layer.error_type = error_type;
  layer.verification = std::move(verification);
  layer.verif = Circuit(state.num_qubits());
  const PauliType measured_type = other(error_type);

  for (const BitVec& support : layer.verification.stabilizers) {
    // Hook errors of this measurement are of the measured type; flag the
    // gadget if any is dangerous (possibly after reordering the CNOTs to
    // render all hooks harmless), unless layer-1 hooks are deferred to
    // the second layer (the final layer must always flag).
    const auto order =
        choose_measurement_order(state, measured_type, support, options, map);
    const bool has_dangerous_hook =
        dangerous_hook_count(state, measured_type, order) > 0;
    const bool flag =
        has_dangerous_hook &&
        (final_layer || options.flag_policy == FlagPolicy::FlagDangerous);
    layer.gadgets.push_back(circuit::append_stabilizer_measurement(
        layer.verif, support, measured_type, flag, order));
  }

  layer.flag_mask = BitVec(layer.verif.num_cbits());
  for (const auto& gadget : layer.gadgets) {
    if (gadget.flagged) {
      layer.flag_mask.set(static_cast<std::size_t>(gadget.flag_bit));
    }
  }
  return layer;
}

/// Groups events on the layer's outcome vector and synthesizes one
/// correction branch per non-trivial class. `skip` filters events that
/// cannot reach this layer (hook-terminated earlier).
template <typename SkipFn>
void build_branches(const StateContext& state, CompiledLayer& layer,
                    const std::vector<FaultEvent>& events,
                    std::size_t segment_index, const SynthesisOptions& options,
                    const qec::CouplingMap* map,
                    const std::string& label_prefix, SkipFn&& skip) {
  std::map<BitVec, std::vector<const FaultEvent*>, f2::BitVecLexLess> classes;
  for (const FaultEvent& e : events) {
    if (skip(e)) {
      continue;
    }
    const BitVec& key = e.outcomes[segment_index];
    if (key.none()) {
      continue;
    }
    classes[key].push_back(&e);
  }

  for (const auto& [key, members] : classes) {
    const bool hook = (key & layer.flag_mask).any();
    const PauliType corrected =
        hook ? other(layer.error_type) : layer.error_type;
    std::vector<BitVec> errors;
    errors.reserve(members.size());
    for (const FaultEvent* e : members) {
      errors.push_back(e->data_error.part(corrected));
    }
    CorrectionSynthOptions corr_options = options.correction;
    if (corr_options.proof_sink != nullptr) {
      // One proof stage per correction class, keyed by its outcome vector.
      corr_options.proof_label = label_prefix + "." + key.to_string();
    }
    auto plan = synthesize_correction(state, corrected, errors, corr_options);
    if (!plan.has_value()) {
      throw std::runtime_error(
          "synthesize_protocol: correction synthesis failed for class " +
          key.to_string());
    }
    CompiledBranch branch;
    branch.plan = *std::move(plan);
    branch.corrected_type = corrected;
    branch.is_hook_branch = hook;
    branch.circ = Circuit(state.num_qubits());
    for (const BitVec& support : branch.plan.measurements) {
      // Correction measurements never run under a single fault, so no
      // order search is needed — but under a constrained map the gadget
      // still has to walk coupled data sites.
      std::vector<std::size_t> order;
      if (qec::coupling_constrained(map)) {
        order = map->walk_order(support);
      }
      circuit::append_stabilizer_measurement(branch.circ, support,
                                             other(corrected),
                                             /*flagged=*/false,
                                             std::move(order));
    }
    layer.branches.emplace(key, std::move(branch));
  }
}

}  // namespace

std::vector<BitVec> dangerous_errors(const StateContext& state, PauliType t,
                                     const std::vector<FaultEvent>& events) {
  std::vector<BitVec> dangerous;
  std::unordered_set<std::string> seen;
  for (const FaultEvent& e : events) {
    const BitVec& part = e.data_error.part(t);
    if (!state.is_dangerous(t, part)) {
      continue;
    }
    if (seen.insert(state.coset_key(t, part).to_string()).second) {
      dangerous.push_back(part);
    }
  }
  return dangerous;
}

std::vector<FaultEvent> enumerate_single_fault_events(
    std::size_t num_data, const std::vector<const Circuit*>& segments) {
  std::vector<FaultEvent> events;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto& gates = segments[s]->gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const std::size_t num_ops =
          sim::num_fault_ops(sim::location_kind(gates[g].kind));
      for (std::size_t op = 0; op < num_ops; ++op) {
        // Propagate the single fault (s, g, op) through every segment.
        FaultEvent& event = events.emplace_back();
        event.data_error = qec::Pauli(num_data);
        for (std::size_t t = 0; t < segments.size(); ++t) {
          event.outcomes.push_back(sim::run_circuit(
              *segments[t], event.data_error, [&](std::size_t i) {
                return t == s && i == g ? static_cast<int>(op) : -1;
              }));
        }
      }
    }
  }
  return events;
}

std::shared_ptr<const qec::CouplingMap> resolve_coupling(
    SynthesisOptions& options, std::size_t n) {
  auto map = options.coupling.resolve(n);
  if (map != nullptr) {
    // Data-data CNOTs (prep) obey the raw map; the gadget layer
    // (verification/correction measurement selection and ordering) obeys
    // its reach closure — null when the closure is unconstraining.
    options.prep.coupling = map;
    const auto gadget = options.coupling.resolve_gadget(n);
    options.verification.coupling = gadget;
    options.correction.coupling = gadget;
  } else if (qec::coupling_constrained(options.verification.coupling)) {
    // Sub-options were populated directly (tests, power users); the
    // gadget-order stage uses that map too.
    map = options.verification.coupling;
  }
  return map;
}

Protocol synthesize_protocol(const qec::CssCode& code,
                             qec::LogicalBasis basis,
                             const SynthesisOptions& options_in,
                             const SynthesisOverrides& overrides) {
  Protocol protocol;
  protocol.code = std::make_shared<const qec::CssCode>(code);
  protocol.state =
      std::make_shared<const StateContext>(*protocol.code, basis);
  protocol.basis = basis;
  const StateContext& state = *protocol.state;
  const std::size_t n = code.num_qubits();

  SynthesisOptions options = options_in;
  const auto coupling = resolve_coupling(options, n);
  // Gadget CNOT ordering follows the gadget-layer constraint graph (the
  // reach closure; see resolve_coupling), not the raw data map.
  const qec::CouplingMap* map = options.verification.coupling.get();

  // Proof-carrying synthesis: one shared sink, per-stage labels set just
  // before each sub-stage call (on this local options copy only).
  ProofSink* const sink = options.proof_sink;
  if (sink != nullptr) {
    options.prep.proof_sink = sink;
    options.prep.proof_label = "prep";
    options.verification.proof_sink = sink;
    options.correction.proof_sink = sink;
  }

  if (sink != nullptr && overrides.prep.has_value()) {
    sink->record_absent("prep", "CNOT-minimal preparation circuit",
                        "caller-supplied override; optimality unproven");
  }
  {
    const StageObs stage_obs("prep");
    protocol.prep = overrides.prep.has_value()
                        ? *overrides.prep
                        : synthesize_prep(state, options.prep);
  }
  if (overrides.prep.has_value() &&
      qec::coupling_constrained(coupling)) {
    // A caller-supplied preparation circuit must honor the map too —
    // an illegal override fails loud instead of poisoning the artifact.
    const auto violations = coupling_violations(protocol.prep, *coupling, n);
    if (!violations.empty()) {
      throw std::runtime_error(
          "synthesize_protocol: prep override violates coupling map '" +
          coupling->name() + "': " + violations.front());
    }
  }

  // |0>_L is built from |+> sources spreading X errors, so the first layer
  // verifies X; mirrored for |+>_L.
  const PauliType t1 =
      basis == qec::LogicalBasis::Zero ? PauliType::X : PauliType::Z;
  const PauliType t2 = other(t1);

  // ---- Layer 1: verification of t1 errors from the preparation. ----
  const auto prep_events = enumerate_single_fault_events(n, {&protocol.prep});
  const auto dangerous1 = dangerous_errors(state, t1, prep_events);

  std::vector<const Circuit*> segments = {&protocol.prep};
  std::vector<FaultEvent> events_through_l1 = prep_events;

  if (!dangerous1.empty()) {
    VerificationSet v1;
    if (overrides.layer1_verification.has_value()) {
      if (sink != nullptr) {
        sink->record_absent("verif.L1", "optimal verification set",
                            "caller-supplied override; optimality unproven");
      }
      v1 = *overrides.layer1_verification;
    } else {
      const StageObs stage_obs("verif.L1");
      options.verification.proof_label = "verif.L1";
      auto synthesized = synthesize_verification(
          state.detector_generators(t1), dangerous1, options.verification);
      if (!synthesized.has_value()) {
        throw std::runtime_error(
            "synthesize_protocol: no verification found for layer 1");
      }
      v1 = *std::move(synthesized);
    }
    protocol.layer1 =
        build_layer(state, t1, std::move(v1), /*final_layer=*/false,
                    options, map);
    segments.push_back(&protocol.layer1->verif);
    events_through_l1 = enumerate_single_fault_events(n, segments);
    const StageObs stage_obs("corr.L1");
    build_branches(state, *protocol.layer1, events_through_l1,
                   /*segment_index=*/1, options, map, "corr.L1",
                   [](const FaultEvent&) { return false; });
  }

  // An event is hook-terminated iff a layer-1 flag fired.
  const auto hook_terminated = [&](const FaultEvent& e) {
    if (!protocol.layer1.has_value()) {
      return false;
    }
    return (e.outcomes[1] & protocol.layer1->flag_mask).any();
  };

  // ---- Layer 2: verification of t2 errors surviving layer 1. ----
  std::vector<BitVec> dangerous2;
  {
    std::vector<FaultEvent> surviving;
    for (const FaultEvent& e : events_through_l1) {
      if (!hook_terminated(e)) {
        surviving.push_back(e);
      }
    }
    dangerous2 = dangerous_errors(state, t2, surviving);
  }

  if (!dangerous2.empty()) {
    VerificationSet v2;
    if (overrides.layer2_verification.has_value()) {
      if (sink != nullptr) {
        sink->record_absent("verif.L2", "optimal verification set",
                            "caller-supplied override; optimality unproven");
      }
      v2 = *overrides.layer2_verification;
    } else {
      const StageObs stage_obs("verif.L2");
      options.verification.proof_label = "verif.L2";
      auto synthesized = synthesize_verification(
          state.detector_generators(t2), dangerous2, options.verification);
      if (!synthesized.has_value()) {
        throw std::runtime_error(
            "synthesize_protocol: no verification found for layer 2");
      }
      v2 = *std::move(synthesized);
    }
    // The final layer must flag its own dangerous hooks.
    protocol.layer2 = build_layer(state, t2, std::move(v2),
                                  /*final_layer=*/true, options, map);
    segments.push_back(&protocol.layer2->verif);
    const auto events_through_l2 = enumerate_single_fault_events(n, segments);
    const StageObs stage_obs("corr.L2");
    build_branches(state, *protocol.layer2, events_through_l2,
                   /*segment_index=*/segments.size() - 1, options, map,
                   "corr.L2", hook_terminated);
  }

  return protocol;
}

}  // namespace ftsp::core
