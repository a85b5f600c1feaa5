#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gadgets.hpp"
#include "core/correction.hpp"
#include "core/prep_synth.hpp"
#include "core/verification.hpp"
#include "f2/bit_vec.hpp"
#include "qec/css_code.hpp"
#include "qec/state_context.hpp"

namespace ftsp::core {

/// A compiled conditional correction branch: executed when its layer's
/// verification outcomes match the branch key.
struct CompiledBranch {
  /// The synthesized plan (measurement supports + recovery map).
  CorrectionPlan plan;
  /// Pauli type of the errors this branch corrects (recovery type).
  qec::PauliType corrected_type = qec::PauliType::X;
  /// Measurement circuit over n data qubits + its own ancillas; classical
  /// bit i is the outcome of plan.measurements[i].
  circuit::Circuit circ{0};
  /// True if this branch is entered on a flag event; the protocol
  /// terminates after it (Fig. 3 step (e)).
  bool is_hook_branch = false;
};

/// One verification + correction layer of the protocol (Fig. 3 (b)-(e)).
struct CompiledLayer {
  /// The error type this layer verifies and corrects (X for the first
  /// layer of a |0>_L preparation).
  qec::PauliType error_type = qec::PauliType::X;
  /// The synthesized verification measurements.
  VerificationSet verification;
  /// Gadget bookkeeping per measurement (ancillas, flags, bit indices).
  std::vector<circuit::GadgetLayout> gadgets;
  /// The always-executed verification circuit (n data + ancillas).
  circuit::Circuit verif{0};
  /// Classical bits of `verif` that are flag readouts.
  f2::BitVec flag_mask;
  /// Correction branches keyed by the full outcome vector (syndrome and
  /// flag bits) of `verif`. The all-zero key has no branch.
  std::map<f2::BitVec, CompiledBranch, f2::BitVecLexLess> branches;
};

/// A complete deterministic fault-tolerant state preparation protocol.
struct Protocol {
  std::shared_ptr<const qec::CssCode> code;
  std::shared_ptr<const qec::StateContext> state;
  qec::LogicalBasis basis = qec::LogicalBasis::Zero;
  circuit::Circuit prep{0};
  std::optional<CompiledLayer> layer1;
  std::optional<CompiledLayer> layer2;

  std::size_t num_data_qubits() const { return code->num_qubits(); }
};

/// Flag handling strategy for the first layer (Section IV: "occasionally,
/// it might be preferable not to flag certain stabilizer measurements").
/// The final layer always flags its dangerous hooks — there is no later
/// layer to absorb them.
enum class FlagPolicy {
  FlagDangerous,     ///< Flag every measurement with a dangerous hook.
  DeferToNextLayer,  ///< Leave layer 1 unflagged; hooks become layer-2 input.
};

/// Random CNOT orders the measurement-order search tries per gadget.
inline constexpr std::size_t kOrderSearchTries = 64;

struct SynthesisOptions {
  PrepSynthOptions prep;
  VerificationSynthOptions verification;
  CorrectionSynthOptions correction;
  FlagPolicy flag_policy = FlagPolicy::FlagDangerous;

  /// Search CNOT orders of each verification gadget for one whose hook
  /// errors are all harmless (Section IV: "it might be preferable not to
  /// flag certain stabilizer measurements [when] hook errors are not
  /// dangerous"), trying `kOrderSearchTries` random orders. Often removes
  /// the flag qubit entirely; set to false for the paper's plain
  /// ascending order.
  bool optimize_measurement_order = true;

  /// Device coupling: a built-in topology name or a custom map, resolved
  /// per code by `resolve_coupling` and threaded into every synthesis
  /// sub-stage (prep CNOT placement, verification/correction support
  /// selection, gadget CNOT ordering). The default spec is all-to-all —
  /// fully unconstrained, bit-identical to pre-coupling behavior.
  qec::CouplingSpec coupling;

  /// Proof-carrying synthesis: when `proof_sink` is set,
  /// `synthesize_protocol` threads it (with per-stage labels "prep",
  /// "verif.L1", "verif.L2", "corr.L1.<outcome>", "corr.L2.<outcome>")
  /// into every SAT sub-stage, which then runs with DRAT logging on and
  /// records a checked refutation of each optimality-anchoring UNSAT leg
  /// (honest absent entries where no proof exists). Does not change
  /// synthesized circuits, solver statistics, or cache keys.
  /// `capture_proofs` is consumed by `ProtocolCompiler::compile`, which
  /// attaches an internal sink (persisted into the artifact) when the
  /// caller did not provide one.
  bool capture_proofs = false;
  ProofSink* proof_sink = nullptr;
};

/// Resolves `options.coupling` for an n-qubit code into the three
/// synthesis sub-option pointers (overwriting them when the spec is
/// constrained; the all-to-all spec leaves caller-set sub-options
/// untouched). Returns the resolved map — null when unconstrained.
/// `synthesize_protocol` and `globally_optimize` call this themselves;
/// exposed for callers driving the sub-stages directly.
std::shared_ptr<const qec::CouplingMap> resolve_coupling(
    SynthesisOptions& options, std::size_t n);

/// Explicit building blocks, used by the global optimization to sweep over
/// alternative (equally optimal) verification sets.
struct SynthesisOverrides {
  std::optional<circuit::Circuit> prep;
  std::optional<VerificationSet> layer1_verification;
  std::optional<VerificationSet> layer2_verification;
};

/// Synthesizes the full deterministic FT preparation protocol for the
/// given code and logical basis state: preparation circuit, per-layer
/// verification (SAT-optimal), flag decisions, and SAT-optimal correction
/// branches for every reachable (syndrome, flag) class. Layers whose
/// dangerous-error set is empty are omitted, reproducing the single-layer
/// rows of Table I. Throws `std::runtime_error` if any synthesis step
/// fails (outside its configured budget).
Protocol synthesize_protocol(const qec::CssCode& code,
                             qec::LogicalBasis basis,
                             const SynthesisOptions& options = {},
                             const SynthesisOverrides& overrides = {});

/// A single-fault event: the propagated residual error on the data qubits
/// together with all verification outcomes observed along the way.
struct FaultEvent {
  qec::Pauli data_error;
  std::vector<f2::BitVec> outcomes;  ///< One vector per circuit segment.
};

/// Enumerates the events of every single fault (every operator at every
/// location) across the given circuit segments executed in sequence over
/// `num_data` shared data qubits. Used for dangerous-error extraction and
/// correction-class construction; also a convenient test surface.
std::vector<FaultEvent> enumerate_single_fault_events(
    std::size_t num_data,
    const std::vector<const circuit::Circuit*>& segments);

/// Filters the state-dangerous type-t parts (reduced weight >= 2) out of
/// fault events, deduplicated by stabilizer coset — the sets E_X(C) and
/// E_Z(C) of the paper.
std::vector<f2::BitVec> dangerous_errors(const qec::StateContext& state,
                                         qec::PauliType t,
                                         const std::vector<FaultEvent>& events);

}  // namespace ftsp::core
