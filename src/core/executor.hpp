#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "sim/faults.hpp"
#include "sim/pauli_frame.hpp"

namespace ftsp::core {

struct FrameBatchLayout;

namespace detail {

using KindCounts = std::array<std::uint32_t, sim::kNumLocationKinds>;

}  // namespace detail

/// Identifies a fault location at execution time: which compiled circuit
/// segment, which gate within it, and the available fault operators.
struct SiteRef {
  const circuit::Circuit* segment = nullptr;
  std::size_t gate_index = 0;
  const sim::FaultSite* site = nullptr;
};

/// Executes a `Protocol` under Pauli-frame semantics with pluggable fault
/// injection — the one engine behind the exhaustive fault-tolerance
/// checker, the Monte-Carlo/importance samplers and the non-deterministic
/// baseline.
///
/// Control flow follows Fig. 3: run the preparation, then each layer's
/// verification; on a non-zero outcome vector run the matching correction
/// branch, measure its extended syndrome and apply the planned recovery;
/// terminate early when a flag fired (hook branch). Outcome patterns
/// outside the branch table (only reachable with >= 2 faults) apply no
/// recovery.
///
/// The Executor owns the protocol's segment table and its canonical
/// order, built once at construction: prep, then per layer the
/// verification circuit followed by its branches in outcome-key order.
/// `FrameBatchLayout` and the artifact codec share this order, and it
/// defines the global fault-site numbering. Each entry holds a compiled
/// circuit with its fault sites, per-kind site counts and first global
/// site index. Every engine (FT checker, samplers, rate estimator,
/// diagnostics) reads segments and the global site numbering from here.
class Executor {
 public:
  /// One compiled circuit of the protocol and its fault locations.
  struct Segment {
    const circuit::Circuit* circuit = nullptr;
    std::vector<sim::FaultSite> sites;  ///< One per gate, in gate order.
    detail::KindCounts site_counts{};   ///< Sites per `sim::LocationKind`.
    std::uint32_t site_base = 0;        ///< Global index of `sites[0]`.
    bool branch = false;                ///< A correction branch.
  };

  explicit Executor(const Protocol& protocol);

  struct Result {
    qec::Pauli data_error;        ///< Residual Pauli on the data qubits.
    bool hook_terminated = false;
    bool any_trigger = false;     ///< Some verification outcome was nonzero.
    std::size_t sites_executed = 0;
    std::size_t faults_injected = 0;
  };

  const Protocol& protocol() const { return *protocol_; }

  /// The segment table in canonical order. The non-branch segments are
  /// prep and each layer's verification circuit.
  const std::vector<Segment>& segments() const { return segments_; }

  /// The table entry of a compiled circuit of this protocol.
  const Segment& segment(const circuit::Circuit& c) const {
    return segments_[index_.at(&c)];
  }

  /// Checks a stored layout against the table: segment count, each
  /// segment's dimensions and per-kind site counts, and the peak
  /// dimensions. Throws `std::invalid_argument` naming `caller` on any
  /// mismatch.
  void check_layout(const FrameBatchLayout& layout, const char* caller) const;

  /// Runs the protocol. `choose` is invoked once per executed fault
  /// location with a `SiteRef` and must return the index of the fault
  /// operator to inject, or -1 for no fault.
  template <typename Chooser>
  Result run(Chooser&& choose) const {
    Result result;
    result.data_error = qec::Pauli(protocol_->num_data_qubits());

    run_segment(protocol_->prep, result, choose);
    for (const auto* layer : {&protocol_->layer1, &protocol_->layer2}) {
      if (!layer->has_value()) {
        continue;
      }
      const CompiledLayer& l = **layer;
      const f2::BitVec outcomes = run_segment(l.verif, result, choose);
      if (outcomes.none()) {
        continue;
      }
      result.any_trigger = true;
      const bool hook = (outcomes & l.flag_mask).any();
      if (const auto it = l.branches.find(outcomes);
          it != l.branches.end()) {
        const CompiledBranch& branch = it->second;
        const f2::BitVec extended = run_segment(branch.circ, result, choose);
        if (const auto rec = branch.plan.recoveries.find(extended);
            rec != branch.plan.recoveries.end()) {
          result.data_error.part(branch.corrected_type) ^= rec->second;
        }
      }
      if (hook) {
        result.hook_terminated = true;
        break;
      }
    }
    return result;
  }

 private:
  const Protocol* protocol_;
  std::vector<Segment> segments_;
  // Compiled circuit -> its position in `segments_`.
  std::unordered_map<const circuit::Circuit*, std::size_t> index_;

  template <typename Chooser>
  f2::BitVec run_segment(const circuit::Circuit& c, Result& result,
                         Chooser& choose) const {
    const std::size_t n = protocol_->num_data_qubits();
    sim::PauliFrame frame(c);
    for (std::size_t q = 0; q < n; ++q) {
      frame.error.x.set(q, result.data_error.x.get(q));
      frame.error.z.set(q, result.data_error.z.get(q));
    }
    const auto& sites = segment(c).sites;
    for (std::size_t g = 0; g < c.gates().size(); ++g) {
      sim::apply_gate(frame, c.gates()[g]);
      const sim::FaultSite& site = sites[g];
      ++result.sites_executed;
      const int op = choose(SiteRef{&c, g, &site});
      if (op >= 0) {
        ++result.faults_injected;
        sim::apply_fault(frame, site.ops[static_cast<std::size_t>(op)],
                         c.gates()[g]);
      }
    }
    f2::BitVec outcomes(c.num_cbits());
    for (std::size_t i = 0; i < c.num_cbits(); ++i) {
      outcomes.set(i, frame.outcomes[i]);
    }
    for (std::size_t q = 0; q < n; ++q) {
      result.data_error.x.set(q, frame.error.x.get(q));
      result.data_error.z.set(q, frame.error.z.get(q));
    }
    return outcomes;
  }
};

}  // namespace ftsp::core
