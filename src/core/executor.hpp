#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/protocol.hpp"
#include "sim/faults.hpp"

namespace ftsp::core {

struct FrameBatchLayout;

namespace detail {

using KindCounts = std::array<std::uint32_t, sim::kNumLocationKinds>;

}  // namespace detail

/// Identifies a fault location at execution time: which compiled circuit
/// segment and which gate within it. The fault operators come from
/// `sim::fault_op` of that gate.
struct SiteRef {
  const circuit::Circuit* segment = nullptr;
  std::size_t gate_index = 0;
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
/// defines the global fault-site numbering: one site right after each
/// gate. Each entry holds a compiled circuit, its per-kind site counts
/// and its first global site index; the fault operators of a site come
/// from `sim::fault_op` of its gate, so no entry stores them. Every
/// engine (FT checker, samplers, rate estimator, diagnostics) reads
/// segments and the global site numbering from here.
class Executor {
 public:
  /// One compiled circuit of the protocol; its fault sites are its
  /// gates, in gate order.
  struct Segment {
    const circuit::Circuit* circuit = nullptr;
    detail::KindCounts site_counts{};  ///< Sites per `sim::LocationKind`.
    std::uint32_t site_base = 0;       ///< Global index of gate 0's site.
    bool branch = false;               ///< A correction branch.
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
    // Runs one segment on the accumulated data error.
    const auto run_segment = [&](const circuit::Circuit& c) {
      return sim::run_circuit(c, result.data_error, [&](std::size_t g) {
        ++result.sites_executed;
        const int op = choose(SiteRef{&c, g});
        if (op >= 0) {
          ++result.faults_injected;
        }
        return op;
      });
    };

    run_segment(protocol_->prep);
    for (const auto* layer : {&protocol_->layer1, &protocol_->layer2}) {
      if (!layer->has_value()) {
        continue;
      }
      const CompiledLayer& l = **layer;
      const f2::BitVec outcomes = run_segment(l.verif);
      if (outcomes.none()) {
        continue;
      }
      result.any_trigger = true;
      const bool hook = (outcomes & l.flag_mask).any();
      if (const auto it = l.branches.find(outcomes);
          it != l.branches.end()) {
        const CompiledBranch& branch = it->second;
        const f2::BitVec extended = run_segment(branch.circ);
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
};

}  // namespace ftsp::core
