#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "f2/bit_vec.hpp"
#include "util/mt64.hpp"

namespace ftsp::qec {

/// Hardware connectivity of the data-qubit block: which pairs of data
/// qubits can interact directly. Synthesis under a coupling map emits
/// only circuits realizable on the device without routing:
///
///  * every data-data CNOT (the unitary preparation circuit) must lie on
///    a coupled pair;
///  * every ancilla-mediated stabilizer measurement is performed by a
///    *movable* ancilla (neutral-atom transport / ion shuttling — the
///    near-term platforms this targets) that travels along the map and
///    parks next to one data site at a time. Its transport range per
///    step is the **gadget reach** of `CouplingSpec`: consecutive data
///    qubits in the gadget's CNOT order must be within graph distance
///    <= reach (reach 0 = unbounded transport, i.e. anywhere inside the
///    data block's connected component; reach 1 = the strict walk where
///    the ancilla only ever steps to a coupled neighbor). Formally the
///    gadget layer is constrained by `closure(reach)`: the measured
///    support must admit a *walk* — a Hamiltonian path of the
///    closure-induced subgraph (`has_walk`) — and the CNOT order must
///    be such a path. Ancilla-ancilla CNOTs (flag couplings) are
///    unconstrained: both qubits ride in the same movable register.
///
/// The all-to-all map (every pair coupled) is the paper's baseline and
/// is recognized *structurally* — a custom map listing every edge
/// behaves exactly like the built-in one, and unconstrained synthesis
/// stays bit-for-bit identical to a run without any map.
class CouplingMap {
 public:
  /// Built-in topologies. `grid(n)` uses the most-square factorization
  /// rows x cols = n (rows <= cols); `heavy_hex(n)` is a linear spine
  /// with bridge sites attached IBM-style (every third spine qubit gets
  /// a degree-1 pendant), truncated to n sites.
  static CouplingMap all_to_all(std::size_t n);
  static CouplingMap linear(std::size_t n);
  static CouplingMap ring(std::size_t n);
  static CouplingMap grid(std::size_t rows, std::size_t cols);
  static CouplingMap grid(std::size_t n);
  static CouplingMap heavy_hex(std::size_t n);

  /// A custom map from an explicit edge list. Edges are undirected;
  /// duplicates and both orientations collapse. Self-loops and
  /// out-of-range endpoints throw std::invalid_argument.
  static CouplingMap from_edges(
      std::string name, std::size_t n,
      const std::vector<std::pair<std::size_t, std::size_t>>& edges);

  /// Resolves a built-in topology by name ("all" | "linear" | "ring" |
  /// "grid" | "heavy-hex") for n sites; throws std::invalid_argument on
  /// unknown names.
  static CouplingMap builtin(const std::string& name, std::size_t n);
  static bool is_builtin_name(const std::string& name);
  static const std::vector<std::string>& builtin_names();

  const std::string& name() const { return name_; }
  std::size_t num_sites() const { return adjacency_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// True iff every distinct pair is coupled (the unconstrained case).
  bool is_all_to_all() const;

  bool allows(std::size_t a, std::size_t b) const;
  const f2::BitVec& neighbors(std::size_t q) const { return adjacency_[q]; }

  /// Canonical sorted edge list (a < b, lexicographic).
  std::vector<std::pair<std::size_t, std::size_t>> edges() const;

  /// True iff the subgraph induced by `support` is connected (vacuously
  /// true for weight 0 and 1). `support.size()` must equal num_sites().
  /// A cheap necessary condition for `has_walk`.
  bool is_connected_subset(const f2::BitVec& support) const;

  /// True iff the subgraph induced by `support` admits a Hamiltonian
  /// path — an ancilla walk visiting every support site with each step
  /// on a coupled pair. This is the gadget realizability condition
  /// (decided by backtracking; supports are small).
  bool has_walk(const f2::BitVec& support) const;

  /// Deterministic walk of `support`: the lexicographically smallest
  /// Hamiltonian path of the induced subgraph (consecutive sites
  /// coupled). Throws std::invalid_argument when no walk exists.
  std::vector<std::size_t> walk_order(const f2::BitVec& support) const;

  /// A walk of `support` starting at `start`: neighbors are tried in
  /// ascending order, or in an order shuffled by `rng` when given (for
  /// randomized order search). Empty when no walk starts there.
  std::vector<std::size_t> walk_order_from(const f2::BitVec& support,
                                           std::size_t start,
                                           util::Mt64* rng) const;

  /// Canonical structure fingerprint: "kN-<16 hex digits>" over the site
  /// count and sorted edge list only (the name does not participate), so
  /// equal topologies fingerprint equally however they were built.
  std::string fingerprint() const;

  /// The distance-`reach` closure: same sites, an edge wherever this map
  /// has a path of at most `reach` hops (reach 0 = unbounded, i.e. the
  /// per-component complete graph; reach 1 = this map). The gadget-layer
  /// constraint graph of the movable-ancilla model above.
  CouplingMap closure(std::size_t reach) const;

  bool operator==(const CouplingMap& other) const {
    return adjacency_ == other.adjacency_;
  }

 private:
  CouplingMap(std::string name, std::size_t n);

  void add_edge(std::size_t a, std::size_t b);

  std::string name_;
  std::vector<f2::BitVec> adjacency_;
  std::size_t num_edges_ = 0;
};

/// True iff `map` actually constrains synthesis: present and not
/// structurally all-to-all. Null means "no map" (the historical default)
/// and behaves identically to an explicit all-to-all map everywhere.
inline bool coupling_constrained(const CouplingMap* map) {
  return map != nullptr && !map->is_all_to_all();
}
inline bool coupling_constrained(
    const std::shared_ptr<const CouplingMap>& map) {
  return coupling_constrained(map.get());
}

/// A device-targeting request at the options level: either a built-in
/// topology name (resolved per code, so one spec serves codes of any
/// size) or a concrete custom map. The default spec is all-to-all and
/// resolves to "no constraint".
struct CouplingSpec {
  std::string name = "all";
  std::shared_ptr<const CouplingMap> custom;
  /// Ancilla transport range of the gadget layer (see `CouplingMap`):
  /// 0 = unbounded movable ancilla (the default — realistic for the
  /// neutral-atom / ion-trap devices with restricted *data* coupling),
  /// 1 = strict coupled-neighbor walk, k = at most k hops per step.
  std::size_t gadget_reach = 0;

  bool is_all_to_all() const {
    return custom != nullptr ? custom->is_all_to_all() : name == "all";
  }

  /// The concrete map for an n-qubit code: the custom map (whose size
  /// must match n, else std::invalid_argument) or the built-in topology
  /// instantiated at n. Returns nullptr for the all-to-all spec — the
  /// canonical "unconstrained" representation.
  std::shared_ptr<const CouplingMap> resolve(std::size_t n) const;

  /// The gadget-layer constraint graph: `resolve(n)->closure(
  /// gadget_reach)`, normalized to nullptr when it is unconstraining
  /// (all-to-all — e.g. any connected map at reach 0).
  std::shared_ptr<const CouplingMap> resolve_gadget(std::size_t n) const;

  /// Cache/store key fragment: empty for all-to-all (so unconstrained
  /// keys remain byte-identical to pre-coupling builds and legacy warm
  /// stores keep hitting); "|coup=<fingerprint>" otherwise, plus
  /// "+g<reach>" when a nonzero gadget reach further constrains the
  /// gadget layer.
  std::string key_fragment(std::size_t n) const;
};

}  // namespace ftsp::qec
