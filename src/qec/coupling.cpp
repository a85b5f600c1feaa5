#include "qec/coupling.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/hash.hpp"

namespace ftsp::qec {

using f2::BitVec;

CouplingMap::CouplingMap(std::string name, std::size_t n)
    : name_(std::move(name)) {
  if (n == 0) {
    throw std::invalid_argument("coupling map: need at least one site");
  }
  adjacency_.assign(n, BitVec(n));
}

void CouplingMap::add_edge(std::size_t a, std::size_t b) {
  const std::size_t n = num_sites();
  if (a >= n || b >= n) {
    throw std::invalid_argument("coupling map: edge endpoint out of range");
  }
  if (a == b) {
    throw std::invalid_argument("coupling map: self-loop");
  }
  if (!adjacency_[a].get(b)) {
    adjacency_[a].set(b);
    adjacency_[b].set(a);
    ++num_edges_;
  }
}

CouplingMap CouplingMap::all_to_all(std::size_t n) {
  CouplingMap map("all", n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      map.add_edge(a, b);
    }
  }
  return map;
}

CouplingMap CouplingMap::linear(std::size_t n) {
  CouplingMap map("linear", n);
  for (std::size_t q = 0; q + 1 < n; ++q) {
    map.add_edge(q, q + 1);
  }
  return map;
}

CouplingMap CouplingMap::ring(std::size_t n) {
  CouplingMap map("ring", n);
  for (std::size_t q = 0; q + 1 < n; ++q) {
    map.add_edge(q, q + 1);
  }
  if (n > 2) {
    map.add_edge(n - 1, 0);
  }
  return map;
}

CouplingMap CouplingMap::grid(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("coupling map: grid needs rows, cols >= 1");
  }
  CouplingMap map("grid", rows * cols);
  const auto at = [cols](std::size_t r, std::size_t c) {
    return r * cols + c;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        map.add_edge(at(r, c), at(r, c + 1));
      }
      if (r + 1 < rows) {
        map.add_edge(at(r, c), at(r + 1, c));
      }
    }
  }
  return map;
}

CouplingMap CouplingMap::grid(std::size_t n) {
  // Most-square factorization rows * cols = n with rows <= cols; primes
  // degrade to 1 x n (a linear chain), which is the honest grid of a
  // prime-sized register.
  std::size_t rows = 1;
  for (std::size_t r = 1; r * r <= n; ++r) {
    if (n % r == 0) {
      rows = r;
    }
  }
  return grid(rows, n / rows);
}

CouplingMap CouplingMap::heavy_hex(std::size_t n) {
  // Linear spine with pendant bridge sites: sites are numbered along the
  // spine, and every third spine site sprouts one degree-1 pendant
  // (IBM-style heavy-hex decoration, truncated to n sites). For n <= 3
  // this degenerates to the linear chain.
  CouplingMap map("heavy-hex", n);
  std::vector<std::size_t> spine;
  std::size_t next = 0;
  while (next < n) {
    spine.push_back(next);
    if (!spine.empty() && spine.size() % 3 == 0 && next + 1 < n) {
      ++next;  // Reserve the following index as this spine site's pendant.
      map.add_edge(spine.back(), next);
    }
    ++next;
  }
  for (std::size_t i = 0; i + 1 < spine.size(); ++i) {
    map.add_edge(spine[i], spine[i + 1]);
  }
  return map;
}

CouplingMap CouplingMap::from_edges(
    std::string name, std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  CouplingMap map(std::move(name), n);
  for (const auto& [a, b] : edges) {
    map.add_edge(a, b);
  }
  return map;
}

const std::vector<std::string>& CouplingMap::builtin_names() {
  static const std::vector<std::string> names = {"all", "linear", "ring",
                                                 "grid", "heavy-hex"};
  return names;
}

bool CouplingMap::is_builtin_name(const std::string& name) {
  const auto& names = builtin_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

CouplingMap CouplingMap::builtin(const std::string& name, std::size_t n) {
  if (name == "all") {
    return all_to_all(n);
  }
  if (name == "linear") {
    return linear(n);
  }
  if (name == "ring") {
    return ring(n);
  }
  if (name == "grid") {
    return grid(n);
  }
  if (name == "heavy-hex") {
    return heavy_hex(n);
  }
  throw std::invalid_argument(
      "unknown coupling map '" + name +
      "' (builtins: all, linear, ring, grid, heavy-hex)");
}

bool CouplingMap::is_all_to_all() const {
  const std::size_t n = num_sites();
  return num_edges_ == n * (n - 1) / 2;
}

bool CouplingMap::allows(std::size_t a, std::size_t b) const {
  if (a >= num_sites() || b >= num_sites() || a == b) {
    return false;
  }
  return adjacency_[a].get(b);
}

std::vector<std::pair<std::size_t, std::size_t>> CouplingMap::edges() const {
  std::vector<std::pair<std::size_t, std::size_t>> list;
  list.reserve(num_edges_);
  for (std::size_t a = 0; a < num_sites(); ++a) {
    for (std::size_t b : adjacency_[a].ones()) {
      if (a < b) {
        list.emplace_back(a, b);
      }
    }
  }
  return list;
}

bool CouplingMap::is_connected_subset(const BitVec& support) const {
  if (support.size() != num_sites()) {
    throw std::invalid_argument("coupling map: support size mismatch");
  }
  const std::size_t start = support.lowest_set();
  if (start == support.size()) {
    return true;  // Empty support.
  }
  BitVec visited(num_sites());
  visited.set(start);
  BitVec frontier = visited;
  while (frontier.any()) {
    BitVec next(num_sites());
    for (std::size_t q : frontier.ones()) {
      next |= adjacency_[q];
    }
    next &= support;
    for (std::size_t q : visited.ones()) {
      next.set(q, false);
    }
    visited |= next;
    frontier = next;
  }
  return visited.popcount() == support.popcount();
}

namespace {

/// Backtracking extension of a partial walk: tries every unvisited
/// support site coupled to the walk's tail, in ascending order or in an
/// order drawn from `rng`.
bool extend_walk(const std::vector<f2::BitVec>& adjacency,
                 const BitVec& support, BitVec& visited,
                 std::vector<std::size_t>& path, std::size_t target_length,
                 util::Mt64* rng) {
  if (path.size() == target_length) {
    return true;
  }
  BitVec eligible = adjacency[path.back()];
  eligible &= support;
  for (std::size_t q : visited.ones()) {
    eligible.set(q, false);
  }
  std::vector<std::size_t> choices = eligible.ones();
  if (rng != nullptr) {
    std::shuffle(choices.begin(), choices.end(), *rng);
  }
  for (std::size_t next : choices) {
    visited.set(next);
    path.push_back(next);
    if (extend_walk(adjacency, support, visited, path, target_length, rng)) {
      return true;
    }
    path.pop_back();
    visited.set(next, false);
  }
  return false;
}

}  // namespace

std::vector<std::size_t> CouplingMap::walk_order_from(
    const BitVec& support, std::size_t start, util::Mt64* rng) const {
  if (support.size() != num_sites()) {
    throw std::invalid_argument("coupling map: support size mismatch");
  }
  if (!support.get(start)) {
    return {};
  }
  BitVec visited(num_sites());
  visited.set(start);
  std::vector<std::size_t> path = {start};
  if (extend_walk(adjacency_, support, visited, path, support.popcount(),
                  rng)) {
    return path;
  }
  return {};
}

std::vector<std::size_t> CouplingMap::walk_order(
    const BitVec& support) const {
  if (support.size() != num_sites()) {
    throw std::invalid_argument("coupling map: support size mismatch");
  }
  if (support.none()) {
    return {};
  }
  // The ascending-start, ascending-neighbor backtracking yields the
  // lexicographically smallest Hamiltonian path — deterministic, so
  // synthesized gadgets (and artifact bytes) are reproducible.
  for (std::size_t start : support.ones()) {
    auto path = walk_order_from(support, start, nullptr);
    if (!path.empty()) {
      return path;
    }
  }
  throw std::invalid_argument(
      "coupling map '" + name_ +
      "': support admits no ancilla walk (no Hamiltonian path in the "
      "induced subgraph)");
}

bool CouplingMap::has_walk(const BitVec& support) const {
  if (support.popcount() <= 1) {
    return true;
  }
  if (!is_connected_subset(support)) {
    return false;  // Cheap necessary condition first.
  }
  for (std::size_t start : support.ones()) {
    if (!walk_order_from(support, start, nullptr).empty()) {
      return true;
    }
  }
  return false;
}

std::string CouplingMap::fingerprint() const {
  // FNV-1a over the site count and the sorted edge list; the name is
  // deliberately excluded so equal structures hash equally. The legacy
  // seed and le64 fold order are baked into artifact-store keys —
  // frozen.
  util::Fnv1a64 h(util::kFnv1a64LegacyOffset);
  h.le64(num_sites());
  for (const auto& [a, b] : edges()) {
    h.le64(a);
    h.le64(b);
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "k%zu-%016llx", num_sites(),
                static_cast<unsigned long long>(h.value()));
  return buffer;
}

CouplingMap CouplingMap::closure(std::size_t reach) const {
  const std::size_t n = num_sites();
  CouplingMap result(name_, n);
  for (std::size_t a = 0; a < n; ++a) {
    // Bounded BFS from a; every site reached within `reach` hops (all of
    // the component when reach == 0) becomes a neighbor.
    BitVec visited(n);
    visited.set(a);
    BitVec frontier = visited;
    for (std::size_t depth = 0; (reach == 0 || depth < reach) &&
                                frontier.any();
         ++depth) {
      BitVec next(n);
      for (std::size_t q : frontier.ones()) {
        next |= adjacency_[q];
      }
      for (std::size_t q : visited.ones()) {
        next.set(q, false);
      }
      visited |= next;
      frontier = next;
    }
    for (std::size_t b : visited.ones()) {
      if (a < b) {
        result.add_edge(a, b);
      }
    }
  }
  return result;
}

std::shared_ptr<const CouplingMap> CouplingSpec::resolve(
    std::size_t n) const {
  if (custom != nullptr) {
    if (custom->num_sites() != n) {
      throw std::invalid_argument(
          "coupling map '" + custom->name() + "' has " +
          std::to_string(custom->num_sites()) + " sites but the code has " +
          std::to_string(n) + " qubits");
    }
    return custom->is_all_to_all() ? nullptr : custom;
  }
  if (name == "all") {
    return nullptr;
  }
  auto map = std::make_shared<CouplingMap>(CouplingMap::builtin(name, n));
  return map->is_all_to_all() ? nullptr : map;
}

std::shared_ptr<const CouplingMap> CouplingSpec::resolve_gadget(
    std::size_t n) const {
  const auto map = resolve(n);
  if (map == nullptr) {
    return nullptr;
  }
  auto gadget =
      std::make_shared<CouplingMap>(map->closure(gadget_reach));
  return gadget->is_all_to_all() ? nullptr : gadget;
}

std::string CouplingSpec::key_fragment(std::size_t n) const {
  const auto map = resolve(n);
  if (map == nullptr) {
    return {};
  }
  std::string fragment = "|coup=" + map->fingerprint();
  if (gadget_reach != 0) {
    fragment += "+g" + std::to_string(gadget_reach);
  }
  return fragment;
}

}  // namespace ftsp::qec
