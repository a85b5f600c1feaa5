#include "core/prep_synth.hpp"

#include <algorithm>
#include <numeric>
#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/synth_cache.hpp"
#include "f2/gauss.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/engine.hpp"

namespace ftsp::core {

using f2::BitMatrix;
using f2::BitVec;

namespace {

/// True iff every CNOT of a (data-only) preparation circuit lies on a
/// coupled pair. Null/all-to-all maps allow everything.
bool circuit_respects_coupling(const circuit::Circuit& circ,
                               const qec::CouplingMap* map) {
  if (!qec::coupling_constrained(map)) {
    return true;
  }
  for (const auto& gate : circ.gates()) {
    if (gate.kind == circuit::GateKind::Cnot &&
        !map->allows(gate.q0, gate.q1)) {
      return false;
    }
  }
  return true;
}

void check_coupling_sites(const qec::CouplingMap* map, std::size_t n) {
  if (map != nullptr && map->num_sites() != n) {
    throw std::invalid_argument(
        "synthesize_prep: coupling map '" + map->name() + "' has " +
        std::to_string(map->num_sites()) + " sites but the state has " +
        std::to_string(n) + " qubits");
  }
}

}  // namespace

namespace {

struct OrderedRref {
  BitMatrix reduced;
  std::vector<std::size_t> pivots;  // Original column index, one per row.
};

/// RREF scanning columns in the order given by `col_order`.
OrderedRref rref_with_order(const BitMatrix& m,
                            const std::vector<std::size_t>& col_order) {
  OrderedRref result;
  result.reduced = m;
  BitMatrix& a = result.reduced;
  std::size_t pivot_row = 0;
  for (std::size_t col : col_order) {
    if (pivot_row >= a.rows()) {
      break;
    }
    std::size_t sel = a.rows();
    for (std::size_t r = pivot_row; r < a.rows(); ++r) {
      if (a.get(r, col)) {
        sel = r;
        break;
      }
    }
    if (sel == a.rows()) {
      continue;
    }
    a.swap_rows(pivot_row, sel);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      if (r != pivot_row && a.get(r, col)) {
        a.add_row_to(pivot_row, r);
      }
    }
    result.pivots.push_back(col);
    ++pivot_row;
  }
  return result;
}

std::size_t reduced_cost(const OrderedRref& r) {
  std::size_t weight = 0;
  for (std::size_t i = 0; i < r.reduced.rows(); ++i) {
    weight += r.reduced.row(i).popcount();
  }
  return weight - r.pivots.size();
}

/// Builds the preparation circuit from a reduced generator matrix: pivot
/// qubits start in |+>, the rest in |0|>; every non-pivot support entry of
/// row i becomes a CNOT from the row's pivot.
circuit::Circuit circuit_from_reduced(const qec::StateContext& state,
                                      const OrderedRref& r) {
  const std::size_t n = state.num_qubits();
  circuit::Circuit prep(n);
  BitVec pivot_set(n);
  for (std::size_t p : r.pivots) {
    pivot_set.set(p);
  }
  for (std::size_t q = 0; q < n; ++q) {
    if (pivot_set.get(q)) {
      prep.prep_x(q);
    } else {
      prep.prep_z(q);
    }
  }
  for (std::size_t i = 0; i < r.reduced.rows(); ++i) {
    for (std::size_t q : r.reduced.row(i).ones()) {
      if (q != r.pivots[i]) {
        prep.cnot(r.pivots[i], q);
      }
    }
  }
  return prep;
}

}  // namespace

namespace {

std::size_t nonzero_columns(const BitMatrix& m) {
  std::size_t count = 0;
  for (std::size_t q = 0; q < m.cols(); ++q) {
    if (m.column(q).any()) {
      ++count;
    }
  }
  return count;
}

/// One greedy reverse-synthesis run: apply weight-reducing column
/// additions (col t += col c, the inverse action of CNOT(c,t)) to the
/// generator matrix until its support is confined to r columns — i.e.
/// until the state has been disentangled into a product state. Row
/// operations are free (the state only depends on the row space), which
/// guarantees a strictly weight-reducing move always exists. The reversed
/// op sequence is the preparation circuit; unlike plain RREF fan-out this
/// yields chain/tree CNOT structures whose spread errors are largely
/// stabilizer-equivalent to low-weight errors.
std::optional<circuit::Circuit> greedy_reverse_prep(
    const qec::StateContext& state, std::mt19937_64& rng,
    const qec::CouplingMap* map) {
  const bool constrained = qec::coupling_constrained(map);
  const BitMatrix& gens = state.stabilizer_generators(qec::PauliType::X);
  const std::size_t n = state.num_qubits();
  auto reduced = f2::rref(gens);
  reduced.reduced.remove_zero_rows();
  BitMatrix m = reduced.reduced;
  const std::size_t r = m.rows();

  std::vector<std::pair<std::size_t, std::size_t>> ops;
  const std::size_t max_ops = 4 * n * n;
  while (nonzero_columns(m) > r && ops.size() < max_ops) {
    // Free row reduction keeps the greedy landscape canonical.
    auto rr = f2::rref(m);
    rr.reduced.remove_zero_rows();
    m = rr.reduced;
    if (nonzero_columns(m) <= r) {
      break;
    }
    std::ptrdiff_t best_gain = -1;
    bool best_zeroes = false;
    std::vector<std::pair<std::size_t, std::size_t>> best_ops;
    for (std::size_t c = 0; c < n; ++c) {
      const BitVec col_c = m.column(c);
      if (col_c.none()) {
        continue;
      }
      for (std::size_t t = 0; t < n; ++t) {
        if (t == c || (constrained && !map->allows(c, t))) {
          continue;
        }
        const BitVec col_t = m.column(t);
        if (col_t.none()) {
          continue;
        }
        const BitVec merged = col_t ^ col_c;
        const auto gain = static_cast<std::ptrdiff_t>(col_t.popcount()) -
                          static_cast<std::ptrdiff_t>(merged.popcount());
        const bool zeroes = merged.none();
        if (gain < best_gain || (gain == best_gain && best_zeroes && !zeroes)) {
          continue;
        }
        if (gain > best_gain || (zeroes && !best_zeroes)) {
          best_gain = gain;
          best_zeroes = zeroes;
          best_ops.clear();
        }
        best_ops.emplace_back(c, t);
      }
    }
    if (best_ops.empty() || best_gain < 0) {
      return std::nullopt;  // Should not happen; caller falls back.
    }
    const auto [c, t] = best_ops[rng() % best_ops.size()];
    for (std::size_t i = 0; i < m.rows(); ++i) {
      if (m.get(i, c)) {
        m.row(i).flip(t);
      }
    }
    ops.emplace_back(c, t);
  }
  if (nonzero_columns(m) > r) {
    return std::nullopt;
  }

  circuit::Circuit prep(n);
  for (std::size_t q = 0; q < n; ++q) {
    if (m.column(q).any()) {
      prep.prep_x(q);
    } else {
      prep.prep_z(q);
    }
  }
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    prep.cnot(it->first, it->second);
  }
  return prep;
}

}  // namespace

circuit::Circuit synthesize_prep(const qec::StateContext& state,
                                 const PrepSynthOptions& options) {
  const qec::CouplingMap* map = options.coupling.get();
  const bool constrained = qec::coupling_constrained(map);
  check_coupling_sites(map, state.num_qubits());

  if (options.method == PrepSynthOptions::Method::Optimal) {
    if (auto optimal = synthesize_prep_optimal(state, options)) {
      return *std::move(optimal);
    }
    if (constrained) {
      // The heuristic cannot be trusted to respect the map (and usually
      // cannot satisfy it at all), so an exhausted search is an error,
      // never a silent downgrade to an all-to-all-shaped circuit.
      throw std::runtime_error(
          "synthesize_prep: SAT-optimal search exhausted (max_cnots=" +
          std::to_string(options.max_cnots) + ", conflict budget " +
          std::to_string(options.sat_conflict_budget) +
          ") under coupling map '" + map->name() +
          "'; refusing the heuristic fallback — raise max_cnots or the "
          "budget");
    }
    // Fall through to the heuristic if the SAT search gave up.
    if (options.report != nullptr) {
      options.report->sat_search_exhausted = true;
      options.report->heuristic_fallback = true;
    }
    if (options.proof_sink != nullptr) {
      options.proof_sink->record_absent(
          options.proof_label, "CNOT-minimal preparation circuit",
          "SAT-optimal search exhausted; the returned circuit is heuristic "
          "and its optimality is unproven");
    }
  } else if (options.proof_sink != nullptr) {
    options.proof_sink->record_absent(
        options.proof_label, "heuristic preparation circuit",
        "heuristic synthesis proves no optimality; request Method::Optimal "
        "for a checked refutation");
  }

  const BitMatrix& gens = state.stabilizer_generators(qec::PauliType::X);
  const std::size_t n = state.num_qubits();

  // Baseline: RREF fan-out over several column orders (always succeeds
  // unconstrained; under a coupling map, orders whose fan-out would emit
  // an uncoupled CNOT are filtered out).
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> natural(n);
  std::iota(natural.begin(), natural.end(), 0);
  orders.push_back(natural);
  orders.emplace_back(natural.rbegin(), natural.rend());
  auto by_weight = natural;
  std::stable_sort(by_weight.begin(), by_weight.end(),
                   [&](std::size_t a, std::size_t b) {
                     return gens.column(a).popcount() <
                            gens.column(b).popcount();
                   });
  orders.push_back(by_weight);
  orders.emplace_back(by_weight.rbegin(), by_weight.rend());

  std::optional<circuit::Circuit> best;
  std::size_t best_cost = SIZE_MAX;
  for (const auto& order : orders) {
    const auto reduced = rref_with_order(gens, order);
    const std::size_t cost = reduced_cost(reduced);
    if (cost >= best_cost) {
      continue;
    }
    circuit::Circuit candidate = circuit_from_reduced(state, reduced);
    if (constrained && !circuit_respects_coupling(candidate, map)) {
      continue;
    }
    best_cost = cost;
    best = std::move(candidate);
  }

  // Greedy reverse synthesis with randomized tie-breaking usually beats
  // the fan-out; keep the best CNOT count over the configured tries.
  std::mt19937_64 rng(options.seed);
  const std::size_t tries = std::max<std::size_t>(options.shuffle_tries, 1);
  for (std::size_t t = 0; t < tries; ++t) {
    if (auto candidate = greedy_reverse_prep(state, rng, map)) {
      if (!best.has_value() ||
          candidate->cnot_count() < best->cnot_count()) {
        best = std::move(candidate);
      }
    }
  }
  if (!best.has_value()) {
    // Only reachable under a constrained map: unconstrained, the RREF
    // fan-out always yields a circuit.
    throw std::runtime_error(
        "synthesize_prep: heuristic preparation infeasible under coupling "
        "map '" +
        map->name() +
        "' — no candidate avoided uncoupled CNOTs; use "
        "PrepSynthOptions::Method::Optimal");
  }
  return *std::move(best);
}

namespace {

/// Number of r-dimensional subspaces of F2^n (Gaussian binomial), clamped
/// to `limit` to avoid overflow.
std::size_t count_subspaces(std::size_t n, std::size_t r,
                            std::size_t limit) {
  long double count = 1.0L;
  for (std::size_t i = 0; i < r; ++i) {
    count *= (std::pow(2.0L, static_cast<long double>(n - i)) - 1.0L) /
             (std::pow(2.0L, static_cast<long double>(r - i)) - 1.0L);
    if (count > static_cast<long double>(limit)) {
      return limit + 1;
    }
  }
  return static_cast<std::size_t>(count);
}

std::string rowspace_key(const BitMatrix& m) {
  auto rr = f2::rref(m);
  rr.reduced.remove_zero_rows();
  std::string key;
  for (std::size_t i = 0; i < rr.reduced.rows(); ++i) {
    key += rr.reduced.row(i).to_string();
  }
  return key;
}

/// Exact CNOT-minimal preparation via breadth-first search over row
/// spaces: states are canonical RREFs of the generator matrix, edges are
/// column additions (reverse CNOTs). The subspace count [n choose r]_2 is
/// small for the low-rank codes (e.g. ~12k for the Steane X side), making
/// this both exact and instantaneous where it applies.
std::optional<circuit::Circuit> optimal_prep_bfs(
    const qec::StateContext& state, const qec::CouplingMap* map) {
  const bool constrained = qec::coupling_constrained(map);
  const BitMatrix& gens = state.stabilizer_generators(qec::PauliType::X);
  const std::size_t n = state.num_qubits();
  auto start_rref = f2::rref(gens);
  start_rref.reduced.remove_zero_rows();
  const BitMatrix start = start_rref.reduced;
  const std::size_t r = start.rows();

  struct Node {
    BitMatrix m;
    std::size_t parent;
    std::pair<std::size_t, std::size_t> op;
  };
  std::vector<Node> nodes;
  std::unordered_map<std::string, std::size_t> seen;
  nodes.push_back({start, SIZE_MAX, {0, 0}});
  seen.emplace(rowspace_key(start), 0);

  const auto is_product = [&](const BitMatrix& m) {
    return nonzero_columns(m) <= r;
  };

  std::size_t found = SIZE_MAX;
  if (is_product(start)) {
    found = 0;
  }
  for (std::size_t head = 0; head < nodes.size() && found == SIZE_MAX;
       ++head) {
    // Copy: nodes may reallocate while expanding.
    const BitMatrix m = nodes[head].m;
    for (std::size_t c = 0; c < n && found == SIZE_MAX; ++c) {
      const f2::BitVec col_c = m.column(c);
      if (col_c.none()) {
        continue;
      }
      for (std::size_t t = 0; t < n; ++t) {
        if (t == c || (constrained && !map->allows(c, t))) {
          continue;
        }
        BitMatrix next = m;
        for (std::size_t i = 0; i < r; ++i) {
          if (next.get(i, c)) {
            next.row(i).flip(t);
          }
        }
        const std::string key = rowspace_key(next);
        if (seen.contains(key)) {
          continue;
        }
        seen.emplace(key, nodes.size());
        nodes.push_back({std::move(next), head, {c, t}});
        if (is_product(nodes.back().m)) {
          found = nodes.size() - 1;
          break;
        }
      }
    }
  }
  if (found == SIZE_MAX) {
    return std::nullopt;
  }

  // Reconstruct the reverse-op path, then emit the forward circuit.
  std::vector<std::pair<std::size_t, std::size_t>> ops;
  const BitMatrix product = nodes[found].m;
  for (std::size_t at = found; nodes[at].parent != SIZE_MAX;
       at = nodes[at].parent) {
    ops.push_back(nodes[at].op);
  }
  // `ops` is now last-op-first, which is exactly forward-circuit order.
  circuit::Circuit prep(n);
  for (std::size_t q = 0; q < n; ++q) {
    if (product.column(q).any()) {
      prep.prep_x(q);
    } else {
      prep.prep_z(q);
    }
  }
  for (const auto& [c, t] : ops) {
    prep.cnot(c, t);
  }
  return prep;
}

}  // namespace

namespace {

using sat::CnfBuilder;
using sat::Lit;

/// Records the proof outcome of a gate-count sweep that found a circuit
/// with `found_gates` CNOTs. The sweep visits every count from the
/// structural lower bound upward, so the chronologically last UNSAT leg
/// sits at `found_gates - 1` — the refutation anchoring minimality.
void record_prep_outcome(ProofSink& sink, const std::string& stage,
                         std::size_t found_gates, bool saw_unsat,
                         const std::optional<sat::UnsatProof>& last_unsat,
                         std::size_t last_unsat_gates) {
  if (!saw_unsat) {
    sink.record_absent(
        stage,
        std::to_string(found_gates) +
            " CNOTs is the minimal preparation gate count",
        "optimal gate count equals the structural lower bound; the sweep "
        "had no UNSAT leg");
    return;
  }
  const std::string claim = "no preparation circuit with exactly " +
                            std::to_string(last_unsat_gates) +
                            " CNOTs exists";
  if (last_unsat.has_value()) {
    sink.record(
        make_checked_proof(stage, claim, last_unsat_gates, *last_unsat));
  } else {
    sink.record_absent(stage, claim,
                       "the SAT backend kept no proof log for this "
                       "refutation");
  }
}

std::optional<circuit::Circuit> optimal_prep_sat(
    const qec::StateContext& state, const BitMatrix& start,
    std::size_t lower_bound, const PrepSynthOptions& options) {
  const std::size_t n = state.num_qubits();
  const std::size_t r = start.rows();
  const qec::CouplingMap* map = options.coupling.get();
  const bool constrained = qec::coupling_constrained(map);
  if (constrained && map->num_edges() == 0) {
    return std::nullopt;  // No legal CNOT exists at all.
  }

  std::optional<sat::UnsatProof> last_unsat;
  std::size_t last_unsat_gates = 0;
  bool saw_unsat = false;
  for (std::size_t num_gates = lower_bound; num_gates <= options.max_cnots;
       ++num_gates) {
    auto solver_ptr = sat::make_engine_solver(options.engine,
                                              options.sat_conflict_budget);
    sat::Solver& solver = *solver_ptr;
    if (options.proof_sink != nullptr) {
      // On before any clause lands, so the logged premise is verbatim.
      solver.set_proof_logging(true);
    }
    CnfBuilder cnf(solver);

    // The search runs the circuit in reverse: apply column additions
    // (col t += col c, the self-inverse action of CNOT(c,t) on X-type
    // generators) to the target matrix until its support is confined to
    // at most r columns, i.e. the state became a product state.
    std::vector<std::vector<Lit>> m(r, std::vector<Lit>(n));
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t q = 0; q < n; ++q) {
        m[i][q] = cnf.constant(start.get(i, q));
      }
    }

    std::vector<std::vector<std::vector<Lit>>> selectors;  // [slot][c][t]
    for (std::size_t k = 0; k < num_gates; ++k) {
      std::vector<std::vector<Lit>> sel(n, std::vector<Lit>(n));
      std::vector<Lit> all;
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t t = 0; t < n; ++t) {
          // Coupling-constrained slots never even encode the illegal
          // pairs — the allowed-pair mask shrinks the CNF instead of
          // adding clauses.
          if (c == t || (constrained && !map->allows(c, t))) {
            continue;
          }
          sel[c][t] = cnf.fresh();
          all.push_back(sel[c][t]);
          // Pruning: adding a zero column is a no-op, and a minimal
          // circuit has none.
          std::vector<Lit> source_nonzero;
          source_nonzero.reserve(r + 1);
          source_nonzero.push_back(~sel[c][t]);
          for (std::size_t i = 0; i < r; ++i) {
            source_nonzero.push_back(m[i][c]);
          }
          solver.add_clause(source_nonzero);
          // Pruning: two identical adjacent ops cancel; a minimal circuit
          // has none.
          if (k > 0) {
            solver.add_binary(~selectors[k - 1][c][t], ~sel[c][t]);
          }
        }
      }
      cnf.add_exactly_one(all);

      // Symmetry breaking: adjacent ops (c,t), (c',t') commute iff
      // t != c' and t' != c; force commuting adjacent pairs into
      // lexicographically non-decreasing order.
      if (k > 0) {
        for (std::size_t c = 0; c < n; ++c) {
          for (std::size_t t = 0; t < n; ++t) {
            if (selectors[k - 1][c][t] == Lit::undef) {
              continue;
            }
            for (std::size_t c2 = 0; c2 < n; ++c2) {
              for (std::size_t t2 = 0; t2 < n; ++t2) {
                if (sel[c2][t2] == Lit::undef) {
                  continue;
                }
                const bool commute = (t != c2) && (t2 != c);
                const bool decreasing =
                    std::make_pair(c2, t2) < std::make_pair(c, t);
                if (commute && decreasing) {
                  solver.add_binary(~selectors[k - 1][c][t],
                                    ~sel[c2][t2]);
                }
              }
            }
          }
        }
      }

      std::vector<std::vector<Lit>> next(r, std::vector<Lit>(n));
      for (std::size_t q = 0; q < n; ++q) {
        for (std::size_t i = 0; i < r; ++i) {
          std::vector<Lit> adds;
          adds.reserve(n - 1);
          for (std::size_t c = 0; c < n; ++c) {
            if (c != q && sel[c][q] != Lit::undef) {
              adds.push_back(cnf.and_of({sel[c][q], m[i][c]}));
            }
          }
          next[i][q] = cnf.xor_of({m[i][q], cnf.or_of(adds)});
        }
      }
      m = std::move(next);
      selectors.push_back(std::move(sel));

      // Progress ladder: each op can zero at most one column, so with
      // G - k - 1 ops left the matrix may have at most r + (G - k - 1)
      // nonzero columns (the k = G - 1 case is the final product-state
      // condition).
      const std::size_t remaining = num_gates - k - 1;
      if (r + remaining < n) {
        std::vector<Lit> nonzero;
        nonzero.reserve(n);
        for (std::size_t q = 0; q < n; ++q) {
          std::vector<Lit> column(r);
          for (std::size_t i = 0; i < r; ++i) {
            column[i] = m[i][q];
          }
          nonzero.push_back(cnf.or_of(column));
        }
        cnf.add_at_most_k(nonzero, r + remaining);
      }
    }

    // SolveInterrupted (budget exhausted) propagates to the caller, which
    // must distinguish "gave up" from "proven infeasible" for the cache.
    if (!solver.solve()) {
      if (options.proof_sink != nullptr) {
        saw_unsat = true;
        last_unsat = solver.last_unsat_proof();
        last_unsat_gates = num_gates;
      }
      continue;
    }
    if (options.proof_sink != nullptr) {
      record_prep_outcome(*options.proof_sink, options.proof_label,
                          num_gates, saw_unsat, last_unsat,
                          last_unsat_gates);
    }

    // Decode: the reverse op sequence (c,t) per slot; the forward circuit
    // applies them in reverse order. |+> qubits are the final nonzero
    // columns.
    circuit::Circuit prep(n);
    BitVec plus(n);
    for (std::size_t q = 0; q < n; ++q) {
      for (std::size_t i = 0; i < r; ++i) {
        if (solver.model_value(m[i][q])) {
          plus.set(q);
          break;
        }
      }
    }
    for (std::size_t q = 0; q < n; ++q) {
      if (plus.get(q)) {
        prep.prep_x(q);
      } else {
        prep.prep_z(q);
      }
    }
    for (std::size_t k = num_gates; k-- > 0;) {
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t t = 0; t < n; ++t) {
          if (selectors[k][c][t] != Lit::undef &&
              solver.model_value(selectors[k][c][t])) {
            prep.cnot(c, t);
          }
        }
      }
    }
    return prep;
  }
  return std::nullopt;
}

std::string prep_cache_key(const BitMatrix& gens,
                           const PrepSynthOptions& options) {
  std::string key = "prep|" + options.engine.fingerprint();
  key += "|maxc=" + std::to_string(options.max_cnots);
  key += "|bud=" + std::to_string(options.sat_conflict_budget);
  key += "|bfs=";
  key += options.allow_bfs ? '1' : '0';
  // Unconstrained (null or all-to-all) adds nothing, keeping legacy warm
  // caches valid; constrained maps key on the structure fingerprint so
  // device-specific results never alias all-to-all ones.
  if (qec::coupling_constrained(options.coupling)) {
    key += "|coup=" + options.coupling->fingerprint();
  }
  key += "|G=" + cache_key_matrix(gens);
  return key;
}

}  // namespace

std::optional<circuit::Circuit> synthesize_prep_optimal(
    const qec::StateContext& state, const PrepSynthOptions& options) {
  const BitMatrix& gens = state.stabilizer_generators(qec::PauliType::X);
  const std::size_t n = state.num_qubits();
  check_coupling_sites(options.coupling.get(), n);

  std::string key;
  if (options.engine.use_cache) {
    key = prep_cache_key(gens, options);
    if (const auto hit = SynthCache::instance().lookup(key)) {
      if (options.proof_sink != nullptr) {
        options.proof_sink->record_absent(
            options.proof_label, "CNOT-minimal preparation circuit",
            "served from the synthesis cache; the refutations ran in the "
            "compile that populated it");
      }
      if (*hit == kCacheInfeasible) {
        return std::nullopt;
      }
      return circuit::Circuit::from_text(*hit, n);
    }
  }
  const auto finish = [&](std::optional<circuit::Circuit> result)
      -> std::optional<circuit::Circuit> {
    if (options.engine.use_cache) {
      SynthCache::instance().store(
          key, result.has_value() ? result->to_text() : kCacheInfeasible);
    }
    return result;
  };

  // Exact subspace BFS where the state space is small enough. Under a
  // constrained map the subspace graph only shrinks (fewer edges, same
  // node bound), so the same eligibility limit applies.
  if (options.allow_bfs) {
    const std::size_t space =
        count_subspaces(gens.cols(), f2::rank(gens), 400000);
    if (space <= 400000) {
      if (auto bfs = optimal_prep_bfs(state, options.coupling.get())) {
        if (options.proof_sink != nullptr) {
          options.proof_sink->record_absent(
              options.proof_label,
              std::to_string(bfs->cnot_count()) +
                  " CNOTs is the minimal preparation gate count",
              "exact breadth-first search over the subspace graph; no SAT "
              "query involved");
        }
        return finish(std::move(bfs));
      }
    }
  }

  auto rr = f2::rref(gens);
  rr.reduced.remove_zero_rows();
  const BitMatrix start = rr.reduced;
  const std::size_t r = start.rows();

  std::size_t nonzero_cols = 0;
  for (std::size_t q = 0; q < n; ++q) {
    if (start.column(q).any()) {
      ++nonzero_cols;
    }
  }
  const std::size_t lower_bound = nonzero_cols > r ? nonzero_cols - r : 0;

  if (lower_bound == 0) {
    // The generator matrix is already a product state: |+> on its
    // nonzero columns, no CNOTs.
    if (options.proof_sink != nullptr) {
      options.proof_sink->record_absent(
          options.proof_label,
          "0 CNOTs is the minimal preparation gate count",
          "the generator matrix is already a product state; no SAT query "
          "involved");
    }
    circuit::Circuit prep(n);
    for (std::size_t q = 0; q < n; ++q) {
      if (start.column(q).any()) {
        prep.prep_x(q);
      } else {
        prep.prep_z(q);
      }
    }
    return finish(std::move(prep));
  }

  try {
    return finish(optimal_prep_sat(state, start, lower_bound, options));
  } catch (const sat::Solver::SolveInterrupted&) {
    return std::nullopt;  // Budget exhausted: fall back, do not cache.
  }
}

}  // namespace ftsp::core
