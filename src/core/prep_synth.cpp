#include "core/prep_synth.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bound_sweep.hpp"
#include "core/synth_cache.hpp"
#include "f2/gauss.hpp"
#include "sat/cnf_builder.hpp"

namespace ftsp::core {

using f2::BitMatrix;
using f2::BitVec;

namespace {

void check_coupling_sites(const qec::CouplingMap* map, std::size_t n) {
  if (map != nullptr && map->num_sites() != n) {
    throw std::invalid_argument(
        "synthesize_prep: coupling map '" + map->name() + "' has " +
        std::to_string(map->num_sites()) + " sites but the state has " +
        std::to_string(n) + " qubits");
  }
}

/// A CNOT (control, target). Read in reverse it is the column addition
/// col t += col c on the X-generator matrix, its self-inverse action.
using Move = std::pair<std::size_t, std::size_t>;

/// The reverse problem every construction below searches: drive the
/// state's reduced X-generator matrix by legal column additions until its
/// support spans at most `rank()` columns, i.e. the state became a
/// product state. The moves, read forward, are the preparation circuit.
class ReverseProblem {
 public:
  ReverseProblem(const qec::StateContext& state, const qec::CouplingMap* map)
      : map_(qec::coupling_constrained(map) ? map : nullptr) {
    auto rr = f2::rref(state.stabilizer_generators(qec::PauliType::X));
    rr.reduced.remove_zero_rows();
    start_ = std::move(rr.reduced);
    const std::size_t n = num_qubits();
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t t = 0; t < n; ++t) {
        if (legal({c, t})) {
          moves_.emplace_back(c, t);
        }
      }
    }
  }

  std::size_t num_qubits() const { return start_.cols(); }
  std::size_t rank() const { return start_.rows(); }
  const BitMatrix& start() const { return start_; }
  /// Every coupling-legal move in lexicographic (c, t) order: the order
  /// of the greedy's tie list, the BFS expansion and the SAT variables.
  const std::vector<Move>& moves() const { return moves_; }
  bool legal(const Move& move) const {
    return move.first != move.second &&
           (map_ == nullptr || map_->allows(move.first, move.second));
  }

  /// The nonzero columns of `m`: the qubits a product state puts in |+>.
  static BitVec support(const BitMatrix& m) {
    BitVec columns(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      columns |= m.row(i);
    }
    return columns;
  }
  bool is_product(const BitMatrix& m) const {
    return support(m).popcount() <= rank();
  }
  /// Each move zeroes at most one column, so reaching a product state
  /// takes at least this many.
  std::size_t lower_bound() const {
    const std::size_t columns = support(start_).popcount();
    return columns > rank() ? columns - rank() : 0;
  }

  static void apply(BitMatrix& m, const Move& move) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      if (m.get(i, move.first)) {
        m.row(i).flip(move.second);
      }
    }
  }

  /// The forward circuit: |+> on `plus`, |0> elsewhere, then `cnots`.
  circuit::Circuit emit(const BitVec& plus,
                        const std::vector<Move>& cnots) const {
    circuit::Circuit prep(num_qubits());
    for (std::size_t q = 0; q < num_qubits(); ++q) {
      if (plus.get(q)) {
        prep.prep_x(q);
      } else {
        prep.prep_z(q);
      }
    }
    for (const auto& [c, t] : cnots) {
      prep.cnot(c, t);
    }
    return prep;
  }

 private:
  const qec::CouplingMap* map_;  ///< Null when unconstrained.
  BitMatrix start_;
  std::vector<Move> moves_;
};

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

/// The fan-out of a reduced generator matrix: pivot qubits start in |+>,
/// and every non-pivot support entry of row i becomes a CNOT from the
/// row's pivot. Null when one of those CNOTs is not a legal move.
std::optional<circuit::Circuit> fan_out(const ReverseProblem& problem,
                                        const OrderedRref& r) {
  BitVec plus(problem.num_qubits());
  std::vector<Move> cnots;
  // Rows past the last pivot are zero.
  for (std::size_t i = 0; i < r.pivots.size(); ++i) {
    plus.set(r.pivots[i]);
    for (std::size_t q : r.reduced.row(i).ones()) {
      if (q != r.pivots[i]) {
        if (!problem.legal({r.pivots[i], q})) {
          return std::nullopt;
        }
        cnots.emplace_back(r.pivots[i], q);
      }
    }
  }
  return problem.emit(plus, cnots);
}

/// One greedy reverse-synthesis run: apply weight-reducing column
/// additions to the generator matrix until it is a product state. Row
/// operations are free (the state only depends on the row space), which
/// guarantees a strictly weight-reducing move always exists. The reversed
/// op sequence is the preparation circuit; unlike plain RREF fan-out this
/// yields chain/tree CNOT structures whose spread errors are largely
/// stabilizer-equivalent to low-weight errors.
std::optional<circuit::Circuit> greedy_reverse_prep(
    const ReverseProblem& problem, std::mt19937_64& rng) {
  const std::size_t n = problem.num_qubits();
  BitMatrix m = problem.start();
  std::vector<Move> ops;
  const std::size_t max_ops = 4 * n * n;
  while (!problem.is_product(m) && ops.size() < max_ops) {
    // Free row reduction keeps the greedy landscape canonical.
    auto rr = f2::rref(m);
    rr.reduced.remove_zero_rows();
    m = rr.reduced;
    if (problem.is_product(m)) {
      break;
    }
    std::vector<BitVec> columns;
    columns.reserve(n);
    for (std::size_t q = 0; q < n; ++q) {
      columns.push_back(m.column(q));
    }
    std::ptrdiff_t best_gain = -1;
    bool best_zeroes = false;
    std::vector<Move> best_ops;
    for (const Move& move : problem.moves()) {
      const BitVec& col_c = columns[move.first];
      const BitVec& col_t = columns[move.second];
      if (col_c.none() || col_t.none()) {
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
      best_ops.push_back(move);
    }
    if (best_ops.empty() || best_gain < 0) {
      return std::nullopt;  // Should not happen; caller falls back.
    }
    const Move move = best_ops[rng() % best_ops.size()];
    ReverseProblem::apply(m, move);
    ops.push_back(move);
  }
  if (!problem.is_product(m)) {
    return std::nullopt;
  }
  std::reverse(ops.begin(), ops.end());
  return problem.emit(ReverseProblem::support(m), ops);
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

  const ReverseProblem problem(state, map);
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
    if (auto candidate = fan_out(problem, reduced)) {
      best_cost = cost;
      best = std::move(candidate);
    }
  }

  // Greedy reverse synthesis with randomized tie-breaking usually beats
  // the fan-out; keep the best CNOT count over the configured tries.
  std::mt19937_64 rng(options.seed);
  const std::size_t tries = std::max<std::size_t>(options.shuffle_tries, 1);
  for (std::size_t t = 0; t < tries; ++t) {
    if (auto candidate = greedy_reverse_prep(problem, rng)) {
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
    const ReverseProblem& problem) {
  struct Node {
    BitMatrix m;
    std::size_t parent;
    Move op;
  };
  std::vector<Node> nodes;
  std::unordered_map<std::string, std::size_t> seen;
  nodes.push_back({problem.start(), SIZE_MAX, {0, 0}});
  seen.emplace(rowspace_key(problem.start()), 0);

  std::size_t found = SIZE_MAX;
  if (problem.is_product(problem.start())) {
    found = 0;
  }
  for (std::size_t head = 0; head < nodes.size() && found == SIZE_MAX;
       ++head) {
    // Copy: nodes may reallocate while expanding.
    const BitMatrix m = nodes[head].m;
    const BitVec active = ReverseProblem::support(m);
    for (const Move& move : problem.moves()) {
      if (!active.get(move.first)) {
        continue;
      }
      BitMatrix next = m;
      ReverseProblem::apply(next, move);
      const std::string key = rowspace_key(next);
      if (seen.contains(key)) {
        continue;
      }
      seen.emplace(key, nodes.size());
      nodes.push_back({std::move(next), head, move});
      if (problem.is_product(nodes.back().m)) {
        found = nodes.size() - 1;
        break;
      }
    }
  }
  if (found == SIZE_MAX) {
    return std::nullopt;
  }

  // The path read back from the product state is last-op-first, which
  // is exactly forward-circuit order.
  std::vector<Move> ops;
  for (std::size_t at = found; nodes[at].parent != SIZE_MAX;
       at = nodes[at].parent) {
    ops.push_back(nodes[at].op);
  }
  return problem.emit(ReverseProblem::support(nodes[found].m), ops);
}

using sat::Lit;

/// Records the proof outcome of a gate-count sweep that found a circuit
/// with `found_gates` CNOTs. The sweep visits every count from the
/// structural lower bound upward, so the chronologically last UNSAT leg
/// sits at `found_gates - 1` — the refutation anchoring minimality.
void record_prep_outcome(ProofSink& sink, const std::string& stage,
                         std::size_t found_gates,
                         const std::optional<SweepRefutation>& refutation) {
  if (!refutation.has_value()) {
    sink.record_absent(
        stage,
        std::to_string(found_gates) +
            " CNOTs is the minimal preparation gate count",
        "optimal gate count equals the structural lower bound; the sweep "
        "had no UNSAT leg");
    return;
  }
  sink.record(make_checked_proof(
      stage,
      "no preparation circuit with exactly " +
          std::to_string(refutation->bound) + " CNOTs exists",
      refutation->bound, refutation->proof));
}

/// One encoded "a reverse circuit of exactly `num_gates` legal moves
/// reaches a product state" query of the gate-count sweep. The
/// constructor only encodes; the sweep solves and decodes. Slot k holds
/// one selector per legal move (exactly one is true); the matrix after
/// each slot is a Tseitin function of the selectors. The clause order is
/// part of the captured proofs' bytes.
struct PrepQuery {
  std::unique_ptr<sat::Solver> solver;
  sat::CnfBuilder cnf;
  /// [slot][move index into `ReverseProblem::moves()`].
  std::vector<std::vector<Lit>> selectors;
  /// The matrix after the last slot, [row][column].
  std::vector<std::vector<Lit>> m;

  PrepQuery(const ReverseProblem& problem, std::size_t num_gates,
            const PrepSynthOptions& options)
      : solver(make_query_solver(options.engine, options.sat_conflict_budget,
                                 options.proof_sink)),
        cnf(*solver) {
    const std::size_t n = problem.num_qubits();
    const std::size_t r = problem.rank();
    const std::vector<Move>& moves = problem.moves();
    m.assign(r, std::vector<Lit>(n));
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t q = 0; q < n; ++q) {
        m[i][q] = cnf.constant(problem.start().get(i, q));
      }
    }
    for (std::size_t k = 0; k < num_gates; ++k) {
      std::vector<Lit> sel(moves.size());
      for (std::size_t j = 0; j < moves.size(); ++j) {
        sel[j] = cnf.fresh();
        // Pruning: adding a zero column is a no-op, and a minimal circuit
        // has none.
        std::vector<Lit> source_nonzero;
        source_nonzero.reserve(r + 1);
        source_nonzero.push_back(~sel[j]);
        for (std::size_t i = 0; i < r; ++i) {
          source_nonzero.push_back(m[i][moves[j].first]);
        }
        solver->add_clause(source_nonzero);
        // Pruning: two identical adjacent ops cancel; a minimal circuit
        // has none.
        if (k > 0) {
          solver->add_binary(~selectors[k - 1][j], ~sel[j]);
        }
      }
      cnf.add_exactly_one(sel);

      // Symmetry breaking: adjacent ops (c,t), (c',t') commute iff
      // t != c' and t' != c; force commuting adjacent pairs into
      // lexicographically non-decreasing order.
      if (k > 0) {
        for (std::size_t j = 0; j < moves.size(); ++j) {
          const auto [c, t] = moves[j];
          for (std::size_t j2 = 0; j2 < moves.size(); ++j2) {
            const auto [c2, t2] = moves[j2];
            if (t != c2 && t2 != c && moves[j2] < moves[j]) {
              solver->add_binary(~selectors[k - 1][j], ~sel[j2]);
            }
          }
        }
      }

      std::vector<std::vector<Lit>> next(r, std::vector<Lit>(n));
      for (std::size_t q = 0; q < n; ++q) {
        for (std::size_t i = 0; i < r; ++i) {
          std::vector<Lit> adds;
          for (std::size_t j = 0; j < moves.size(); ++j) {
            if (moves[j].second == q) {
              adds.push_back(cnf.and_of({sel[j], m[i][moves[j].first]}));
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
  }
  /// `cnf` points into this object.
  PrepQuery(PrepQuery&&) = delete;

  /// After a satisfying solve: |+> on the final nonzero columns, then the
  /// selected moves, last slot first.
  circuit::Circuit decode(const ReverseProblem& problem) const {
    BitVec plus(problem.num_qubits());
    for (const auto& row : m) {
      for (std::size_t q = 0; q < row.size(); ++q) {
        if (solver->model_value(row[q])) {
          plus.set(q);
        }
      }
    }
    std::vector<Move> cnots;
    for (std::size_t k = selectors.size(); k-- > 0;) {
      for (std::size_t j = 0; j < selectors[k].size(); ++j) {
        if (solver->model_value(selectors[k][j])) {
          cnots.push_back(problem.moves()[j]);
        }
      }
    }
    return problem.emit(plus, cnots);
  }
};

/// The SAT gate-count sweep: every count from the structural lower bound
/// up to `options.max_cnots`, one fresh query each.
std::optional<circuit::Circuit> optimal_prep_sat(
    const ReverseProblem& problem, const PrepSynthOptions& options) {
  if (problem.moves().empty()) {
    return std::nullopt;  // No legal CNOT exists at all.
  }
  std::optional<SweepRefutation> refutation;
  for (std::size_t num_gates = problem.lower_bound();
       num_gates <= options.max_cnots; ++num_gates) {
    std::optional<circuit::Circuit> prep;
    {
      PrepQuery query(problem, num_gates, options);
      // SolveInterrupted (budget exhausted) propagates to the caller,
      // which must tell "gave up" from "proven infeasible" for the cache.
      if (query.solver->solve()) {
        prep = query.decode(problem);
      } else if (options.proof_sink != nullptr) {
        refutation = SweepRefutation{
            query.solver->take_unsat_proof().value(), num_gates};
      }
    }
    if (prep.has_value()) {
      // The refutation is checked with the search's memory released.
      if (options.proof_sink != nullptr) {
        record_prep_outcome(*options.proof_sink, options.proof_label,
                            num_gates, refutation);
      }
      return prep;
    }
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

/// The uncached optimal search: subspace BFS where eligible, the
/// product-state shortcut, else the SAT gate-count sweep.
std::optional<circuit::Circuit> prep_optimal_uncached(
    const qec::StateContext& state, const PrepSynthOptions& options) {
  const ReverseProblem problem(state, options.coupling.get());

  // Exact subspace BFS where the state space is small enough. Under a
  // constrained map the subspace graph only shrinks (fewer edges, same
  // node bound), so the same eligibility limit applies.
  if (options.allow_bfs &&
      count_subspaces(problem.num_qubits(), problem.rank(), 400000) <=
          400000) {
    if (auto bfs = optimal_prep_bfs(problem)) {
      if (options.proof_sink != nullptr) {
        options.proof_sink->record_absent(
            options.proof_label,
            std::to_string(bfs->cnot_count()) +
                " CNOTs is the minimal preparation gate count",
            "exact breadth-first search over the subspace graph; no SAT "
            "query involved");
      }
      return bfs;
    }
  }

  if (problem.lower_bound() == 0) {
    // The generator matrix is already a product state: |+> on its
    // nonzero columns, no CNOTs.
    if (options.proof_sink != nullptr) {
      options.proof_sink->record_absent(
          options.proof_label,
          "0 CNOTs is the minimal preparation gate count",
          "the generator matrix is already a product state; no SAT query "
          "involved");
    }
    return problem.emit(ReverseProblem::support(problem.start()), {});
  }
  return optimal_prep_sat(problem, options);
}

}  // namespace

std::optional<circuit::Circuit> synthesize_prep_optimal(
    const qec::StateContext& state, const PrepSynthOptions& options) {
  const BitMatrix& gens = state.stabilizer_generators(qec::PauliType::X);
  const std::size_t n = state.num_qubits();
  check_coupling_sites(options.coupling.get(), n);
  try {
    return cached_synthesis(
        options, "CNOT-minimal preparation circuit",
        [&] { return prep_cache_key(gens, options); },
        [](const circuit::Circuit& c) { return c.to_text(); },
        [n](const std::string& text) {
          return circuit::Circuit::from_text(text, n);
        },
        [&] { return prep_optimal_uncached(state, options); });
  } catch (const sat::Solver::SolveInterrupted&) {
    return std::nullopt;  // Budget exhausted: fall back, do not cache.
  }
}

}  // namespace ftsp::core
