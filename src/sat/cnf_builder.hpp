#pragma once

#include <span>
#include <vector>

#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace ftsp::sat {

/// A reusable at-most-k scaffold over a fixed literal set (Sinz counter
/// without hard overflow clauses): `count_ge[j]` is forced true whenever
/// more than `j` of the literals are true. Assuming `at_most(k)` therefore
/// enforces "at most k true" for just that `solve()` call, so a single
/// encoding supports a whole bound sweep — the activation-literal pattern
/// of incremental SAT (cf. arXiv:2305.01674).
struct CardinalityLadder {
  std::vector<Lit> count_ge;  // count_ge[j] <- "at least j+1 literals true".

  std::size_t max_bound() const { return count_ge.size(); }

  /// Assumption literal enforcing "at most k"; requires k < max_bound()
  /// (larger bounds are vacuous — pass no assumption instead).
  Lit at_most(std::size_t k) const { return ~count_ge[k]; }
};

/// Encoding helpers layered on top of a SAT backend.
///
/// `CnfBuilder` owns nothing; it appends clauses and auxiliary variables to
/// the solver it wraps. All helpers use standard Tseitin-style encodings so
/// the resulting formulas stay equisatisfiable and model values of the
/// returned defined literals are exact.
class CnfBuilder {
 public:
  explicit CnfBuilder(Solver& solver) : solver_(&solver) {}

  Solver& solver() { return *solver_; }

  /// A fresh variable as a positive literal.
  Lit fresh();

  /// Constant literals (lazily created single-valued variables).
  Lit constant(bool value);

  /// Returns a literal equivalent to the XOR (parity) of `inputs`.
  /// Empty input yields constant false. Uses a linear chain of 2-input
  /// XOR definitions.
  Lit xor_of(std::span<const Lit> inputs);
  Lit xor_of(std::initializer_list<Lit> inputs);

  /// Returns a literal equivalent to the AND of `inputs`.
  /// Empty input yields constant true.
  Lit and_of(std::span<const Lit> inputs);
  Lit and_of(std::initializer_list<Lit> inputs);

  /// Returns a literal equivalent to the OR of `inputs`.
  /// Empty input yields constant false.
  Lit or_of(std::span<const Lit> inputs);
  Lit or_of(std::initializer_list<Lit> inputs);

  /// Adds clauses forcing `out <-> a XOR b`.
  void define_xor2(Lit out, Lit a, Lit b);

  /// Adds clauses forcing `a -> b`.
  void add_implies(Lit a, Lit b) { solver_->add_binary(~a, b); }

  /// Adds clauses forcing `a <-> b`.
  void add_equal(Lit a, Lit b);

  /// Adds an at-most-k cardinality constraint over `lits` using the Sinz
  /// sequential-counter encoding. `k == 0` forces all literals false.
  void add_at_most_k(std::span<const Lit> lits, std::size_t k);

  /// Builds a `CardinalityLadder` over `lits` supporting assumption-based
  /// bounds up to `max_bound - 1` (i.e. `at_most(k)` for k < max_bound).
  /// The ladder adds no hard bound by itself.
  CardinalityLadder make_cardinality_ladder(std::span<const Lit> lits,
                                            std::size_t max_bound);

  /// Adds an at-least-one constraint (a plain clause).
  void add_at_least_one(std::span<const Lit> lits);

  /// Pairwise at-most-one plus at-least-one.
  void add_exactly_one(std::span<const Lit> lits);

 private:
  Solver* solver_;
  Lit true_lit_ = Lit::undef;
};

}  // namespace ftsp::sat
