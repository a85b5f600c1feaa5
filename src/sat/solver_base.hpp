#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace ftsp::sat {

/// A DRAT refutation snapshot, taken at the moment a `solve()` call
/// concluded UNSAT while proof logging was enabled.
///
/// `premise` is the formula the refutation is stated against: every
/// clause handed to `add_clause` while logging was on, verbatim (clauses
/// added before logging was enabled are represented by the solver's
/// simplified database at enable time, which is a consequence of them).
/// `assumptions` are the assumption literals of the refuted query; each
/// acts as an additional premise unit clause, so the checked statement is
/// "premise AND assumptions is unsatisfiable" — exactly the claim an
/// assumption-based bound sweep makes. `drat` is the proof text, one
/// clause per line in DIMACS numbering (var + 1, negative = negated):
/// additions as "l1 .. lk 0", deletions as "d l1 .. lk 0", terminated by
/// the empty clause "0".
struct UnsatProof {
  std::vector<std::vector<Lit>> premise;
  std::vector<Lit> assumptions;
  std::string drat;
};

/// Cumulative search statistics. Counters only ever increase between
/// `reset_stats()` calls; per-sweep deltas are obtained by subtraction.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t removed_clauses = 0;

  SolverStats& operator+=(const SolverStats& o);
  SolverStats& operator-=(const SolverStats& o);
  friend SolverStats operator+(SolverStats a, const SolverStats& b) {
    return a += b;
  }
  friend SolverStats operator-(SolverStats a, const SolverStats& b) {
    return a -= b;
  }
};

/// One step of an incremental bound sweep: the queried bound, the verdict,
/// and the solver-statistics delta attributable to just this step.
struct SweepStep {
  std::size_t bound = 0;
  bool sat = false;
  SolverStats delta;
};

/// Telemetry sink for assumption-based bound sweeps. Synthesis routines
/// append one `SweepStep` per `solve(assumptions)` call when a telemetry
/// pointer is supplied in their options.
struct SweepTelemetry {
  std::vector<SweepStep> steps;

  std::uint64_t total_conflicts() const {
    std::uint64_t total = 0;
    for (const auto& s : steps) {
      total += s.delta.conflicts;
    }
    return total;
  }
};

/// Abstract SAT backend: the narrow surface the synthesis layer programs
/// against. Implemented by the sequential CDCL `Solver` and by the
/// portfolio `ParallelSolver`, so every CNF built through
/// `CnfBuilder` can be decided by either engine.
class SolverBase {
 public:
  virtual ~SolverBase() = default;

  /// Creates a fresh variable and returns it.
  virtual Var new_var() = 0;
  virtual int num_vars() const = 0;

  /// Adds a clause. Returns false if the formula is now trivially
  /// unsatisfiable (adding to an UNSAT solver is a no-op).
  virtual bool add_clause(std::span<const Lit> lits) = 0;
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Decides satisfiability under the given assumptions.
  virtual bool solve(std::span<const Lit> assumptions) = 0;
  bool solve() { return solve(std::span<const Lit>{}); }
  bool solve(std::initializer_list<Lit> assumptions) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Model access; only valid after `solve()` returned true.
  virtual bool model_value(Var v) const = 0;
  bool model_value(Lit l) const { return model_value(l.var()) != l.sign(); }

  /// False once the clause database is known unsatisfiable at level 0.
  virtual bool okay() const = 0;

  /// Optional hard limit on conflicts per `solve()` call; 0 = unlimited.
  /// When the budget is exhausted `solve()` throws `SolveInterrupted`.
  virtual void set_conflict_budget(std::uint64_t budget) = 0;

  virtual SolverStats stats() const = 0;

  /// Zeroes the statistics counters so subsequent queries report
  /// per-sweep deltas instead of lifetime totals.
  virtual void reset_stats() = 0;

  /// Snapshot of the problem clauses (including level-0 units), suitable
  /// for DIMACS export. Learned clauses are excluded.
  virtual std::vector<std::vector<Lit>> problem_clauses() const = 0;

  /// Enables DRAT proof logging. Off by default; when off the solver is
  /// bit-identical to a solver without the feature. Enable before adding
  /// clauses for a verbatim premise (enabling later summarizes earlier
  /// clauses by the current simplified database). Backends that cannot
  /// produce proofs ignore the request.
  virtual void set_proof_logging(bool enable) { (void)enable; }
  virtual bool proof_logging() const { return false; }

  /// The refutation of the most recent `solve()` that returned false,
  /// or nullopt when logging is off, no UNSAT verdict has been produced
  /// since logging was enabled, or the backend keeps no proof log.
  virtual std::optional<UnsatProof> last_unsat_proof() const {
    return std::nullopt;
  }

  struct SolveInterrupted {};
};

inline SolverStats& SolverStats::operator+=(const SolverStats& o) {
  decisions += o.decisions;
  propagations += o.propagations;
  conflicts += o.conflicts;
  restarts += o.restarts;
  learned_clauses += o.learned_clauses;
  removed_clauses += o.removed_clauses;
  return *this;
}

inline SolverStats& SolverStats::operator-=(const SolverStats& o) {
  decisions -= o.decisions;
  propagations -= o.propagations;
  conflicts -= o.conflicts;
  restarts -= o.restarts;
  learned_clauses -= o.learned_clauses;
  removed_clauses -= o.removed_clauses;
  return *this;
}

}  // namespace ftsp::sat
