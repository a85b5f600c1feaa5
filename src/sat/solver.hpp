#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sat/clause_arena.hpp"
#include "sat/proof_hints.hpp"
#include "sat/types.hpp"

namespace ftsp::sat {

/// What a solver logs while proof logging is on, append-only: the premise
/// (every clause handed to `add_clause`, verbatim; clauses added before
/// logging was enabled are represented by the solver's simplified database
/// at enable time, which is a consequence of them), the proof lines and the
/// hints of every step. A line is a learnt clause or a deletion, stored as
/// literals: line i is `lits` up to `line_ends[i]`, from the previous end.
/// `to_drat` (sat/dimacs.hpp) renders lines as text.
struct ProofLog {
  std::vector<std::vector<Lit>> premise;
  std::vector<Lit> lits;
  std::vector<std::size_t> line_ends;
  std::vector<bool> deletions;
  ProofHints hints;

  std::size_t lines() const { return line_ends.size(); }
  std::span<const Lit> line(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : line_ends[i - 1];
    return std::span<const Lit>(lits).subspan(begin, line_ends[i] - begin);
  }
  void add_line(std::span<const Lit> clause, bool deletion) {
    lits.insert(lits.end(), clause.begin(), clause.end());
    line_ends.push_back(lits.size());
    deletions.push_back(deletion);
  }
};

/// A DRAT refutation snapshot, taken at the moment a `solve()` call
/// concluded UNSAT while proof logging was enabled: the solver's log and
/// the prefix of it the refutation covers, its first `premise_size`
/// premise clauses, `lines` lines and `steps` hint steps. Later queries
/// only append to the log, so no snapshot is copied or changed. Read a
/// snapshot on its solver's thread, or after the solver is gone.
///
/// `premise()` is the formula the refutation is stated against.
/// `assumptions` are the assumption literals of the refuted query; each
/// acts as an additional premise unit clause, so the checked statement is
/// "premise AND assumptions is unsatisfiable" — exactly the claim an
/// assumption-based bound sweep makes. `drat()` renders the proof text,
/// one clause per line in DIMACS numbering (var + 1, negative = negated):
/// additions as "l1 .. lk 0", deletions as "d l1 .. lk 0", terminated by
/// the empty clause "0". `hints()` holds the antecedents of every other
/// addition line and of the root-level literals (its first `steps` steps
/// belong to this refutation), and `refutation` the chain that derives the
/// empty clause.
struct UnsatProof {
  std::shared_ptr<const ProofLog> log = std::make_shared<const ProofLog>();
  std::size_t premise_size = 0;
  std::size_t lines = 0;
  std::size_t steps = 0;
  std::vector<Lit> assumptions;
  std::vector<std::uint32_t> refutation;

  std::span<const std::vector<Lit>> premise() const;
  std::string drat() const;
  const ProofHints& hints() const;
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

/// A CDCL SAT solver in the MiniSat lineage.
///
/// Features: two-watched-literal unit propagation, first-UIP conflict
/// analysis with recursive clause minimization, VSIDS variable activities
/// with an indexed heap, phase saving, Luby restarts, activity/LBD-based
/// learned-clause deletion, and incremental solving under assumptions.
/// The search is fully deterministic: equal formulas and equal call
/// sequences always take identical search paths.
///
/// This is the substrate standing in for Z3 in the paper's synthesis flow:
/// all verification- and correction-circuit synthesis queries are encoded
/// as CNF (see `CnfBuilder`) and decided here.
class Solver {
 public:
  Solver() = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Thrown by `solve()` when the conflict budget runs out first.
  struct SolveInterrupted {};

  /// Creates a fresh variable and returns it.
  Var new_var();

  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause. Returns false if the formula is now trivially
  /// unsatisfiable (adding to an UNSAT solver is a no-op).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_unit(Lit a) { return add_clause({a}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Decides satisfiability under the given assumptions. Throws
  /// `SolveInterrupted` when the conflict budget is exhausted before a
  /// verdict.
  bool solve(std::span<const Lit> assumptions);
  bool solve() { return solve(std::span<const Lit>{}); }
  bool solve(std::initializer_list<Lit> assumptions) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Budgeted solve: decides the formula under `assumptions` within at
  /// most `max_conflicts` additional conflicts (0 = unlimited). Returns
  /// `LBool::Undef` (without throwing) when the limit is hit. Learned
  /// clauses persist, so re-calling with a larger budget resumes warm.
  LBool solve_limited(std::span<const Lit> assumptions,
                      std::uint64_t max_conflicts);

  /// Model access; only valid after `solve()` returned true.
  bool model_value(Var v) const;
  bool model_value(Lit l) const { return model_value(l.var()) != l.sign(); }

  /// False once the clause database is known unsatisfiable at level 0.
  bool okay() const { return ok_; }

  SolverStats stats() const { return stats_; }
  /// Zeroes the statistics counters so subsequent queries report
  /// per-sweep deltas instead of lifetime totals.
  void reset_stats() { stats_ = SolverStats{}; }

  /// Optional hard limit on conflicts per `solve()` call; 0 = unlimited.
  /// When the budget is exhausted `solve()` throws `SolveInterrupted`.
  void set_conflict_budget(std::uint64_t budget) {
    conflict_budget_ = budget;
  }

  /// Snapshot of the problem clauses (including level-0 units), suitable
  /// for DIMACS export. Learned clauses are excluded.
  std::vector<std::vector<Lit>> problem_clauses() const;

  /// Enables DRAT proof logging, with the antecedent hints of every lemma
  /// and root-level literal. Off by default. Logging is pure observation:
  /// search paths, models, and statistics are bit-identical either way.
  /// Enable before adding clauses for a verbatim premise (enabling later
  /// summarizes earlier clauses by the current simplified database), and
  /// before the first solve: clauses learnt earlier have no place in the
  /// proof, so a chain that cites one fails the hinted check.
  void set_proof_logging(bool enable);
  bool proof_logging() const { return proof_logging_; }

  /// Moves out the refutation of the most recent `solve()` that returned
  /// false, or nullopt when logging is off, no UNSAT verdict has been
  /// produced since logging was enabled, or it was already taken.
  std::optional<UnsatProof> take_unsat_proof() {
    return std::exchange(last_proof_, std::nullopt);
  }

 private:
  // --- Assignment state -------------------------------------------------
  std::vector<LBool> assigns_;          // Current value per variable.
  std::vector<bool> polarity_;          // Saved phase per variable.
  std::vector<CRef> reason_;            // Implying clause per variable.
  std::vector<int> level_;              // Decision level per variable.
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;          // Trail index at each decision level.
  std::size_t qhead_ = 0;               // Propagation queue head.

  // --- Clause database --------------------------------------------------
  ClauseArena arena_;
  std::vector<CRef> clauses_;  // Problem clauses.
  std::vector<CRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // Indexed by literal code.
  double clause_inc_ = 1.0;

  // --- Decision heuristic -----------------------------------------------
  // VSIDS decay: the activity increment grows by 1/decay per conflict.
  static constexpr double kVarActivityDecay = 0.95;
  std::vector<double> var_activity_;
  double var_inc_ = 1.0;
  std::vector<int> heap_;       // Binary max-heap of variables by activity.
  std::vector<int> heap_pos_;   // Position of each var in heap_, -1 if out.

  // --- Misc ---------------------------------------------------------------
  bool ok_ = true;
  std::vector<bool> model_;
  std::vector<bool> seen_;
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> analyze_stack_;          // lit_redundant's work list.
  std::vector<Lit> learnt_clause_;          // The clause analyze() derives.
  std::vector<std::uint64_t> level_stamp_;  // compute_lbd's seen levels.
  std::vector<int> trail_pos_;              // Trail index per variable.
  std::uint64_t lbd_stamp_ = 0;
  SolverStats stats_;
  std::uint64_t conflict_budget_ = 0;

  // --- DRAT proof logging -------------------------------------------------
  // Every clause in the arena carries its proof ID (see ProofHints):
  // kNone when it was added or learnt while logging was off.
  bool proof_logging_ = false;
  std::shared_ptr<ProofLog> proof_log_;  // Shared with live snapshots.
  std::vector<std::uint32_t> refutation_;   // The empty clause's chain.
  std::vector<std::uint32_t> lemma_chain_;  // The chain being assembled.
  std::vector<Lit> lemma_implied_;  // Minimization's implied literals.
  std::optional<UnsatProof> last_proof_;

  // --- Internals ----------------------------------------------------------
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  LBool value(Var v) const { return assigns_[v]; }
  LBool value(Lit l) const { return assigns_[l.var()] ^ l.sign(); }

  void attach_clause(CRef c);
  void detach_clause(CRef c);
  void unchecked_enqueue(Lit l, CRef from);
  void enqueue_unit(Lit l, std::uint32_t id);
  CRef propagate();
  void analyze(CRef conflict, int& out_btlevel, int& out_lbd);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void cancel_until(int level);
  Lit pick_branch_lit();
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  void var_bump_activity(Var v);
  void var_decay_activity() { var_inc_ /= kVarActivityDecay; }
  void clause_bump_activity(CRef c);
  void clause_decay_activity() { clause_inc_ /= 0.999; }
  void rescale_var_activity();
  void reduce_db();
  void compact_arena();
  int compute_lbd(std::span<const Lit> lits);
  void proof_log_clause(std::span<const Lit> lits, bool deletion);
  std::uint32_t proof_log_lemma();
  void proof_log_root(Lit l, std::uint32_t id);
  void proof_log_refutation(std::uint32_t id) { refutation_.assign(1, id); }
  void proof_log_failed_assumption(Lit a);
  void proof_snapshot(std::span<const Lit> assumptions);

  // Heap operations.
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  bool heap_lt(Var a, Var b) const {
    return var_activity_[a] > var_activity_[b];
  }

  enum class SearchStatus { Sat, Unsat, Restart };
  SearchStatus search(std::uint64_t conflicts_allowed,
                      std::span<const Lit> assumptions);
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

/// Luby sequence value (1-indexed): 1 1 2 1 1 2 4 ...
std::uint64_t luby(std::uint64_t i);

}  // namespace ftsp::sat
