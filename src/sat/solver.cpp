#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/registry.hpp"

namespace ftsp::sat {

namespace {
constexpr double kActivityRescaleLimit = 1e100;
/// Conflicts per Luby restart unit.
constexpr std::uint64_t kRestartBase = 100;

/// Publishes one solve call's search-effort deltas to the telemetry
/// registry on scope exit — covers every return path of solve_limited.
/// Pure observation: nothing here feeds back into the search.
class SolveStatsObs {
 public:
  explicit SolveStatsObs(const SolverStats& stats)
      : stats_(stats), start_(stats) {}
  ~SolveStatsObs() {
    auto& registry = obs::Registry::instance();
    static obs::Counter& solves = registry.counter("sat.solve.count");
    static obs::Counter& conflicts = registry.counter("sat.conflict.count");
    static obs::Counter& propagations =
        registry.counter("sat.propagation.count");
    static obs::Counter& decisions = registry.counter("sat.decision.count");
    static obs::Counter& restarts = registry.counter("sat.restart.count");
    static obs::Counter& learned =
        registry.counter("sat.learned_clause.count");
    solves.add(1);
    conflicts.add(stats_.conflicts - start_.conflicts);
    propagations.add(stats_.propagations - start_.propagations);
    decisions.add(stats_.decisions - start_.decisions);
    restarts.add(stats_.restarts - start_.restarts);
    learned.add(stats_.learned_clauses - start_.learned_clauses);
  }
  SolveStatsObs(const SolveStatsObs&) = delete;
  SolveStatsObs& operator=(const SolveStatsObs&) = delete;

 private:
  const SolverStats& stats_;
  const SolverStats start_;
};
}  // namespace

std::uint64_t luby(std::uint64_t i) {
  // Value at 1-based position i: if i == 2^k - 1 the value is 2^(k-1);
  // otherwise the sequence restarts at position i - (2^(k-1) - 1).
  for (;;) {
    std::uint64_t k = 1;
    while (((std::uint64_t{1} << k) - 1) < i) {
      ++k;
    }
    if (((std::uint64_t{1} << k) - 1) == i) {
      return std::uint64_t{1} << (k - 1);
    }
    i -= (std::uint64_t{1} << (k - 1)) - 1;
  }
}

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(true);  // Assign-false-first (MiniSat default).
  reason_.push_back(nullptr);
  level_.push_back(0);
  var_activity_.push_back(0.0);
  seen_.push_back(false);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) {
    return false;
  }
  assert(decision_level() == 0);
  if (proof_logging_) {
    // The premise records clauses verbatim, before simplification: the
    // stored (strengthened) form is a unit-propagation consequence of the
    // original plus the level-0 units, so checking against the verbatim
    // premise stays sound even when simplification drops an entire clause
    // (e.g. one whose literals are all false at level 0).
    proof_premise_.emplace_back(lits.begin(), lits.end());
  }

  // Simplify: sort, deduplicate, drop false literals, detect tautology and
  // clauses already satisfied at level 0.
  std::vector<Lit> c(lits.begin(), lits.end());
  std::sort(c.begin(), c.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> simplified;
  simplified.reserve(c.size());
  Lit prev = Lit::undef;
  for (Lit l : c) {
    assert(l.var() >= 0 && l.var() < num_vars());
    if (value(l) == LBool::True || l == ~prev) {
      return true;  // Satisfied or tautological.
    }
    if (value(l) == LBool::False || l == prev) {
      continue;  // Falsified at level 0 or duplicate.
    }
    simplified.push_back(l);
    prev = l;
  }

  if (simplified.empty()) {
    ok_ = false;
    return false;
  }
  if (simplified.size() == 1) {
    unchecked_enqueue(simplified[0], nullptr);
    ok_ = (propagate() == nullptr);
    return ok_;
  }

  auto clause = std::make_unique<Clause>();
  clause->lits = std::move(simplified);
  attach_clause(clause.get());
  clauses_.push_back(std::move(clause));
  return true;
}

void Solver::attach_clause(ClauseRef c) {
  assert(c->lits.size() >= 2);
  watches_[(~c->lits[0]).code()].push_back({c, c->lits[1]});
  watches_[(~c->lits[1]).code()].push_back({c, c->lits[0]});
}

void Solver::detach_clause(ClauseRef c) {
  for (Lit w : {c->lits[0], c->lits[1]}) {
    auto& ws = watches_[(~w).code()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].clause == c) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::unchecked_enqueue(Lit l, ClauseRef from) {
  assert(value(l) == LBool::Undef);
  const Var v = l.var();
  assigns_[v] = lbool_from(!l.sign());
  level_[v] = decision_level();
  reason_[v] = from;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef conflict = nullptr;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.code()];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = *w.clause;
      const Lit false_lit = ~p;
      if (c.lits[0] == false_lit) {
        std::swap(c.lits[0], c.lits[1]);
      }
      assert(c.lits[1] == false_lit);
      ++i;

      const Lit first = c.lits[0];
      const Watcher keep{w.clause, first};
      if (first != w.blocker && value(first) == LBool::True) {
        ws[j++] = keep;
        continue;
      }

      bool rewatched = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != LBool::False) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).code()].push_back(keep);
          rewatched = true;
          break;
        }
      }
      if (rewatched) {
        continue;
      }

      // Clause is unit under the assignment, or conflicting.
      ws[j++] = keep;
      if (value(first) == LBool::False) {
        conflict = w.clause;
        qhead_ = trail_.size();
        while (i < ws.size()) {
          ws[j++] = ws[i++];
        }
      } else {
        unchecked_enqueue(first, w.clause);
      }
    }
    ws.resize(j);
  }
  return conflict;
}

int Solver::compute_lbd(std::span<const Lit> lits) {
  std::vector<int> levels;
  levels.reserve(lits.size());
  for (Lit l : lits) {
    levels.push_back(level_[l.var()]);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  return static_cast<int>(levels.size());
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
                     int& out_btlevel, int& out_lbd) {
  int path_count = 0;
  Lit p = Lit::undef;
  out_learnt.clear();
  out_learnt.push_back(Lit::undef);  // Slot for the asserting literal.
  int index = static_cast<int>(trail_.size()) - 1;
  ClauseRef c = conflict;

  do {
    assert(c != nullptr);
    if (c->learnt) {
      clause_bump_activity(*c);
    }
    const std::size_t start = (p == Lit::undef) ? 0 : 1;
    for (std::size_t k = start; k < c->lits.size(); ++k) {
      const Lit q = c->lits[k];
      const Var qv = q.var();
      if (!seen_[qv] && level_[qv] > 0) {
        var_bump_activity(qv);
        seen_[qv] = true;
        if (level_[qv] >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    while (!seen_[trail_[index].var()]) {
      --index;
    }
    p = trail_[index];
    --index;
    c = reason_[p.var()];
    seen_[p.var()] = false;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest.
  analyze_toclear_ = out_learnt;
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= std::uint32_t{1} << (level_[out_learnt[i].var()] & 31);
  }
  std::size_t j = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (reason_[out_learnt[i].var()] == nullptr ||
        !lit_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[j++] = out_learnt[i];
    }
  }
  out_learnt.resize(j);

  // Find the backtrack level: highest level among the non-asserting lits.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level_[out_learnt[i].var()] > level_[out_learnt[max_i].var()]) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[out_learnt[1].var()];
  }

  out_lbd = compute_lbd(out_learnt);

  for (Lit l : analyze_toclear_) {
    seen_[l.var()] = false;
  }
}

bool Solver::lit_redundant(Lit lit, std::uint32_t abstract_levels) {
  std::vector<Lit> stack{lit};
  const std::size_t top = analyze_toclear_.size();
  while (!stack.empty()) {
    const Lit q = stack.back();
    stack.pop_back();
    assert(reason_[q.var()] != nullptr);
    const Clause& c = *reason_[q.var()];
    for (std::size_t k = 1; k < c.lits.size(); ++k) {
      const Lit l = c.lits[k];
      const Var lv = l.var();
      if (!seen_[lv] && level_[lv] > 0) {
        const std::uint32_t abstract =
            std::uint32_t{1} << (level_[lv] & 31);
        if (reason_[lv] != nullptr && (abstract & abstract_levels) != 0) {
          seen_[lv] = true;
          stack.push_back(l);
          analyze_toclear_.push_back(l);
        } else {
          for (std::size_t i = top; i < analyze_toclear_.size(); ++i) {
            seen_[analyze_toclear_[i].var()] = false;
          }
          analyze_toclear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

void Solver::cancel_until(int level) {
  if (decision_level() <= level) {
    return;
  }
  for (int c = static_cast<int>(trail_.size()) - 1; c >= trail_lim_[level];
       --c) {
    const Var v = trail_[c].var();
    assigns_[v] = LBool::Undef;
    polarity_[v] = trail_[c].sign();
    reason_[v] = nullptr;
    if (heap_pos_[v] == -1) {
      heap_insert(v);
    }
  }
  qhead_ = static_cast<std::size_t>(trail_lim_[level]);
  trail_.resize(static_cast<std::size_t>(trail_lim_[level]));
  trail_lim_.resize(static_cast<std::size_t>(level));
}

Lit Solver::pick_branch_lit() {
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (value(v) == LBool::Undef) {
      return Lit(v, polarity_[v]);
    }
  }
  return Lit::undef;
}

void Solver::var_bump_activity(Var v) {
  var_activity_[v] += var_inc_;
  if (var_activity_[v] > kActivityRescaleLimit) {
    rescale_var_activity();
  }
  if (heap_pos_[v] != -1) {
    heap_update(v);
  }
}

void Solver::rescale_var_activity() {
  for (auto& a : var_activity_) {
    a *= 1e-100;
  }
  var_inc_ *= 1e-100;
}

void Solver::clause_bump_activity(Clause& c) {
  c.activity += clause_inc_;
  if (c.activity > kActivityRescaleLimit) {
    for (auto& learnt : learnts_) {
      learnt->activity *= 1e-100;
    }
    clause_inc_ *= 1e-100;
  }
}

void Solver::reduce_db() {
  // Order learned clauses worst-first: high LBD, then low activity.
  std::vector<Clause*> ordered;
  ordered.reserve(learnts_.size());
  for (auto& c : learnts_) {
    ordered.push_back(c.get());
  }
  std::sort(ordered.begin(), ordered.end(), [](const Clause* a,
                                               const Clause* b) {
    if (a->lbd != b->lbd) {
      return a->lbd > b->lbd;
    }
    return a->activity < b->activity;
  });

  const auto locked = [&](const Clause* c) {
    const Lit first = c->lits[0];
    return reason_[first.var()] == c && value(first) == LBool::True;
  };

  std::size_t to_remove = ordered.size() / 2;
  for (Clause* c : ordered) {
    if (to_remove == 0) {
      break;
    }
    if (c->lbd <= 2 || c->lits.size() == 2 || locked(c)) {
      continue;
    }
    c->removed = true;
    if (proof_logging_) {
      proof_log_clause(c->lits, /*deletion=*/true);
    }
    detach_clause(c);
    --to_remove;
    ++stats_.removed_clauses;
  }

  std::erase_if(learnts_,
                [](const std::unique_ptr<Clause>& c) { return c->removed; });
}

Solver::SearchStatus Solver::search(std::uint64_t conflicts_allowed,
                                    std::span<const Lit> assumptions) {
  std::uint64_t conflict_count = 0;
  const std::size_t max_learnts =
      std::max<std::size_t>(5000, clauses_.size() * 2);

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != nullptr) {
      ++stats_.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        ok_ = false;
        return SearchStatus::Unsat;
      }
      std::vector<Lit> learnt;
      int backtrack_level = 0;
      int lbd = 0;
      analyze(conflict, learnt, backtrack_level, lbd);
      if (proof_logging_) {
        // First-UIP clauses (with recursive minimization) are reverse unit
        // propagation consequences of the clause database at learn time,
        // so each logged addition passes a RUP check.
        proof_log_clause(learnt, /*deletion=*/false);
      }
      cancel_until(backtrack_level);
      if (learnt.size() == 1) {
        unchecked_enqueue(learnt[0], nullptr);
      } else {
        auto clause = std::make_unique<Clause>();
        clause->lits = std::move(learnt);
        clause->learnt = true;
        clause->lbd = lbd;
        ClauseRef ref = clause.get();
        attach_clause(ref);
        clause_bump_activity(*ref);
        learnts_.push_back(std::move(clause));
        ++stats_.learned_clauses;
        unchecked_enqueue(ref->lits[0], ref);
      }
      var_decay_activity();
      clause_decay_activity();
    } else {
      if (conflict_count >= conflicts_allowed) {
        cancel_until(0);
        return SearchStatus::Restart;
      }
      if (learnts_.size() >= max_learnts + trail_.size()) {
        reduce_db();
      }

      Lit next = Lit::undef;
      while (decision_level() < static_cast<int>(assumptions.size())) {
        const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::True) {
          new_decision_level();  // Already implied; dummy level.
        } else if (value(a) == LBool::False) {
          return SearchStatus::Unsat;  // Assumptions are contradictory.
        } else {
          next = a;
          break;
        }
      }
      if (next == Lit::undef) {
        ++stats_.decisions;
        next = pick_branch_lit();
        if (next == Lit::undef) {
          return SearchStatus::Sat;  // Full assignment found.
        }
      }
      new_decision_level();
      unchecked_enqueue(next, nullptr);
    }
  }
}

bool Solver::solve(std::span<const Lit> assumptions) {
  const LBool result = solve_limited(assumptions, conflict_budget_);
  if (result == LBool::Undef) {
    throw SolveInterrupted{};
  }
  return result == LBool::True;
}

LBool Solver::solve_limited(std::span<const Lit> assumptions,
                            std::uint64_t max_conflicts) {
  const SolveStatsObs stats_obs(stats_);
  model_.clear();
  if (proof_logging_) {
    last_proof_.reset();
  }
  if (!ok_) {
    if (proof_logging_) {
      proof_snapshot(assumptions);
    }
    return LBool::False;
  }
  const std::uint64_t conflicts_at_start = stats_.conflicts;
  for (std::uint64_t restart = 1;; ++restart) {
    std::uint64_t chunk = kRestartBase * luby(restart);
    if (max_conflicts != 0) {
      const std::uint64_t used = stats_.conflicts - conflicts_at_start;
      if (used >= max_conflicts) {
        cancel_until(0);
        return LBool::Undef;
      }
      chunk = std::min(chunk, max_conflicts - used);
    }
    const SearchStatus status = search(chunk, assumptions);
    if (status == SearchStatus::Restart) {
      ++stats_.restarts;
      continue;
    }
    const bool satisfiable = (status == SearchStatus::Sat);
    if (satisfiable) {
      model_.resize(static_cast<std::size_t>(num_vars()));
      for (Var v = 0; v < num_vars(); ++v) {
        model_[static_cast<std::size_t>(v)] = (value(v) == LBool::True);
      }
    }
    cancel_until(0);
    if (!satisfiable && proof_logging_) {
      proof_snapshot(assumptions);
    }
    return satisfiable ? LBool::True : LBool::False;
  }
}

void Solver::set_proof_logging(bool enable) {
  if (enable && !proof_logging_) {
    // Clauses added before logging began are summarized by the current
    // simplified database — a consequence of the originals, so a
    // refutation of it refutes the original formula too.
    proof_premise_ = problem_clauses();
    proof_drat_.clear();
    last_proof_.reset();
  }
  proof_logging_ = enable;
}

void Solver::proof_log_clause(std::span<const Lit> lits, bool deletion) {
  if (deletion) {
    proof_drat_ += "d ";
  }
  for (Lit l : lits) {
    const int dimacs = l.sign() ? -(l.var() + 1) : (l.var() + 1);
    proof_drat_ += std::to_string(dimacs);
    proof_drat_ += ' ';
  }
  proof_drat_ += "0\n";
}

void Solver::proof_snapshot(std::span<const Lit> assumptions) {
  static obs::Counter& proof_bytes =
      obs::Registry::instance().counter("sat.proof.bytes");
  proof_bytes.add(proof_drat_.size());
  UnsatProof proof;
  proof.premise = proof_premise_;
  proof.assumptions.assign(assumptions.begin(), assumptions.end());
  proof.drat = proof_drat_;
  // The terminating empty clause goes into the snapshot only: for an
  // assumption-based UNSAT it is a consequence of premise + assumptions,
  // not of the formula alone, so it must not pollute the persistent log
  // that later queries keep extending.
  proof.drat += "0\n";
  last_proof_ = std::move(proof);
}

std::vector<std::vector<Lit>> Solver::problem_clauses() const {
  std::vector<std::vector<Lit>> out;
  out.reserve(clauses_.size() + trail_.size());
  // Level-0 units (original units and their consequences).
  const std::size_t level0_end =
      trail_lim_.empty() ? trail_.size()
                         : static_cast<std::size_t>(trail_lim_[0]);
  for (std::size_t i = 0; i < level0_end; ++i) {
    out.push_back({trail_[i]});
  }
  for (const auto& c : clauses_) {
    out.push_back(c->lits);
  }
  return out;
}

bool Solver::model_value(Var v) const {
  assert(!model_.empty());
  return model_[static_cast<std::size_t>(v)];
}

// --- Indexed binary max-heap on variable activity -------------------------

void Solver::heap_insert(Var v) {
  assert(heap_pos_[v] == -1);
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_pos_[v]);
}

void Solver::heap_update(Var v) {
  assert(heap_pos_[v] != -1);
  heap_sift_up(heap_pos_[v]);
}

Var Solver::heap_pop() {
  assert(!heap_.empty());
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (!heap_lt(v, heap_[static_cast<std::size_t>(parent)])) {
      break;
    }
    heap_[static_cast<std::size_t>(i)] =
        heap_[static_cast<std::size_t>(parent)];
    heap_pos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[v] = i;
}

void Solver::heap_sift_down(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int size = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= size) {
      break;
    }
    if (child + 1 < size && heap_lt(heap_[static_cast<std::size_t>(child + 1)],
                                    heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    if (!heap_lt(heap_[static_cast<std::size_t>(child)], v)) {
      break;
    }
    heap_[static_cast<std::size_t>(i)] =
        heap_[static_cast<std::size_t>(child)];
    heap_pos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[v] = i;
}

}  // namespace ftsp::sat
