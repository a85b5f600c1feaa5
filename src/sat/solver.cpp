#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/registry.hpp"
#include "sat/dimacs.hpp"

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
  reason_.push_back(kNoCRef);
  level_.push_back(0);
  level_stamp_.push_back(0);
  trail_pos_.push_back(0);
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
  std::uint32_t id = ProofHints::kNone;
  if (proof_logging_) {
    // The premise records clauses verbatim, before simplification: the
    // stored (strengthened) form is a unit-propagation consequence of the
    // original plus the level-0 units, so checking against the verbatim
    // premise stays sound even when simplification drops an entire clause
    // (e.g. one whose literals are all false at level 0). Its ID names the
    // verbatim clause; the literals dropped here are false at the root.
    std::vector<std::vector<Lit>>& premise = proof_log_->premise;
    id = static_cast<std::uint32_t>(premise.size());
    premise.emplace_back(lits.begin(), lits.end());
  }

  // Simplify: sort, deduplicate, drop false literals, detect tautology and
  // clauses already satisfied at level 0.
  std::vector<Lit> c(lits.begin(), lits.end());
  std::sort(c.begin(), c.end());
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
    if (proof_logging_) {
      proof_log_refutation(id);  // Every literal is false at the root.
    }
    return false;
  }
  if (simplified.size() == 1) {
    enqueue_unit(simplified[0], id);
    const CRef conflict = propagate();
    if (conflict != kNoCRef) {
      ok_ = false;
      if (proof_logging_) {
        proof_log_refutation(arena_.id(conflict));
      }
    }
    return ok_;
  }

  const CRef clause = arena_.alloc(simplified, /*learnt=*/false, id);
  attach_clause(clause);
  clauses_.push_back(clause);
  return true;
}

void Solver::attach_clause(CRef c) {
  assert(arena_.size(c) >= 2);
  const Lit* lits = arena_.lits(c);
  watches_[(~lits[0]).code()].push_back({c, lits[1]});
  watches_[(~lits[1]).code()].push_back({c, lits[0]});
}

void Solver::detach_clause(CRef c) {
  const Lit* lits = arena_.lits(c);
  for (Lit w : {lits[0], lits[1]}) {
    auto& ws = watches_[(~w).code()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].ref == c) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::unchecked_enqueue(Lit l, CRef from) {
  assert(value(l) == LBool::Undef);
  const Var v = l.var();
  assigns_[v] = lbool_from(!l.sign());
  level_[v] = decision_level();
  reason_[v] = from;
  trail_pos_[v] = static_cast<int>(trail_.size());
  trail_.push_back(l);
  if (proof_logging_ && from != kNoCRef && decision_level() == 0) {
    proof_log_root(l, arena_.id(from));
  }
}

void Solver::enqueue_unit(Lit l, std::uint32_t id) {
  assert(decision_level() == 0);
  unchecked_enqueue(l, kNoCRef);
  if (proof_logging_) {
    proof_log_root(l, id);
  }
}

CRef Solver::propagate() {
  CRef conflict = kNoCRef;
  while (conflict == kNoCRef && qhead_ < trail_.size()) {
    ++stats_.propagations;
    conflict = propagate_watches(
        arena_, watches_, trail_[qhead_++], [this](Lit l) { return value(l); },
        [this](Lit l, CRef from) { unchecked_enqueue(l, from); });
  }
  if (conflict != kNoCRef) {
    qhead_ = trail_.size();
  }
  return conflict;
}

int Solver::compute_lbd(std::span<const Lit> lits) {
  // Distinct decision levels, counted by stamping each level once.
  ++lbd_stamp_;
  int distinct = 0;
  for (Lit l : lits) {
    std::uint64_t& stamp =
        level_stamp_[static_cast<std::size_t>(level_[l.var()])];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++distinct;
    }
  }
  return distinct;
}

void Solver::analyze(CRef conflict, int& out_btlevel, int& out_lbd) {
  std::vector<Lit>& out_learnt = learnt_clause_;
  int path_count = 0;
  Lit p = Lit::undef;
  out_learnt.clear();
  out_learnt.push_back(Lit::undef);  // Slot for the asserting literal.
  int index = static_cast<int>(trail_.size()) - 1;
  CRef c = conflict;

  lemma_chain_.clear();
  lemma_implied_.clear();
  do {
    assert(c != kNoCRef);
    if (proof_logging_) {
      lemma_chain_.push_back(arena_.id(c));
    }
    if (arena_.learnt(c)) {
      clause_bump_activity(c);
    }
    const std::span<const Lit> lits = arena_.clause(c);
    const std::size_t start = (p == Lit::undef) ? 0 : 1;
    for (std::size_t k = start; k < lits.size(); ++k) {
      const Lit q = lits[k];
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
  const std::size_t derived = out_learnt.size();
  std::size_t j = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (reason_[out_learnt[i].var()] == kNoCRef ||
        !lit_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[j++] = out_learnt[i];
    } else if (proof_logging_) {
      lemma_implied_.push_back(out_learnt[i]);
    }
  }
  out_learnt.resize(j);
  if (proof_logging_) {
    // The literals the successful lit_redundant walks marked: their
    // reasons justify the dropped literals.
    lemma_implied_.insert(lemma_implied_.end(),
                          analyze_toclear_.begin() +
                              static_cast<std::ptrdiff_t>(derived),
                          analyze_toclear_.end());
  }

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
  std::vector<Lit>& stack = analyze_stack_;
  stack.assign(1, lit);
  const std::size_t top = analyze_toclear_.size();
  while (!stack.empty()) {
    const Lit q = stack.back();
    stack.pop_back();
    assert(reason_[q.var()] != kNoCRef);
    const std::span<const Lit> lits = arena_.clause(reason_[q.var()]);
    for (std::size_t k = 1; k < lits.size(); ++k) {
      const Lit l = lits[k];
      const Var lv = l.var();
      if (!seen_[lv] && level_[lv] > 0) {
        const std::uint32_t abstract =
            std::uint32_t{1} << (level_[lv] & 31);
        if (reason_[lv] != kNoCRef && (abstract & abstract_levels) != 0) {
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
    reason_[v] = kNoCRef;
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

void Solver::clause_bump_activity(CRef c) {
  const double activity = arena_.activity(c) + clause_inc_;
  arena_.set_activity(c, activity);
  if (activity > kActivityRescaleLimit) {
    for (const CRef learnt : learnts_) {
      arena_.set_activity(learnt, arena_.activity(learnt) * 1e-100);
    }
    clause_inc_ *= 1e-100;
  }
}

void Solver::reduce_db() {
  // Order learned clauses worst-first: high LBD, then low activity.
  std::vector<CRef> ordered = learnts_;
  std::sort(ordered.begin(), ordered.end(), [this](CRef a, CRef b) {
    if (arena_.lbd(a) != arena_.lbd(b)) {
      return arena_.lbd(a) > arena_.lbd(b);
    }
    return arena_.activity(a) < arena_.activity(b);
  });

  const auto locked = [&](CRef c) {
    const Lit first = arena_.lits(c)[0];
    return reason_[first.var()] == c && value(first) == LBool::True;
  };

  std::size_t to_remove = ordered.size() / 2;
  for (const CRef c : ordered) {
    if (to_remove == 0) {
      break;
    }
    if (arena_.lbd(c) <= 2 || arena_.size(c) == 2 || locked(c)) {
      continue;
    }
    if (proof_logging_) {
      proof_log_clause(arena_.clause(c), /*deletion=*/true);
    }
    detach_clause(c);
    arena_.free(c);
    --to_remove;
    ++stats_.removed_clauses;
  }

  std::erase_if(learnts_, [this](CRef c) { return arena_.deleted(c); });
  if (arena_.wants_compaction()) {
    compact_arena();
  }
}

void Solver::compact_arena() {
  arena_.compact([this](auto reloc) {
    for (auto& ws : watches_) {
      for (Watcher& w : ws) {
        reloc(w.ref);
      }
    }
    for (const Lit l : trail_) {
      if (CRef& reason = reason_[l.var()]; reason != kNoCRef) {
        reloc(reason);
      }
    }
    for (CRef& c : clauses_) {
      reloc(c);
    }
    for (CRef& c : learnts_) {
      reloc(c);
    }
  });
}

Solver::SearchStatus Solver::search(std::uint64_t conflicts_allowed,
                                    std::span<const Lit> assumptions) {
  std::uint64_t conflict_count = 0;
  const std::size_t max_learnts =
      std::max<std::size_t>(5000, clauses_.size() * 2);

  for (;;) {
    const CRef conflict = propagate();
    if (conflict != kNoCRef) {
      ++stats_.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        ok_ = false;
        if (proof_logging_) {
          proof_log_refutation(arena_.id(conflict));
        }
        return SearchStatus::Unsat;
      }
      int backtrack_level = 0;
      int lbd = 0;
      analyze(conflict, backtrack_level, lbd);
      // First-UIP clauses (with recursive minimization) are reverse unit
      // propagation consequences of the clause database at learn time,
      // so each logged addition passes a RUP check.
      const std::uint32_t id =
          proof_logging_ ? proof_log_lemma() : ProofHints::kNone;
      cancel_until(backtrack_level);
      if (learnt_clause_.size() == 1) {
        enqueue_unit(learnt_clause_[0], id);
      } else {
        const CRef ref = arena_.alloc(learnt_clause_, /*learnt=*/true, id);
        arena_.set_lbd(ref, lbd);
        attach_clause(ref);
        clause_bump_activity(ref);
        learnts_.push_back(ref);
        ++stats_.learned_clauses;
        unchecked_enqueue(learnt_clause_[0], ref);
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
          if (proof_logging_) {
            proof_log_failed_assumption(a);
          }
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
      unchecked_enqueue(next, kNoCRef);
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
    proof_log_ = std::make_shared<ProofLog>();
    proof_log_->premise = problem_clauses();
    refutation_.clear();
    last_proof_.reset();
    // The premise lists the root units first, then the stored clauses;
    // learnt clauses have no place in the new proof.
    const auto units = static_cast<std::uint32_t>(
        proof_log_->premise.size() - clauses_.size());
    for (std::uint32_t i = 0; i < units; ++i) {
      proof_log_root(proof_log_->premise[i][0], i);
    }
    for (std::size_t j = 0; j < clauses_.size(); ++j) {
      arena_.set_id(clauses_[j], units + static_cast<std::uint32_t>(j));
    }
    for (const CRef c : learnts_) {
      arena_.set_id(c, ProofHints::kNone);
    }
  }
  proof_logging_ = enable;
}

void Solver::proof_log_clause(std::span<const Lit> lits, bool deletion) {
  static obs::Counter& proof_bytes =
      obs::Registry::instance().counter("sat.proof.bytes");
  proof_log_->add_line(lits, deletion);
  proof_bytes.add(drat_line_size(lits, deletion));
}

std::uint32_t Solver::proof_log_lemma() {
  proof_log_clause(learnt_clause_, /*deletion=*/false);
  // The chain walks the implication graph forward: the reasons of the
  // literals minimization dropped (all below the conflict level), then
  // the reasons analyze resolved on, in trail order, then the conflict.
  // Root-level literals need no hint: the checker keeps them assigned.
  // analyze() collected the conflict first and then the reasons against
  // the trail.
  std::reverse(lemma_chain_.begin(), lemma_chain_.end());
  std::sort(lemma_implied_.begin(), lemma_implied_.end(),
            [this](Lit a, Lit b) {
              return trail_pos_[a.var()] < trail_pos_[b.var()];
            });
  lemma_chain_.insert(lemma_chain_.begin(), lemma_implied_.size(), 0);
  for (std::size_t i = 0; i < lemma_implied_.size(); ++i) {
    lemma_chain_[i] = arena_.id(reason_[lemma_implied_[i].var()]);
  }
  ProofHints& hints = proof_log_->hints;
  const std::uint32_t id = ProofHints::kLemma | hints.lemmas();
  hints.add_lemma(lemma_chain_);
  return id;
}

void Solver::proof_log_root(Lit l, std::uint32_t id) {
  proof_log_->hints.add_root(l, std::span<const std::uint32_t>(&id, 1));
}

void Solver::proof_log_failed_assumption(Lit a) {
  // The empty clause follows from the assumption units and the reasons
  // that forced ~a, walked back from ~a to the assumptions it rests on.
  // Every decision below the current level is an assumption: level L's
  // decision is assumption L - 1.
  refutation_.clear();
  const std::size_t level1 =
      trail_lim_.empty() ? trail_.size()
                         : static_cast<std::size_t>(trail_lim_[0]);
  if (level_[a.var()] > 0) {
    seen_[a.var()] = true;
  }
  for (std::size_t i = trail_.size(); i > level1; --i) {
    const Var v = trail_[i - 1].var();
    if (!seen_[v]) {
      continue;
    }
    seen_[v] = false;
    const CRef reason = reason_[v];
    if (reason == kNoCRef) {
      refutation_.push_back(ProofHints::kAssumption |
                            static_cast<std::uint32_t>(level_[v] - 1));
      continue;
    }
    refutation_.push_back(arena_.id(reason));
    const std::span<const Lit> lits = arena_.clause(reason);
    for (std::size_t k = 1; k < lits.size(); ++k) {
      if (level_[lits[k].var()] > 0) {
        seen_[lits[k].var()] = true;
      }
    }
  }
  std::reverse(refutation_.begin(), refutation_.end());
  refutation_.push_back(ProofHints::kAssumption |
                        static_cast<std::uint32_t>(decision_level()));
}

void Solver::proof_snapshot(std::span<const Lit> assumptions) {
  // The empty clause stays out of the log: under assumptions it follows
  // from premise + assumptions only, so later queries must not extend it.
  const ProofLog& log = *proof_log_;
  last_proof_ = UnsatProof{proof_log_, log.premise.size(), log.lines(),
                           log.hints.steps(),
                           {assumptions.begin(), assumptions.end()},
                           refutation_};
}

std::span<const std::vector<Lit>> UnsatProof::premise() const {
  return std::span<const std::vector<Lit>>(log->premise).first(premise_size);
}

std::string UnsatProof::drat() const { return to_drat(*log, lines); }

const ProofHints& UnsatProof::hints() const { return log->hints; }

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
  for (const CRef c : clauses_) {
    const std::span<const Lit> lits = arena_.clause(c);
    out.emplace_back(lits.begin(), lits.end());
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
