#include "sat/drat_check.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "sat/clause_arena.hpp"
#include "sat/solver.hpp"
#include "util/hash.hpp"

namespace ftsp::sat {

namespace {

/// Parses DRAT text: whitespace-separated DIMACS literals, clauses
/// terminated by 0, deletions prefixed with a standalone "d".
class ProofParser {
 public:
  enum class Line { End, Add, Delete, Error };

  explicit ProofParser(std::string_view text) : text_(text) {}

  Line next(std::vector<Lit>& lits) {
    lits.clear();
    skip_space();
    if (pos_ == text_.size()) {
      return Line::End;
    }
    Line kind = Line::Add;
    if (text_[pos_] == 'd') {
      ++pos_;
      if (pos_ == text_.size() || !is_space(text_[pos_])) {
        error_ = "malformed deletion prefix";
        return Line::Error;
      }
      kind = Line::Delete;
    }
    for (;;) {
      skip_space();
      long long value = 0;
      if (!parse_int(value)) {
        return Line::Error;
      }
      if (value == 0) {
        return kind;
      }
      const Var v = static_cast<Var>(value < 0 ? -value : value) - 1;
      lits.emplace_back(v, value < 0);
    }
  }

  const std::string& error() const { return error_; }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  }

  void skip_space() {
    while (pos_ < text_.size() && is_space(text_[pos_])) {
      ++pos_;
    }
  }

  bool parse_int(long long& out) {
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    if (pos_ == text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      error_ = "expected a literal";
      return false;
    }
    long long value = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      value = value * 10 + (text_[pos_] - '0');
      if (value > (1LL << 30)) {
        error_ = "literal out of range";
        return false;
      }
      ++pos_;
    }
    out = negative ? -value : value;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

class DratChecker {
 public:
  DratCheckResult run(std::span<const std::vector<Lit>> premise,
                      std::span<const Lit> assumptions,
                      std::string_view drat) {
    for (const auto& clause : premise) {
      add_clause(normalize(clause));
      if (done_) {
        break;
      }
    }
    for (const Lit a : assumptions) {
      if (done_) {
        break;
      }
      add_clause(normalize(std::vector<Lit>{a}));
    }
    if (done_) {
      // Premise + assumptions conflict under plain unit propagation: the
      // refutation is complete before the first proof line.
      result_.ok = true;
      return result_;
    }

    ProofParser parser(drat);
    std::vector<Lit> lits;
    for (;;) {
      const ProofParser::Line kind = parser.next(lits);
      if (kind == ProofParser::Line::End) {
        return fail("proof ended without deriving the empty clause");
      }
      if (kind == ProofParser::Line::Error) {
        return fail("parse error: " + parser.error());
      }
      const std::vector<Lit> clause = normalize(lits);
      if (kind == ProofParser::Line::Delete) {
        if (!handle_delete(clause)) {
          return result_;
        }
        continue;
      }
      // A lemma may name a variable no earlier clause mentions (a RAT
      // lemma's fresh pivot); size the assignment before reading it.
      for (const Lit l : clause) {
        ensure_var(l.var());
      }
      if (!check_rup(clause)) {
        // The RAT pivot is the first literal as written, not as sorted.
        if (lits.empty() || !check_rat(clause, lits[0])) {
          return fail("lemma " + std::to_string(result_.lemmas_checked + 1) +
                      " is neither RUP nor RAT");
        }
        ++result_.rat_lemmas;
      }
      ++result_.lemmas_checked;
      add_clause(clause);
      if (done_) {
        result_.ok = true;
        return result_;
      }
    }
  }

 private:
  // --- State ---------------------------------------------------------------
  ClauseArena arena_;  // Watched literals kept at positions 0 and 1.
  std::vector<LBool> assigns_;
  std::vector<CRef> reason_;  // Propagating clause per variable.
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::vector<std::vector<Watcher>> watches_;  // By literal code.
  // Deletion lookup: hash of the sorted literals -> clauses with that
  // hash, matched exactly on lookup.
  std::unordered_multimap<std::uint64_t, CRef> index_;
  bool done_ = false;  // Root-level conflict reached: refutation complete.
  DratCheckResult result_;

  DratCheckResult fail(std::string message) {
    result_.ok = false;
    result_.error = std::move(message);
    return result_;
  }

  LBool value(Lit l) const { return assigns_[l.var()] ^ l.sign(); }

  void ensure_var(Var v) {
    while (static_cast<Var>(assigns_.size()) <= v) {
      assigns_.push_back(LBool::Undef);
      reason_.push_back(kNoCRef);
      watches_.emplace_back();
      watches_.emplace_back();
    }
  }

  /// Sorted-by-code, deduplicated copy; the sorted form is what the
  /// deletion index hashes.
  static std::vector<Lit> normalize(const std::vector<Lit>& lits) {
    std::vector<Lit> out = lits;
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  static std::uint64_t key_of(std::span<const Lit> sorted) {
    util::Fnv1a64 hash;
    for (const Lit l : sorted) {
      hash.word(static_cast<std::uint32_t>(l.code()));
    }
    return hash.value();
  }

  void enqueue(Lit l, CRef reason) {
    const Var v = l.var();
    assigns_[v] = lbool_from(!l.sign());
    reason_[v] = reason;
    trail_.push_back(l);
  }

  /// Exhaustive unit propagation from the current queue head. Returns
  /// false on conflict (with the queue drained so the caller's undo keeps
  /// the invariant qhead == trail size at the closure point).
  bool propagate() {
    while (qhead_ < trail_.size()) {
      const CRef conflict = propagate_watches(
          arena_, watches_, trail_[qhead_++],
          [this](Lit l) { return value(l); },
          [this](Lit l, CRef from) { enqueue(l, from); });
      if (conflict != kNoCRef) {
        qhead_ = trail_.size();
        return false;
      }
    }
    return true;
  }

  /// RUP test: assert the clause's negation on top of the permanent
  /// trail, propagate, expect a conflict. Temporary assignments are
  /// undone either way.
  bool check_rup(std::span<const Lit> clause) {
    const std::size_t saved = trail_.size();
    bool conflict = false;
    for (const Lit l : clause) {
      if (value(l) == LBool::True) {
        conflict = true;  // Negating the clause contradicts the trail.
        break;
      }
      if (value(l) == LBool::False) {
        continue;
      }
      enqueue(~l, kNoCRef);
    }
    if (!conflict) {
      conflict = !propagate();
    }
    for (std::size_t k = trail_.size(); k > saved; --k) {
      const Var v = trail_[k - 1].var();
      assigns_[v] = LBool::Undef;
      reason_[v] = kNoCRef;
    }
    trail_.resize(saved);
    qhead_ = saved;
    return conflict;
  }

  /// RAT test on `pivot`: every resolvent with a clause containing its
  /// negation must be RUP. Resolvents are checked as concatenations —
  /// duplicate and complementary literals are absorbed by the assignment
  /// checks inside `check_rup`.
  bool check_rat(std::span<const Lit> clause, Lit pivot) {
    std::vector<Lit> resolvent;
    for (CRef d = 0; d != arena_.end(); d = arena_.next(d)) {
      const std::span<const Lit> lits = arena_.clause(d);
      if (arena_.deleted(d) ||
          std::find(lits.begin(), lits.end(), ~pivot) == lits.end()) {
        continue;
      }
      resolvent.clear();
      for (const Lit l : clause) {
        if (l != pivot) {
          resolvent.push_back(l);
        }
      }
      for (const Lit l : lits) {
        if (l != ~pivot) {
          resolvent.push_back(l);
        }
      }
      if (!check_rup(resolvent)) {
        return false;
      }
    }
    return true;
  }

  /// True when `c` currently props a root-level assignment — such
  /// clauses must survive deletion or later RUP checks lose derivations
  /// the trail already depends on (the drat-trim convention).
  bool is_reason(CRef c) const {
    for (const Lit l : arena_.clause(c)) {
      if (value(l) == LBool::True && reason_[l.var()] == c) {
        return true;
      }
    }
    return false;
  }

  /// Same literal set as the sorted, deduplicated `sorted`.
  bool same_clause(CRef c, std::span<const Lit> sorted) const {
    const std::span<const Lit> lits = arena_.clause(c);
    return lits.size() == sorted.size() &&
           std::all_of(lits.begin(), lits.end(), [&](Lit l) {
             return std::binary_search(sorted.begin(), sorted.end(), l);
           });
  }

  /// Deletes the most recently added live copy of the clause. Refs grow
  /// in addition order, so that copy is the largest matching ref.
  bool handle_delete(std::span<const Lit> sorted) {
    CRef target = kNoCRef;
    const auto [first, last] = index_.equal_range(key_of(sorted));
    auto entry = last;
    for (auto it = first; it != last; ++it) {
      if ((target == kNoCRef || it->second > target) &&
          same_clause(it->second, sorted)) {
        target = it->second;
        entry = it;
      }
    }
    if (target == kNoCRef) {
      fail("deletion of an unknown clause");
      return false;
    }
    if (is_reason(target)) {
      ++result_.deletions_skipped;
      return true;
    }
    index_.erase(entry);
    detach(target);
    arena_.free(target);
    ++result_.deletions_applied;
    return true;
  }

  /// Unwatches a deleted clause. Erasing in place keeps every other
  /// watcher in order. Unit and inert clauses have no watchers to find.
  void detach(CRef c) {
    if (arena_.size(c) < 2) {
      return;
    }
    const Lit* lits = arena_.lits(c);
    for (const Lit w : {lits[0], lits[1]}) {
      std::erase_if(watches_[(~w).code()],
                    [c](const Watcher& x) { return x.ref == c; });
    }
  }

  /// Stores a clause, registers it for deletion lookup, and integrates it
  /// into the permanent state: falsified -> refutation complete, unit
  /// under the trail -> propagate, otherwise watch two non-false
  /// literals. Satisfied/unit clauses are stored inert (no watches).
  void add_clause(std::span<const Lit> sorted) {
    for (const Lit l : sorted) {
      ensure_var(l.var());
    }
    const CRef c = arena_.alloc(sorted, /*learnt=*/false);
    index_.emplace(key_of(sorted), c);
    if (sorted.empty()) {
      done_ = true;
      return;
    }
    Lit* lits = arena_.lits(c);
    std::size_t non_false = 0;
    for (std::size_t k = 0; k < sorted.size() && non_false < 2; ++k) {
      if (value(lits[k]) != LBool::False) {
        std::swap(lits[non_false++], lits[k]);
      }
    }
    if (non_false == 0) {
      done_ = true;  // Falsified by the permanent trail.
      return;
    }
    if (non_false == 1) {
      if (value(lits[0]) == LBool::Undef) {
        enqueue(lits[0], c);
        if (!propagate()) {
          done_ = true;
        }
      }
      return;  // Unit or already satisfied: no watches needed.
    }
    watches_[(~lits[0]).code()].push_back({c, lits[1]});
    watches_[(~lits[1]).code()].push_back({c, lits[0]});
  }
};

/// Hinted RUP checking: every step names its antecedents, so a lemma is
/// verified by walking its chain once, with no watch lists, no
/// propagation queue and no search.
class HintedChecker {
 public:
  HintedChecker(std::span<const std::vector<Lit>> premise,
                std::span<const Lit> assumptions)
      : premise_(premise), assumptions_(assumptions) {}

  /// Checks the lemmas of `drat` against the first `steps` steps of
  /// `hints`: a later step of the same solver must never pair with the
  /// empty clause of an earlier refutation.
  DratCheckResult run(std::string_view drat, const ProofHints& hints,
                      std::size_t steps,
                      std::span<const std::uint32_t> refutation) {
    for (const auto& clause : premise_) {
      for (const Lit l : clause) {
        ensure_var(l.var());
      }
    }
    for (const Lit a : assumptions_) {
      ensure_var(a.var());
    }

    ProofParser parser(drat);
    lemmas_.lits.reserve(drat.size() / 2);  // A literal takes 2+ chars.
    std::vector<Lit> lits;
    ProofHints::Reader reader(hints, steps);
    ProofHints::Step step;
    for (std::size_t s = 1; reader.next(step); ++s) {
      if (step.unit != Lit::undef) {
        ensure_var(step.unit.var());
        const Lit unit[] = {step.unit};
        if (!check_chain(unit, step.chain)) {
          return fail("root step " + std::to_string(s) + ": " + why_);
        }
        if (value(step.unit) == LBool::False) {
          return fail("root step " + std::to_string(s) +
                      " contradicts the root assignment");
        }
        assigns_[step.unit.var()] = lbool_from(!step.unit.sign());
        continue;
      }
      if (!next_lemma(parser, lits)) {
        return result_;
      }
      if (!check_chain(lits, step.chain)) {
        return fail_lemma();
      }
      ++result_.lemmas_checked;
      if (lits.empty()) {
        result_.ok = true;
        return result_;
      }
      lemmas_.add_line(lits, /*deletion=*/false);
    }
    // The empty clause closes the proof with its own chain.
    if (!next_lemma(parser, lits)) {
      return result_;
    }
    if (!lits.empty()) {
      return fail("lemma " + std::to_string(result_.lemmas_checked + 1) +
                  " has no hints");
    }
    if (!check_chain(lits, refutation)) {
      return fail_lemma();
    }
    ++result_.lemmas_checked;
    result_.ok = true;
    return result_;
  }

 private:
  std::span<const std::vector<Lit>> premise_;
  std::span<const Lit> assumptions_;
  ProofLog lemmas_;  // The checked lemmas, one line each.
  std::vector<LBool> assigns_;  // Root assignment plus the current chain's.
  std::vector<Var> chain_vars_;  // Variables the current chain assigned.
  std::string why_;
  DratCheckResult result_;

  DratCheckResult fail(std::string message) {
    result_.ok = false;
    result_.error = std::move(message);
    return result_;
  }

  DratCheckResult fail_lemma() {
    return fail("lemma " + std::to_string(result_.lemmas_checked + 1) +
                ": " + why_);
  }

  LBool value(Lit l) const { return assigns_[l.var()] ^ l.sign(); }

  void ensure_var(Var v) {
    if (static_cast<std::size_t>(v) >= assigns_.size()) {
      assigns_.resize(static_cast<std::size_t>(v) + 1, LBool::Undef);
    }
  }

  /// Reads the next addition line, skipping deletions: RUP never depends
  /// on them.
  bool next_lemma(ProofParser& parser, std::vector<Lit>& lits) {
    ProofParser::Line kind = ProofParser::Line::Delete;
    while (kind == ProofParser::Line::Delete) {
      kind = parser.next(lits);
    }
    if (kind == ProofParser::Line::End) {
      fail("proof ended without deriving the empty clause");
      return false;
    }
    if (kind == ProofParser::Line::Error) {
      fail("parse error: " + parser.error());
      return false;
    }
    for (const Lit l : lits) {
      ensure_var(l.var());
    }
    return true;
  }

  /// The clause `id` names, or nullopt when it names none derived yet:
  /// only the premise, the assumptions and earlier lemmas may be cited.
  std::optional<std::span<const Lit>> clause(std::uint32_t id) const {
    const bool lemma = (id & ProofHints::kLemma) != 0;
    const bool assumption = (id & ProofHints::kAssumption) != 0;
    if (lemma && assumption) {
      return std::nullopt;
    }
    if (lemma) {
      const std::size_t k = id & ~ProofHints::kLemma;
      if (k >= result_.lemmas_checked) {
        return std::nullopt;
      }
      return lemmas_.line(k);
    }
    if (assumption) {
      const std::size_t j = id & ~ProofHints::kAssumption;
      if (j >= assumptions_.size()) {
        return std::nullopt;
      }
      return assumptions_.subspan(j, 1);
    }
    if (id >= premise_.size()) {
      return std::nullopt;
    }
    return premise_[id];
  }

  /// RUP along the chain: under the root assignment and the negation of
  /// `lemma`, each hint before the last must be unit (its one open literal
  /// is then assigned) and the last must be falsified. A lemma the root
  /// assignment already satisfies holds outright.
  bool check_chain(std::span<const Lit> lemma,
                   std::span<const std::uint32_t> chain) {
    const bool ok = walk_chain(lemma, chain);
    for (const Var v : chain_vars_) {
      assigns_[v] = LBool::Undef;
    }
    chain_vars_.clear();
    return ok;
  }

  void assign_in_chain(Lit l) {
    assigns_[l.var()] = lbool_from(!l.sign());
    chain_vars_.push_back(l.var());
  }

  bool walk_chain(std::span<const Lit> lemma,
                  std::span<const std::uint32_t> chain) {
    for (const Lit l : lemma) {
      if (value(l) == LBool::True) {
        return true;
      }
      if (value(l) == LBool::Undef) {
        assign_in_chain(~l);
      }
    }
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const std::optional<std::span<const Lit>> hint = clause(chain[k]);
      if (!hint.has_value()) {
        return reject(k, "cites no clause derived so far");
      }
      Lit open = Lit::undef;
      for (const Lit l : *hint) {
        const LBool v = value(l);
        if (v == LBool::True) {
          return reject(k, "is satisfied");
        }
        if (v == LBool::Undef && open != l) {
          if (open != Lit::undef) {
            return reject(k, "is not unit");
          }
          open = l;
        }
      }
      const bool last = k + 1 == chain.size();
      if (open == Lit::undef) {
        return last || reject(k, "is falsified before the last hint");
      }
      if (last) {
        return reject(k, "is the last hint but not falsified");
      }
      assign_in_chain(open);
    }
    why_ = "the chain is empty";
    return false;
  }

  bool reject(std::size_t hint, const char* what) {
    why_ = "hint " + std::to_string(hint + 1) + " " + what;
    return false;
  }
};

}  // namespace

DratCheckResult check_drat(std::span<const std::vector<Lit>> premise,
                           std::span<const Lit> assumptions,
                           std::string_view drat) {
  DratChecker checker;
  return checker.run(premise, assumptions, drat);
}

DratCheckResult check_proof(const UnsatProof& proof) {
  return check_drat(proof.premise(), proof.assumptions, proof.drat());
}

DratCheckResult check_hinted(std::span<const std::vector<Lit>> premise,
                             std::span<const Lit> assumptions,
                             std::string_view drat, const ProofHints& hints,
                             std::span<const std::uint32_t> refutation) {
  HintedChecker checker(premise, assumptions);
  return checker.run(drat, hints, hints.steps(), refutation);
}

DratCheckResult check_hinted_proof(const UnsatProof& proof) {
  HintedChecker checker(proof.premise(), proof.assumptions);
  return checker.run(proof.drat(), proof.hints(), proof.steps,
                     proof.refutation);
}

}  // namespace ftsp::sat
