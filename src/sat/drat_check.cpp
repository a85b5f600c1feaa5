#include "sat/drat_check.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "sat/solver_base.hpp"

namespace ftsp::sat {

namespace {

constexpr std::uint32_t kNoClause = 0xFFFFFFFFU;

struct CheckClause {
  std::vector<Lit> lits;  // Watched literals kept at positions 0 and 1.
  bool deleted = false;
};

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
  DratCheckResult run(const std::vector<std::vector<Lit>>& premise,
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
      std::vector<Lit> clause = normalize(lits);
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
        if (!check_rat(clause)) {
          return fail("lemma " + std::to_string(result_.lemmas_checked + 1) +
                      " is neither RUP nor RAT");
        }
        ++result_.rat_lemmas;
      }
      ++result_.lemmas_checked;
      add_clause(std::move(clause));
      if (done_) {
        result_.ok = true;
        return result_;
      }
    }
  }

 private:
  // --- State ---------------------------------------------------------------
  std::vector<CheckClause> clauses_;
  std::vector<LBool> assigns_;
  std::vector<std::uint32_t> reason_;  // Propagating clause per variable.
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::vector<std::vector<std::uint32_t>> watches_;  // By literal code.
  std::unordered_map<std::string, std::vector<std::uint32_t>> index_;
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
      reason_.push_back(kNoClause);
      watches_.emplace_back();
      watches_.emplace_back();
    }
  }

  /// Sorted-by-code, deduplicated copy; the sorted form doubles as the
  /// clause-identity key for deletions.
  static std::vector<Lit> normalize(const std::vector<Lit>& lits) {
    std::vector<Lit> out = lits;
    std::sort(out.begin(), out.end(),
              [](Lit a, Lit b) { return a.code() < b.code(); });
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  static std::string key_of(const std::vector<Lit>& sorted) {
    std::string key;
    key.reserve(sorted.size() * 4);
    for (const Lit l : sorted) {
      const auto code = static_cast<std::uint32_t>(l.code());
      for (int shift = 0; shift < 32; shift += 8) {
        key.push_back(static_cast<char>((code >> shift) & 0xFFU));
      }
    }
    return key;
  }

  void enqueue(Lit l, std::uint32_t reason) {
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
      const Lit p = trail_[qhead_++];
      auto& ws = watches_[p.code()];
      std::size_t i = 0;
      std::size_t j = 0;
      bool conflict = false;
      while (i < ws.size()) {
        const std::uint32_t ci = ws[i];
        CheckClause& c = clauses_[ci];
        if (c.deleted) {
          ++i;  // Lazily drop watch entries of deleted clauses.
          continue;
        }
        const Lit false_lit = ~p;
        if (c.lits[0] == false_lit) {
          std::swap(c.lits[0], c.lits[1]);
        }
        ++i;
        const Lit first = c.lits[0];
        if (value(first) == LBool::True) {
          ws[j++] = ci;
          continue;
        }
        bool rewatched = false;
        for (std::size_t k = 2; k < c.lits.size(); ++k) {
          if (value(c.lits[k]) != LBool::False) {
            std::swap(c.lits[1], c.lits[k]);
            watches_[(~c.lits[1]).code()].push_back(ci);
            rewatched = true;
            break;
          }
        }
        if (rewatched) {
          continue;
        }
        ws[j++] = ci;
        if (value(first) == LBool::False) {
          conflict = true;
          while (i < ws.size()) {
            ws[j++] = ws[i++];
          }
          break;
        }
        enqueue(first, ci);
      }
      ws.resize(j);
      if (conflict) {
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
      enqueue(~l, kNoClause);
    }
    if (!conflict) {
      conflict = !propagate();
    }
    for (std::size_t k = trail_.size(); k > saved; --k) {
      const Var v = trail_[k - 1].var();
      assigns_[v] = LBool::Undef;
      reason_[v] = kNoClause;
    }
    trail_.resize(saved);
    qhead_ = saved;
    return conflict;
  }

  /// RAT test on the first literal: every resolvent with a clause
  /// containing its negation must be RUP. Resolvents are checked as
  /// concatenations — duplicate and complementary literals are absorbed
  /// by the assignment checks inside `check_rup`.
  bool check_rat(const std::vector<Lit>& clause) {
    if (clause.empty()) {
      return false;
    }
    const Lit pivot = clause[0];
    std::vector<Lit> resolvent;
    for (const CheckClause& d : clauses_) {
      if (d.deleted ||
          std::find(d.lits.begin(), d.lits.end(), ~pivot) == d.lits.end()) {
        continue;
      }
      resolvent.clear();
      for (const Lit l : clause) {
        if (l != pivot) {
          resolvent.push_back(l);
        }
      }
      for (const Lit l : d.lits) {
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

  /// True when `ci` currently props a root-level assignment — such
  /// clauses must survive deletion or later RUP checks lose derivations
  /// the trail already depends on (the drat-trim convention).
  bool is_reason(std::uint32_t ci) const {
    for (const Lit l : clauses_[ci].lits) {
      if (value(l) == LBool::True && reason_[l.var()] == ci) {
        return true;
      }
    }
    return false;
  }

  bool handle_delete(const std::vector<Lit>& sorted) {
    const auto it = index_.find(key_of(sorted));
    if (it == index_.end() || it->second.empty()) {
      fail("deletion of an unknown clause");
      return false;
    }
    const std::uint32_t ci = it->second.back();
    if (is_reason(ci)) {
      ++result_.deletions_skipped;
      return true;
    }
    it->second.pop_back();
    if (it->second.empty()) {
      index_.erase(it);
    }
    clauses_[ci].deleted = true;
    ++result_.deletions_applied;
    return true;
  }

  /// Stores a clause, registers it for deletion lookup, and integrates it
  /// into the permanent state: falsified -> refutation complete, unit
  /// under the trail -> propagate, otherwise watch two non-false
  /// literals. Satisfied/unit clauses are stored inert (no watches).
  void add_clause(std::vector<Lit> sorted) {
    for (const Lit l : sorted) {
      ensure_var(l.var());
    }
    const auto ci = static_cast<std::uint32_t>(clauses_.size());
    index_[key_of(sorted)].push_back(ci);
    clauses_.push_back(CheckClause{std::move(sorted), false});
    CheckClause& c = clauses_.back();
    if (c.lits.empty()) {
      done_ = true;
      return;
    }
    std::size_t non_false = 0;
    for (std::size_t k = 0; k < c.lits.size() && non_false < 2; ++k) {
      if (value(c.lits[k]) != LBool::False) {
        std::swap(c.lits[non_false++], c.lits[k]);
      }
    }
    if (non_false == 0) {
      done_ = true;  // Falsified by the permanent trail.
      return;
    }
    if (non_false == 1) {
      if (value(c.lits[0]) == LBool::Undef) {
        enqueue(c.lits[0], ci);
        if (!propagate()) {
          done_ = true;
        }
      }
      return;  // Unit or already satisfied: no watches needed.
    }
    watches_[(~c.lits[0]).code()].push_back(ci);
    watches_[(~c.lits[1]).code()].push_back(ci);
  }
};

}  // namespace

DratCheckResult check_drat(const std::vector<std::vector<Lit>>& premise,
                           std::span<const Lit> assumptions,
                           std::string_view drat) {
  DratChecker checker;
  return checker.run(premise, assumptions, drat);
}

DratCheckResult check_proof(const UnsatProof& proof) {
  return check_drat(proof.premise, proof.assumptions, proof.drat);
}

}  // namespace ftsp::sat
