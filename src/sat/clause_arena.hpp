#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sat/types.hpp"

namespace ftsp::sat {

/// A clause in a `ClauseArena`: the offset of its header word.
using CRef = std::uint32_t;

inline constexpr CRef kNoCRef = 0xFFFFFFFFU;

/// A watch-list entry. `blocker` is some literal of the clause: when it
/// is true the clause is satisfied and the visit ends without touching
/// the clause's memory.
struct Watcher {
  CRef ref;
  Lit blocker;
};

/// The one flat clause store of the CDCL solver and the DRAT checker.
///
/// A clause is one header word followed by its literals inline and one
/// trailing word, its ID (the solver's proof numbering; the DRAT checker
/// leaves it 0). A learnt clause carries three more trailing words: its LBD
/// and the two halves of its activity. Every word is a `Lit` slot. The header and trailing words
/// keep their bits in the slot's code, so a clause's literals are a real
/// `Lit` array and no storage is reinterpreted. `free` only flags a clause;
/// its words stay in place until `compact`.
class ClauseArena {
 public:
  CRef alloc(std::span<const Lit> lits, bool learnt, std::uint32_t id = 0) {
    assert(words_.size() + lits.size() + 5 < (std::size_t{1} << 31));
    const auto ref = static_cast<CRef>(words_.size());
    const auto size = static_cast<std::uint32_t>(lits.size());
    words_.push_back(word(size << kSizeShift | (learnt ? kLearnt : 0U)));
    words_.insert(words_.end(), lits.begin(), lits.end());
    words_.push_back(word(id));
    if (learnt) {
      words_.resize(words_.size() + kLearntWords, word(0));
    }
    return ref;
  }

  std::uint32_t size(CRef c) const { return header(c) >> kSizeShift; }
  bool learnt(CRef c) const { return (header(c) & kLearnt) != 0; }
  bool deleted(CRef c) const { return (header(c) & kDeleted) != 0; }

  Lit* lits(CRef c) { return &words_[c + 1]; }
  std::span<const Lit> clause(CRef c) const {
    return {&words_[c + 1], size(c)};
  }

  void free(CRef c) {
    assert(!deleted(c));
    words_[c] = word(header(c) | kDeleted);
    wasted_ += total_words(c);
  }

  std::uint32_t id(CRef c) const { return bits(c + 1 + size(c)); }
  void set_id(CRef c, std::uint32_t id) { words_[c + 1 + size(c)] = word(id); }

  int lbd(CRef c) const { return static_cast<int>(bits(extra(c))); }
  void set_lbd(CRef c, int lbd) {
    words_[extra(c)] = word(static_cast<std::uint32_t>(lbd));
  }
  double activity(CRef c) const {
    const std::size_t x = extra(c);
    return std::bit_cast<double>(std::uint64_t{bits(x + 1)} |
                                 std::uint64_t{bits(x + 2)} << 32);
  }
  void set_activity(CRef c, double activity) {
    const std::size_t x = extra(c);
    const auto raw = std::bit_cast<std::uint64_t>(activity);
    words_[x + 1] = word(static_cast<std::uint32_t>(raw));
    words_[x + 2] = word(static_cast<std::uint32_t>(raw >> 32));
  }

  /// Allocation-order walk over every clause, freed ones included:
  /// `for (CRef c = 0; c != end(); c = next(c))`.
  CRef end() const { return static_cast<CRef>(words_.size()); }
  CRef next(CRef c) const { return c + total_words(c); }

  /// True once freed clauses hold more than a fifth of the store.
  bool wants_compaction() const { return wasted_ * 5 > words_.size(); }

  /// Drops freed clauses, keeping live ones in allocation order, then
  /// calls `relocate_all(reloc)`, where `reloc(CRef&)` rewrites a ref to a
  /// live clause taken before the compaction. The caller must pass every
  /// ref it holds through `reloc`; refs to freed clauses must be gone.
  template <class RelocateAll>
  void compact(RelocateAll&& relocate_all) {
    std::vector<Lit> to;
    to.reserve(words_.size() - wasted_);
    for (CRef c = 0; c != end(); c = next(c)) {
      if (deleted(c)) {
        continue;
      }
      assert(size(c) > 0);  // The first literal slot holds the forward.
      const auto moved = static_cast<std::int32_t>(to.size());
      to.insert(to.end(), words_.begin() + c, words_.begin() + next(c));
      words_[c + 1] = Lit::from_code(moved);
    }
    relocate_all([this](CRef& ref) {
      assert(!deleted(ref));
      ref = static_cast<CRef>(words_[ref + 1].code());
    });
    words_ = std::move(to);
    wasted_ = 0;
  }

 private:
  static constexpr std::uint32_t kLearnt = 1U;
  static constexpr std::uint32_t kDeleted = 2U;
  static constexpr int kSizeShift = 2;
  static constexpr std::uint32_t kLearntWords = 3;  // LBD, activity lo/hi.

  static Lit word(std::uint32_t bits) {
    return Lit::from_code(static_cast<std::int32_t>(bits));
  }
  std::uint32_t bits(std::size_t i) const {
    return static_cast<std::uint32_t>(words_[i].code());
  }
  std::uint32_t header(CRef c) const { return bits(c); }
  std::size_t extra(CRef c) const { return c + 2 + size(c); }
  std::uint32_t total_words(CRef c) const {
    return 2 + size(c) + (learnt(c) ? kLearntWords : 0);
  }

  std::vector<Lit> words_;
  std::size_t wasted_ = 0;
};

/// Visits, in order, the watch list of `p`, a literal that just became
/// true. Every watched clause keeps its two watched literals at positions
/// 0 and 1. A clause with a true blocker or a true other watch stays put;
/// otherwise it moves to the watch list of its first non-false unwatched
/// literal, and when there is none it is unit (`enqueue(lit, ref)`) or
/// conflicting. Returns the conflicting clause, or kNoCRef; the watchers
/// after a conflict are kept unvisited.
template <class Value, class Enqueue>
CRef propagate_watches(ClauseArena& arena,
                       std::vector<std::vector<Watcher>>& watches, Lit p,
                       const Value& value, const Enqueue& enqueue) {
  auto& ws = watches[p.code()];
  const Lit false_lit = ~p;
  std::size_t i = 0;
  std::size_t j = 0;
  CRef conflict = kNoCRef;
  while (i < ws.size()) {
    const Watcher w = ws[i++];
    if (value(w.blocker) == LBool::True) {
      ws[j++] = w;
      continue;
    }
    Lit* lits = arena.lits(w.ref);
    if (lits[0] == false_lit) {
      std::swap(lits[0], lits[1]);
    }
    assert(lits[1] == false_lit);
    const Lit first = lits[0];
    const Watcher keep{w.ref, first};
    if (first != w.blocker && value(first) == LBool::True) {
      ws[j++] = keep;
      continue;
    }
    const std::uint32_t size = arena.size(w.ref);
    std::uint32_t k = 2;
    while (k < size && value(lits[k]) == LBool::False) {
      ++k;
    }
    if (k < size) {
      std::swap(lits[1], lits[k]);
      watches[(~lits[1]).code()].push_back(keep);
      continue;
    }
    ws[j++] = keep;
    if (value(first) == LBool::False) {
      conflict = w.ref;
      while (i < ws.size()) {
        ws[j++] = ws[i++];
      }
    } else {
      enqueue(first, w.ref);
    }
  }
  ws.resize(j);
  return conflict;
}

}  // namespace ftsp::sat
