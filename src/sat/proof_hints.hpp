#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace ftsp::sat {

/// The solver's record of why each line of a refutation holds: for every
/// derivation step, the IDs of the clauses it follows from, in the order a
/// checker applies them (LRAT-style antecedent chains). Hints stay in
/// memory; nothing on disk carries them.
///
/// A clause ID is a premise index, `kLemma | k` for the k-th addition line
/// of the DRAT text, or `kAssumption | j` for the unit clause of
/// assumption j. A step is either a lemma step, paired with the next
/// addition line, or a root step that derives the literal `unit` at the
/// root; a checker keeps root literals assigned for every later step.
///
/// The steps live in one byte stream of LEB128 varints: a header (chain
/// length and root flag), a root step's literal, then each ID relative to
/// its neighbours. A premise ID is stored as the zigzag delta from the
/// chain's previous premise ID, a lemma ID as its distance back from the
/// current step. Most of a learnt clause's antecedents are premise clauses
/// with nearby IDs, so an ID takes under two bytes on average where a
/// `u32` takes four. The stream grows in fixed-size chunks, never by
/// reallocation: a log of millions of IDs leaves no trail of outgrown
/// buffers in the heap. A step never straddles two chunks.
class ProofHints {
 public:
  static constexpr std::uint32_t kLemma = 1U << 31;
  static constexpr std::uint32_t kAssumption = 1U << 30;
  /// An ID with no clause behind it, e.g. a clause learnt before logging
  /// began. A checker rejects every chain that cites it.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFU;

  struct Step {
    Lit unit = Lit::undef;  ///< A root step's literal; undef on a lemma.
    std::vector<std::uint32_t> chain;
  };

  void add_lemma(std::span<const std::uint32_t> chain) {
    add(Lit::undef, chain);
  }
  void add_root(Lit unit, std::span<const std::uint32_t> chain) {
    add(unit, chain);
  }

  /// Lemma steps recorded so far.
  std::uint32_t lemmas() const { return lemmas_; }
  /// Steps of either kind recorded so far.
  std::size_t steps() const { return steps_; }

  /// Decodes the steps in the order they were added, up to a step count.
  class Reader {
   public:
    /// Where a step starts in the stream: a `Reader` can `seek` back to
    /// it and decode that step alone.
    struct Mark {
      std::uint32_t chunk = 0;   // The chunk after the one read from.
      std::uint32_t offset = 0;  // Byte offset in that chunk.
      std::uint32_t lemmas = 0;  // Lemma steps before the step.
      std::uint32_t step = 0;    // Steps before the step.
    };

    /// Reads the first `steps` steps of `hints`.
    Reader(const ProofHints& hints, std::size_t steps);
    /// Reads the next step into `step`; false after the last one.
    bool next(Step& step);
    /// The position of the step `next` reads next.
    Mark mark() const;
    /// Continues reading at a position `mark` returned.
    void seek(const Mark& mark);

   private:
    std::uint64_t varint();

    const std::vector<std::vector<std::uint8_t>>& chunks_;
    std::size_t steps_;       // Steps to read in all.
    std::uint32_t step_ = 0;  // Steps read so far.
    std::size_t chunk_ = 0;   // The chunk after [pos_, end_).
    const std::uint8_t* pos_ = nullptr;
    const std::uint8_t* end_ = nullptr;
    std::uint32_t lemmas_ = 0;  // Lemma steps read so far.
  };

 private:
  void add(Lit unit, std::span<const std::uint32_t> chain);
  void put(std::uint64_t value);

  std::vector<std::vector<std::uint8_t>> chunks_;
  std::uint32_t lemmas_ = 0;
  std::size_t steps_ = 0;
};

/// The clauses a refutation rests on: every premise clause and lemma
/// reachable through the hint chains from `refutation` (the empty clause's
/// chain) and from the chain of every root step. Root steps are all kept,
/// because a checker keeps their literals assigned and a lemma's chain
/// leans on them without citing them. This is drat-trim's core
/// extraction, read from the solver's hints instead of a backward check.
/// Assumptions are not tracked: a trimmed proof keeps every one.
struct RefutationCore {
  std::vector<bool> premise;  ///< Premise clause i is cited.
  std::vector<bool> lemmas;   ///< The k-th lemma step is cited.
};

/// Walks the first `steps` steps of `hints` from last to first, decoding
/// only the root steps and the lemmas found cited so far: a chain cites
/// only earlier steps, so one backward pass closes the set. IDs past
/// `premise_size`, past the last lemma of those steps or equal to `kNone`
/// cite nothing.
RefutationCore refutation_core(const ProofHints& hints, std::size_t steps,
                               std::size_t premise_size,
                               std::span<const std::uint32_t> refutation);

}  // namespace ftsp::sat
