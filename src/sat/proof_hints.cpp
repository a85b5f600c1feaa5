#include "sat/proof_hints.hpp"

#include <algorithm>

namespace ftsp::sat {

namespace {

constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
constexpr std::size_t kMaxVarintBytes = 10;

// Every encoded ID carries a two-bit kind tag below its payload.
constexpr std::uint64_t kPremiseTag = 0;
constexpr std::uint64_t kLemmaTag = 1;
constexpr std::uint64_t kAssumptionTag = 2;
constexpr std::uint64_t kNoneTag = 3;

std::uint64_t zigzag(std::int64_t v) {
  return v >= 0 ? static_cast<std::uint64_t>(v) << 1
                : (static_cast<std::uint64_t>(-(v + 1)) << 1) | 1;
}

std::int64_t unzigzag(std::uint64_t v) {
  return (v & 1) != 0 ? -static_cast<std::int64_t>(v >> 1) - 1
                      : static_cast<std::int64_t>(v >> 1);
}

}  // namespace

void ProofHints::put(std::uint64_t value) {
  while (value >= 0x80) {
    chunks_.back().push_back(static_cast<std::uint8_t>(value | 0x80));
    value >>= 7;
  }
  chunks_.back().push_back(static_cast<std::uint8_t>(value));
}

void ProofHints::add(Lit unit, std::span<const std::uint32_t> chain) {
  // Header, literal and IDs, each at most one varint.
  const std::size_t worst = (chain.size() + 2) * kMaxVarintBytes;
  if (chunks_.empty() ||
      chunks_.back().capacity() - chunks_.back().size() < worst) {
    chunks_.emplace_back().reserve(std::max(kChunkBytes, worst));
  }
  const bool root = unit != Lit::undef;
  put(std::uint64_t{chain.size()} << 1 | (root ? 1 : 0));
  if (root) {
    put(static_cast<std::uint32_t>(unit.code()));
  }
  std::int64_t previous = 0;  // The chain's previous premise ID.
  for (const std::uint32_t id : chain) {
    const bool lemma = (id & kLemma) != 0;
    const bool assumption = (id & kAssumption) != 0;
    if (lemma == assumption) {
      if (lemma) {
        put(kNoneTag);  // kNone, or any other ID with both tags set.
        continue;
      }
      const std::int64_t delta = std::int64_t{id} - previous;
      previous = id;
      put(zigzag(delta) << 2 | kPremiseTag);
    } else if (lemma) {
      const std::int64_t back =
          std::int64_t{lemmas_} - 1 - std::int64_t{id & ~kLemma};
      put(zigzag(back) << 2 | kLemmaTag);
    } else {
      put(std::uint64_t{id & ~kAssumption} << 2 | kAssumptionTag);
    }
  }
  lemmas_ += root ? 0 : 1;
  ++steps_;
}

ProofHints::Reader::Reader(const ProofHints& hints, std::size_t steps)
    : chunks_(hints.chunks_), steps_(steps) {}

std::uint64_t ProofHints::Reader::varint() {
  std::uint64_t value = 0;
  for (int shift = 0; pos_ != end_; shift += 7) {
    const std::uint8_t byte = *pos_++;
    value |= std::uint64_t{byte & 0x7FU} << shift;
    if ((byte & 0x80) == 0) {
      break;
    }
  }
  return value;
}

bool ProofHints::Reader::next(Step& step) {
  if (step_ == steps_) {
    return false;
  }
  while (pos_ == end_) {
    if (chunk_ == chunks_.size()) {
      return false;
    }
    pos_ = chunks_[chunk_].data();
    end_ = pos_ + chunks_[chunk_].size();
    ++chunk_;
  }
  const std::uint64_t header = varint();
  const bool root = (header & 1) != 0;
  step.unit = root ? Lit::from_code(static_cast<std::int32_t>(varint()))
                   : Lit::undef;
  step.chain.resize(header >> 1);
  std::int64_t previous = 0;
  for (std::uint32_t& id : step.chain) {
    const std::uint64_t code = varint();
    const std::uint64_t payload = code >> 2;
    switch (code & 3) {
      case kPremiseTag:
        previous += unzigzag(payload);
        id = static_cast<std::uint32_t>(previous);
        break;
      case kLemmaTag:
        id = kLemma | static_cast<std::uint32_t>(std::int64_t{lemmas_} - 1 -
                                                 unzigzag(payload));
        break;
      case kAssumptionTag:
        id = kAssumption | static_cast<std::uint32_t>(payload);
        break;
      default:
        id = kNone;
        break;
    }
  }
  lemmas_ += root ? 0 : 1;
  ++step_;
  return true;
}

ProofHints::Reader::Mark ProofHints::Reader::mark() const {
  if (chunk_ == 0) {
    return {0, 0, lemmas_, step_};
  }
  return {static_cast<std::uint32_t>(chunk_),
          static_cast<std::uint32_t>(pos_ - chunks_[chunk_ - 1].data()),
          lemmas_, step_};
}

void ProofHints::Reader::seek(const Mark& mark) {
  chunk_ = mark.chunk;
  lemmas_ = mark.lemmas;
  step_ = mark.step;
  if (chunk_ == 0) {
    pos_ = end_ = nullptr;
    return;
  }
  const std::vector<std::uint8_t>& chunk = chunks_[chunk_ - 1];
  pos_ = chunk.data() + mark.offset;
  end_ = chunk.data() + chunk.size();
}

RefutationCore refutation_core(const ProofHints& hints, std::size_t steps,
                               std::size_t premise_size,
                               std::span<const std::uint32_t> refutation) {
  // One mark per step plus one past the last: step s is a lemma step
  // exactly when the lemma count grows across it.
  ProofHints::Reader reader(hints, steps);
  std::vector<ProofHints::Reader::Mark> marks;
  ProofHints::Step step;
  do {
    marks.push_back(reader.mark());
  } while (reader.next(step));

  RefutationCore core;
  core.premise.assign(premise_size, false);
  core.lemmas.assign(marks.back().lemmas, false);
  const auto cite = [&core](std::uint32_t id) {
    const bool lemma = (id & ProofHints::kLemma) != 0;
    const bool assumption = (id & ProofHints::kAssumption) != 0;
    if (lemma && !assumption) {
      const std::size_t k = id & ~ProofHints::kLemma;
      if (k < core.lemmas.size()) {
        core.lemmas[k] = true;
      }
    } else if (!lemma && !assumption && id < core.premise.size()) {
      core.premise[id] = true;
    }
  };
  for (const std::uint32_t id : refutation) {
    cite(id);
  }
  for (std::size_t s = marks.size() - 1; s-- > 0;) {
    const std::uint32_t lemma = marks[s].lemmas;
    const bool root = marks[s + 1].lemmas == lemma;
    if (!root && !core.lemmas[lemma]) {
      continue;
    }
    reader.seek(marks[s]);
    reader.next(step);
    for (const std::uint32_t id : step.chain) {
      cite(id);
    }
  }
  return core;
}

}  // namespace ftsp::sat
